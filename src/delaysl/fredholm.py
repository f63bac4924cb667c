"""The compact integral operator that seeds the potential families.

For a real h on (5a/2, 3a) let K(s) be the tail integral of h from s to
3a, extended by zero past 3a.  The operator sends f on (3a/2, 2a) to

    (M f)(x) = integral over t in (3a/2, 2a) of K(x + t - a/2) f(t),

a Hermitian kernel in disguise: K(x + t - a/2) is symmetric in (x, t).
Its eigenfunctions with nonzero eigenvalue are what the family
construction consumes.  Discretization is a Gauss-Legendre Nystrom
scheme in the symmetrized sqrt-weight form, so the matrix is literally
real symmetric and any dense symmetric eigensolver applies; continuous
eigenfunctions are recovered from the same quadrature identity.

One closed-form witness is built in: ``reference_pair`` returns an
(h, e) with M_h e = -e exactly and e of zero mean, which downstream
code uses to exercise both branches of the family construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delay_solver import _LATTICE_CELLS, PI
from .errors import DomainError, NoEigenvaluesError, PreconditionError
from .gridfn import (
    Interval,
    PiecewiseFunction,
    SampledSegment,
    cumulative,
    integrate,
    lattice_product_integrals,
    sample_function,
)

__all__ = [
    "FredholmOperator",
    "EigenPair",
    "apply",
    "apply_discrete",
    "project",
    "nystrom",
    "eigenpairs",
    "reference_pair",
    "zero_mean",
]

_ETA_CUTOFF = 1e-10  # relative magnitude below which an eigenvalue reads as zero


@dataclass(frozen=True)
class EigenPair:
    """One nonzero eigenvalue with its sup-normalized eigenfunction.

    ``residual`` is the sup norm of M e - eta e recomputed by direct
    quadrature, independent of the matrix that produced the pair.
    """

    eta: float
    e: PiecewiseFunction
    residual: float

    def __post_init__(self):
        if self.eta == 0.0:
            raise DomainError("eigenvalue must be nonzero")
        if not self.residual <= 1e-6:
            raise DomainError(f"eigenpair residual {self.residual:.3g} exceeds 1e-6")


class FredholmOperator:
    """Kernel data: the delay a, the density h, and its tail integral K."""

    __slots__ = ("a", "h", "K")

    def __init__(self, a: float, h: PiecewiseFunction):
        if not 0.0 < a < PI / 3.0:
            raise PreconditionError(f"need a in (0, pi/3), got {a}")
        snap = 1e-9 * (1.0 + 3.0 * a)
        if abs(h.lo - 2.5 * a) > snap or abs(h.hi - 3.0 * a) > snap:
            raise PreconditionError("density must live on (5a/2, 3a)")
        scale = float(np.max(np.abs(h.all_samples())))
        if float(np.max(np.abs(h.all_samples().imag))) > 1e-12 * (1.0 + scale):
            raise PreconditionError("density must be real-valued")
        self.a = a
        self.h = h
        self.K = _tail_integral(a, h)

    def kernel_values(self, s) -> np.ndarray:
        """K at arbitrary points of [3a/2, 7a/2]."""
        return self.K.values(s)


def _tail_integral(a: float, h: PiecewiseFunction) -> PiecewiseFunction:
    """K(s) = integral of h over (s, 3a) on [3a/2, 7a/2], zero past 3a.

    Constant below the density's support, continuous at 3a by
    construction.
    """
    total = complex(integrate(h, h.lo, h.hi))
    running = cumulative(h, h.lo)
    body = running.map_samples(lambda s, x: total - s)
    flat = [
        SampledSegment(Interval(1.5 * a, 2.0 * a), np.full(3, total)),
        SampledSegment(Interval(2.0 * a, 2.5 * a), np.full(3, total)),
    ]
    zero = [
        SampledSegment(Interval(3.0 * a, 3.5 * a), np.zeros(3, dtype=complex)),
    ]
    return PiecewiseFunction(flat + list(body.segments) + zero)


def apply(op: FredholmOperator, f: PiecewiseFunction) -> PiecewiseFunction:
    """Image of f under the operator, sampled on (3a/2, 2a).

    The moving upper limit in the defining integral is immaterial: K
    vanishes past 3a, so integrating t over all of (3a/2, 2a) is exact.
    """
    a = op.a
    snap = 1e-9 * (1.0 + 2.0 * a)
    if abs(f.lo - 1.5 * a) > snap or abs(f.hi - 2.0 * a) > snap:
        raise PreconditionError("argument must live on (3a/2, 2a)")
    delta = a / _LATTICE_CELLS
    # every output node shifts K by x - a/2, a whole number of lattice cells
    xs = np.linspace(1.5 * a, 2.0 * a, 513)
    ks = np.rint((xs - 0.5 * a) / delta).astype(int)
    out = lattice_product_integrals(f, op.K, ks, 1.5 * a, 2.0 * a, delta)
    return PiecewiseFunction([SampledSegment(Interval(1.5 * a, 2.0 * a), out)])


def _orthobasis(a: float, count: int, xs) -> np.ndarray:
    """First ``count`` orthonormal polynomials on (3a/2, 2a), rows at xs."""
    xi = (np.asarray(xs, dtype=float) - 1.75 * a) / (0.25 * a)
    rows = np.empty((count, xi.size))
    rows[0] = 1.0
    if count > 1:
        rows[1] = xi
    for p in range(1, count - 1):
        rows[p + 1] = ((2.0 * p + 1.0) * xi * rows[p] - p * rows[p - 1]) / (p + 1.0)
    scale = np.sqrt(2.0 * (2.0 * np.arange(count) + 1.0) / a)
    return rows * scale[:, None]


def nystrom(op: FredholmOperator, n: int):
    """Real symmetric spectral matrix plus reference nodes and weights.

    A is the operator on the first n orthonormal polynomials of
    (3a/2, 2a).  Assembly runs in the coordinate s = x + t - a/2: there
    the kernel's tail cutoff sits at the fixed abscissa 3a, outside the
    integration range, so every quadrature sees a smooth integrand and
    the matrix eigenvalues converge spectrally in n.  A plain rule on
    the square would smear the cutoff line across cells and stall at
    second order.  Returned alongside are the n-point Gauss-Legendre
    nodes and weights on (3a/2, 2a) for callers that integrate samples.
    """
    if n < 16:
        raise PreconditionError(f"need n >= 16 modes, got {n}")
    a = op.a
    xi, wi = np.polynomial.legendre.leggauss(n)
    x = 1.75 * a + 0.25 * a * xi
    w = 0.25 * a * wi

    # outer rule in s over the density's support, inner rule across the
    # correlation window (3a/2, s - a)
    sxi, swt = np.polynomial.legendre.leggauss(2 * n + 32)
    s = 2.75 * a + 0.25 * a * sxi
    sw = 0.25 * a * swt * op.K.values(s).real
    rxi, rwt = np.polynomial.legendre.leggauss(n + 2)
    A = np.zeros((n, n))
    for lo in range(0, s.size, 16):
        sb = s[lo : lo + 16]
        swb = sw[lo : lo + 16]
        half = 0.5 * (sb - 2.5 * a)
        mid = 0.5 * sb + 0.25 * a
        xn = mid[:, None] + half[:, None] * rxi[None, :]
        wn = (swb * half)[:, None] * rwt[None, :]
        left = _orthobasis(a, n, xn.ravel())
        # the right nodes s + a/2 - xn = mid - half * rxi are the left ones
        # in reverse order, as the Gauss nodes are symmetric
        right = left.reshape(n, *xn.shape)[:, :, ::-1].reshape(n, -1)
        A += (left * wn.ravel()) @ right.T
    A = 0.5 * (A + A.T)
    return A, x, w


def project(op: FredholmOperator, f: PiecewiseFunction, n: int) -> np.ndarray:
    """Coefficients of f in the n-term orthonormal polynomial basis."""
    a = op.a
    xi, wi = np.polynomial.legendre.leggauss(n + 8)
    x = 1.75 * a + 0.25 * a * xi
    w = 0.25 * a * wi
    return _orthobasis(a, n, x) @ (w * f.values(x))


def apply_discrete(op: FredholmOperator, f: PiecewiseFunction, n: int) -> PiecewiseFunction:
    """Image of f through the n-mode matrix, on the standard 513 grid.

    The independent route is ``apply``; agreement between the two is a
    discretization-quality check.
    """
    a = op.a
    coeff = nystrom(op, n)[0] @ project(op, f, n)
    xs = np.linspace(1.5 * a, 2.0 * a, 513)
    samples = coeff @ _orthobasis(a, n, xs)
    return PiecewiseFunction([SampledSegment(Interval(1.5 * a, 2.0 * a), samples.astype(complex))])


def eigenpairs(op: FredholmOperator, n: int, count: int | None = None) -> list[EigenPair]:
    """Eigenpairs above the nonzero cutoff, by descending |eta|.

    Eigenvectors of the mode matrix are synthesized back to sampled
    functions, normalized to sup norm 1 with a nonnegative leading
    value.  Every returned residual is recomputed through ``apply``,
    independent of the matrix route.  ``count`` caps how many pairs are
    returned; each pair costs one direct-quadrature residual pass.
    """
    a = op.a
    A, _, _ = nystrom(op, n)
    vals, vecs = np.linalg.eigh(A)
    top = float(np.max(np.abs(vals))) if len(vals) else 0.0
    keep = [m for m in range(len(vals)) if abs(vals[m]) > _ETA_CUTOFF * max(top, 1e-300)]
    if top == 0.0 or not keep:
        raise NoEigenvaluesError("operator has no eigenvalue above the cutoff")
    keep.sort(key=lambda m: -abs(vals[m]))
    if count is not None:
        keep = keep[:count]
    xs = np.linspace(1.5 * a, 2.0 * a, 513)
    basis = _orthobasis(a, n, xs)
    pairs = []
    for m in keep:
        eta = float(vals[m])
        samples = vecs[:, m] @ basis
        peak = float(np.max(np.abs(samples)))
        samples = samples / peak
        if samples[0].real < 0.0:
            samples = -samples
        e = PiecewiseFunction(
            [SampledSegment(Interval(1.5 * a, 2.0 * a), samples.astype(complex))]
        )
        image = apply(op, e)
        residual = float(np.max(np.abs(image.all_samples() - eta * e.all_samples())))
        pairs.append(EigenPair(eta, e, residual))
    return pairs


def reference_pair(a: float, count: int = 2049) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """The built-in analytic witness (h, e).

    h(x) = (6 pi^2 / a^2) cos(pi sqrt(10) (3 - x/a)) on (5a/2, 3a) and
    e(x) = cos(4 pi x / a) - cos(2 pi x / a) on (3a/2, 2a) satisfy
    M_h e = -e with e of zero mean, so (h, e, eta = -1) feeds the family
    construction for either boundary index.  The default sample count
    keeps the interpolation floor of h's tail integral below the 1e-10
    accuracy the eigenvalue checks aim for.
    """
    if not 0.0 < a < PI / 3.0:
        raise PreconditionError(f"need a in (0, pi/3), got {a}")
    freq = PI * np.sqrt(10.0)
    h = sample_function(
        lambda x: (6.0 * PI**2 / a**2) * np.cos(freq * (3.0 - x / a)),
        [2.5 * a, 3.0 * a],
        count,
    )
    e = sample_function(
        lambda x: np.cos(4.0 * PI * x / a) - np.cos(2.0 * PI * x / a),
        [1.5 * a, 2.0 * a],
        count,
    )
    return h, e


def zero_mean(e: PiecewiseFunction, tol: float = 1e-8) -> bool:
    """Whether e integrates to zero relative to its size and span."""
    total = complex(integrate(e, e.lo, e.hi))
    scale = float(np.max(np.abs(e.all_samples())))
    return abs(total) <= tol * scale * (e.hi - e.lo)
