"""The compact integral operator that seeds the potential families.

For a real h on (5a/2, 3a) let K(s) be the tail integral of h from s to
3a, extended by zero past 3a.  The operator sends f on (3a/2, 2a) to

    (M f)(x) = integral over t in (3a/2, 2a) of K(x + t - a/2) f(t),

a Hermitian kernel in disguise: K(x + t - a/2) is symmetric in (x, t).
Its eigenfunctions with nonzero eigenvalue are what the family
construction consumes.

Two discretizations are kept apart.  ``apply`` integrates the kernel
directly on the sampling lattice.  ``nystrom`` builds the real
symmetric matrix of M on the first n orthonormal Legendre polynomials
of (3a/2, 2a), so any dense symmetric eigensolver applies and
continuous eigenfunctions are the modes' sums.  Since the kernel
depends on x + t only, and K vanishes past 3a, that matrix is a
Legendre convolution matrix: in u = (x - 3a/2)/(a/2) on [0, 1] the
kernel is g(1 - u - v) with g(d) = K(3a - (a/2) d), and the columns of
the convolution of each shifted Legendre polynomial with g follow a
three-term recurrence in the integration operator (Hale & Townsend,
"An algorithm for the convolution of Legendre series", SIAM J. Sci.
Comput. 36(3), 2014).  The recurrence is run on and below the diagonal
only, where it is stable, and the matrix is mirrored from there.  It
reads g's Legendre coefficients up to degree 2n - 1, taken from one
Gauss sampling of K on the density's support, which is all any entry
depends on; the cost is O(n^2) after that sampling.  Checking
``apply_discrete`` against ``apply`` compares the two routes.

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
    _gauss,
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

MIN_MODES = 16  # fewest modes the mode matrix accepts
_ETA_CUTOFF = 1e-10  # relative magnitude below which an eigenvalue reads as zero
_ETA_TIE = 1e-12  # relative gap in |eta| within which +eta is listed before -eta


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


def nystrom(op: FredholmOperator, n: int) -> np.ndarray:
    """Real symmetric n x n matrix of the operator on the first n modes.

    A[p, q] is the operator between the first n orthonormal polynomials
    of (3a/2, 2a), built by the Legendre convolution recurrence of Hale
    and Townsend, "An algorithm for the convolution of Legendre series",
    SIAM J. Sci. Comput. 36(3), 2014, in O(n^2) operations.

    Coordinates: u = (x - 3a/2)/(a/2) maps both x and t onto [0, 1], and
    g(d) = K(3a - (a/2) d) is the kernel on the density's support.  As K
    vanishes past 3a, K(x + t - a/2) = g(1 - u - v) is a convolution, and
    with b[:, q] the shifted-Legendre coefficients of P_q * g on [0, 1]
    (P_q the shifted Legendre polynomials, * the convolution from 0),

        A[p, q] = (a/2) (-1)^p sqrt((2q + 1)/(2p + 1)) b[p, q].

    The columns obey b_0 = S c, b_1 = 2 S b_0 - b_0 and
    b_{k+1} = 2 (2k + 1) S b_k + b_{k-1}, where c holds the coefficients
    of g and S, integration from 0 in coefficient space, is tridiagonal:
    (S v)_0 = v_0/2 - v_1/6, (S v)_i = v_{i-1}/(2(2i - 1)) - v_{i+1}/(2(2i + 3)).
    The recurrence is stable on and below the diagonal and grows without
    bound above it (it overflows from about n = 512).  Rows j >= k of b_k
    depend only on the same rows of the earlier columns, so only that
    lower triangle is run, the rest held at zero, and the upper triangle
    is its mirror, b[k, j] = (-1)^(j+k) (2k + 1)/(2j + 1) b[j, k], which
    is the statement that A is symmetric.

    A plain rule on the square would smear the cutoff line u + v = 1
    across cells and stall at second order.  The recurrence never meets
    that line: the convolution from 0 carries the cutoff exactly, and the
    only samples are of g at 2n + 32 Gauss nodes of the density's
    support, where K is smooth; they give c_m for m < 2n.  That is all
    the matrix needs: A[p, q] is the integral of K against a polynomial
    of degree at most 2n - 1 in s = x + t - a/2, so a collapsed Gauss
    rule in (s, r) on the same s nodes gives the same matrix in exact
    arithmetic, and the eigenvalues converge spectrally in n.
    """
    if n < MIN_MODES:
        raise PreconditionError(f"need n >= {MIN_MODES} modes, got {n}")
    a = op.a
    size = 2 * n
    # c_m = (2m + 1) * integral of g P_m over [0, 1]; at the Gauss node
    # s = 11a/4 + (a/4) xi, d = (1 - xi)/2 and P_m(d) = (-1)^m P_m(xi)
    xi, wt = _gauss(size + 32)
    m = np.arange(size)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    g = 0.5 * wt * op.K.values(2.75 * a + 0.25 * a * xi).real
    c = (2.0 * m + 1.0) * sign * (np.polynomial.legendre.legvander(xi, size - 1).T @ g)

    below = 0.5 / (2.0 * m + 1.0)  # S: entry i takes below[i - 1] v[i - 1]
    above = -0.5 / (2.0 * m + 3.0)  # and above[i] v[i + 1]

    def integral(v):
        out = np.empty_like(v)
        out[0] = below[0] * v[0]
        out[1:] = below[:-1] * v[:-1]
        out[:-1] += above[:-1] * v[1:]
        return out

    cols = np.zeros((n, size))  # cols[k] = b[:, k], kept from row k down
    cols[0] = integral(c)
    cols[1, 1:] = 2.0 * integral(cols[0])[1:] - cols[0, 1:]
    for k in range(1, n - 1):
        nxt = 2.0 * (2.0 * k + 1.0) * integral(cols[k]) + cols[k - 1]
        cols[k + 1, k + 1 :] = nxt[k + 1 :]
    p = np.arange(n)
    scale = 0.5 * a * sign[:n, None] * np.sqrt((2.0 * p + 1.0)[None, :] / (2.0 * p + 1.0)[:, None])
    A = np.tril(scale * cols[:, :n].T)
    return A + np.tril(A, -1).T


def project(op: FredholmOperator, f: PiecewiseFunction, n: int) -> np.ndarray:
    """Coefficients of f in the n-term orthonormal polynomial basis."""
    a = op.a
    xi, wi = _gauss(n + 8)
    x = 1.75 * a + 0.25 * a * xi
    w = 0.25 * a * wi
    return _orthobasis(a, n, x) @ (w * f.values(x))


def apply_discrete(op: FredholmOperator, f: PiecewiseFunction, n: int) -> PiecewiseFunction:
    """Image of f through the n-mode matrix, on the standard 513 grid.

    The independent route is ``apply``; agreement between the two is a
    discretization-quality check.
    """
    a = op.a
    coeff = nystrom(op, n) @ project(op, f, n)
    xs = np.linspace(1.5 * a, 2.0 * a, 513)
    samples = coeff @ _orthobasis(a, n, xs)
    return PiecewiseFunction([SampledSegment(Interval(1.5 * a, 2.0 * a), samples.astype(complex))])


def eigenpairs(op: FredholmOperator, n: int, count: int | None = None) -> list[EigenPair]:
    """Eigenpairs above the nonzero cutoff, by descending |eta|.

    Moduli within 1e-12 (relative) of each other count as tied, and a
    tie lists +eta before -eta, so a rounding change cannot swap a +-eta
    pair.

    Eigenvectors of the mode matrix are synthesized back to sampled
    functions, normalized to sup norm 1 with a nonnegative leading
    value.  Every returned residual is recomputed through ``apply``,
    independent of the matrix route.  ``count`` caps how many pairs are
    returned; each pair costs one direct-quadrature residual pass.
    """
    a = op.a
    A = nystrom(op, n)
    vals, vecs = np.linalg.eigh(A)
    top = float(np.max(np.abs(vals))) if len(vals) else 0.0
    keep = [m for m in range(len(vals)) if abs(vals[m]) > _ETA_CUTOFF * max(top, 1e-300)]
    if top == 0.0 or not keep:
        raise NoEigenvaluesError("operator has no eigenvalue above the cutoff")
    keep = _by_modulus(vals, keep)
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


def _by_modulus(vals: np.ndarray, idx: list[int]) -> list[int]:
    """The indices ``idx`` by descending |vals|, near-ties by descending value.

    A run of moduli, each within _ETA_TIE (relative) of the run's first,
    is one tie.
    """
    idx = sorted(idx, key=lambda m: -abs(vals[m]))
    out = []
    while idx:
        top = abs(vals[idx[0]])
        k = 1
        while k < len(idx) and top - abs(vals[idx[k]]) <= _ETA_TIE * top:
            k += 1
        out += sorted(idx[:k], key=lambda m: -vals[m])
        idx = idx[k:]
    return out


def reference_pair(a: float) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """The built-in analytic witness (h, e).

    h(x) = (6 pi^2 / a^2) cos(pi sqrt(10) (3 - x/a)) on (5a/2, 3a) and
    e(x) = cos(4 pi x / a) - cos(2 pi x / a) on (3a/2, 2a) satisfy
    M_h e = -e with e of zero mean, so (h, e, eta = -1) feeds the family
    construction for either boundary index.  Both are sampled at 2049
    nodes, which keeps the interpolation floor of h's tail integral below
    the 1e-10 accuracy the eigenvalue checks aim for.
    """
    if not 0.0 < a < PI / 3.0:
        raise PreconditionError(f"need a in (0, pi/3), got {a}")
    freq = PI * np.sqrt(10.0)
    h = sample_function(
        lambda x: (6.0 * PI**2 / a**2) * np.cos(freq * (3.0 - x / a)),
        [2.5 * a, 3.0 * a],
        2049,
    )
    e = sample_function(
        lambda x: np.cos(4.0 * PI * x / a) - np.cos(2.0 * PI * x / a),
        [1.5 * a, 2.0 * a],
        2049,
    )
    return h, e


def zero_mean(e: PiecewiseFunction) -> bool:
    """Whether e integrates to zero, within 1e-8 of its size times its span."""
    total = complex(integrate(e, e.lo, e.hi))
    scale = float(np.max(np.abs(e.all_samples())))
    return abs(total) <= 1e-8 * scale * (e.hi - e.lo)
