"""Characteristic functions for potentials confined to (a, 3a).

When the potential vanishes outside (a, 3a) and 3a < pi, the
successive-approximation series for the endpoint values terminates at
the second order, so each of the four boundary characteristic functions
Delta_{nu,j} collapses to a closed expression driven by one corrected
weight function w on (a, 3a) plus a single constant omega, the total
integral of the potential.  This module builds that data, evaluates the
closed forms on batches of spectral points, and provides the
independent stepping-solver route used to cross-validate them.

The weight equals the potential outside (3a/2, 5a/2); inside it picks
up a quadratic correction assembled from nested integrals of the
potential.  omega travels separately from w: for nu = 0 it is
recoverable as the integral of w, but for nu = 1 it is genuinely extra
data, which is what makes the nu = 1 constructions more delicate
downstream.

Every closed form needs one integral of w against a kernel.  These are
Filon-type product rules (Filon, Proc. R. Soc. Edinb. 49, 1928;
Iserles & Norsett, Proc. R. Soc. A 461, 2005): w's own piecewise cubic
is integrated against the kernel's exponentials exactly, cell by cell,
so the cost per spectral point does not grow with |lambda| and no
resampling of w is involved.  Near lambda = 0, where the 1/rho and 1/lam
factors of the kernels would cancel, a Maclaurin series in lambda built
from exact polynomial moments of w takes over, chosen per point from
|lambda| alone.  Each value is computed by operations on its own
spectral point only, so it is bit-identical alone and in any batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .delay_solver import (
    PI,
    DelaySetup,
    _p_on_pieces,
    _p_values,
    endpoint_values,
)
from .errors import DomainError, GridMismatchError, PreconditionError
from .gridfn import (
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    cumulative,
    integrate,
    _cell_coefficients,
)
from .kernels import ckernel, skernel

__all__ = ["CharData", "q_correction", "build_w", "delta_closed", "delta_direct"]


def _require_zero(q: PiecewiseFunction, lo: float, hi: float, what: str) -> None:
    """Check that q vanishes (to rounding) on the part of (lo, hi) it covers."""
    lo = max(lo, q.lo)
    hi = min(hi, q.hi)
    snap = 1e-9 * (1.0 + abs(hi))
    if hi - lo <= snap:
        return
    tol = 1e-12 * (1.0 + float(np.max(np.abs(q.all_samples()))))
    worst = 0.0
    for seg in q.segments:
        u = max(lo, seg.interval.lo)
        v = min(hi, seg.interval.hi)
        if v - u <= snap:
            continue
        if u - seg.interval.lo <= snap and seg.interval.hi - v <= snap:
            worst = max(worst, float(np.max(np.abs(seg.samples))))
        else:
            probe = np.linspace(u + snap, v - snap, 129)
            worst = max(worst, float(np.max(np.abs(seg.values(probe)))))
    if worst > tol:
        raise PreconditionError(f"potential must vanish a.e. on {what}; max magnitude {worst:.3g}")


def _validate_confined(q: PiecewiseFunction, a: float) -> None:
    if not a < PI / 3.0:
        raise PreconditionError(f"confined closed forms need a < pi/3, got a = {a}")
    if q.hi < 3.0 * a - 1e-9 * (1.0 + 3.0 * a):
        raise PreconditionError("potential grid must extend to 3a")
    _require_zero(q, 3.0 * a, q.hi, "(3a, pi)")


@dataclass(frozen=True)
class CharData:
    """Everything the closed forms need about one boundary value problem.

    ``setup`` supplies the delay and grid resolution; nu and j pick the
    boundary condition orders at 0 and pi.  omega is stored next to w
    because for nu = 1 the weight alone does not determine it.
    """

    setup: DelaySetup
    nu: int
    j: int
    omega: complex
    w: PiecewiseFunction

    def __post_init__(self):
        a = self.setup.a
        if not a < PI / 3.0:
            raise DomainError(f"confined closed forms need a < pi/3, got a = {a}")
        if self.nu not in (0, 1) or self.j not in (0, 1):
            raise DomainError("boundary indices nu, j must be 0 or 1")
        snap = 1e-9 * (1.0 + 3.0 * a)
        if abs(self.w.lo - a) > snap or abs(self.w.hi - 3.0 * a) > snap:
            raise DomainError("weight must live on (a, 3a)")
        bps = self.w.breakpoints()
        for point in (1.5 * a, 2.5 * a):
            if not np.any(np.abs(bps - point) <= snap):
                raise DomainError("weight grid must break at 3a/2 and 5a/2")
        if self.nu == 0:
            total = integrate(self.w, a, 3.0 * a)
            if abs(total - self.omega) > 1e-9 * (1.0 + abs(self.omega)):
                raise DomainError(
                    "for nu = 0 omega must equal the integral of w, "
                    f"got {self.omega} vs {total}"
                )

    def to_json(self) -> str:
        rows = [
            [float(x), float(v.real), float(v.imag)]
            for seg in self.w.segments
            for x, v in zip(seg.nodes(), seg.samples)
        ]
        payload = {
            "a": self.setup.a,
            "segment_nodes": self.setup.segment_nodes,
            "steps_per_delay": self.setup.steps_per_delay,
            "nu": self.nu,
            "j": self.j,
            "omega": [self.omega.real, self.omega.imag],
            "w": rows,
        }
        return json.dumps(payload, sort_keys=True)

    @cached_property
    def _rule(self) -> "_WeightRule":
        # the tables of w for delta_closed, built on first use
        return _WeightRule(self.w, self.setup.a)

    @staticmethod
    def from_json(text: str) -> "CharData":
        raw = json.loads(text)
        xs = [row[0] for row in raw["w"]]
        vs = [complex(row[1], row[2]) for row in raw["w"]]
        return CharData(
            DelaySetup(
                a=float(raw["a"]),
                nu=int(raw["nu"]),
                segment_nodes=int(raw["segment_nodes"]),
                steps_per_delay=int(raw["steps_per_delay"]),
            ),
            int(raw["nu"]),
            int(raw["j"]),
            complex(raw["omega"][0], raw["omega"][1]),
            assemble_segments(xs, vs),
        )


# ---------------------------------------------------------------------------
# weight construction


def q_correction(q: PiecewiseFunction, setup: DelaySetup, x: float) -> complex:
    """Correction the weight picks up at one point of (3a/2, 5a/2).

    The value is a difference of two nested integrals of q; it vanishes
    at both ends of the interval, so the corrected weight joins the
    plain potential continuously wherever q itself does.
    """
    a = setup.a
    _validate_confined(q, a)
    snap = 1e-9 * (1.0 + 3.0 * a)
    if not 1.5 * a - snap <= x <= 2.5 * a + snap:
        raise PreconditionError(f"correction point {x} outside (3a/2, 5a/2)")
    om = cumulative(q, a)
    # the correction is the triangle kernel P(3a, .) of the opposite index
    flipped = replace(setup, nu=1 - setup.nu)
    return complex(_p_values(q, flipped, om, 3.0 * a, np.array([float(x)]))[0])


def build_w(q: PiecewiseFunction, setup: DelaySetup) -> tuple[CharData, CharData]:
    """Weight data for both endpoint conditions j = 0, 1.

    The potential must vanish outside (a, 3a) and its grid must break at
    a, 3a/2, 5a/2 and 3a so segments never straddle the correction
    window.  The correction is computed on the lattice of spacing
    a/4096, so every breakpoint of q must be a multiple of it
    (GridMismatchError otherwise).  Both returned records share one
    weight function and one omega; only j differs.
    """
    a = setup.a
    _validate_confined(q, a)
    _require_zero(q, 0.0, a, "(0, a)")
    snap = 1e-9 * (1.0 + 3.0 * a)
    for point in (a, 1.5 * a, 2.5 * a, 3.0 * a):
        if not np.any(np.abs(q._bounds - point) <= snap):
            raise GridMismatchError(
                f"potential grid must break at {point} to carry the weight"
            )
    om = cumulative(q, a)
    # the correction is the triangle kernel P(3a, .) of the opposite index;
    # it kinks only at multiples of a/2, where grid_breakpoints grids break
    flipped = replace(setup, nu=1 - setup.nu)
    window = [
        seg
        for seg in q.segments
        if seg.interval.lo >= 1.5 * a - snap and seg.interval.hi <= 2.5 * a + snap
    ]
    corrections = iter(_p_on_pieces(q, flipped, om, 3.0 * a, [seg.nodes() for seg in window]))
    omega = complex(integrate(q, a, q.hi))
    segs = []
    for seg in q.segments:
        lo, hi = seg.interval.lo, seg.interval.hi
        if hi <= a + snap or lo >= 3.0 * a - snap:
            continue
        vals = seg.samples + next(corrections) if seg in window else seg.samples.copy()
        segs.append(SampledSegment(seg.interval, vals))
    w = PiecewiseFunction(segs)
    return (
        CharData(setup, setup.nu, 0, omega, w),
        CharData(setup, setup.nu, 1, omega, w),
    )


# ---------------------------------------------------------------------------
# evaluation


def delta_closed(data: CharData, lam, *, literal: bool = False):
    """Characteristic function values at spectral points (scalar or array).

    Each branch is a combination of ckernel/skernel values and one
    integral of w against a kernel (``_WeightRule.integrals``): the
    nu != j branches take skernel(lam, pi + a - 2x), nu = j = 1 takes
    ckernel(lam, pi + a - 2x), and the nu = j = 0 case defaults to a
    cancellation-free product form, skernel(lam, pi - x) skernel(lam,
    x - a), that stays accurate through lambda = 0.  ``literal=True``
    switches it to the textbook expression carrying a removable
    1/lambda; that path exists for cross-validation only and refuses
    small |lambda|.  The integrals are exact for w's own interpolant and
    every operation is elementwise in lambda, so a point's value is the
    same alone and in any batch.
    """
    lam = np.asarray(lam, dtype=complex)
    shape = lam.shape
    lamf = lam.ravel()
    a = data.setup.a
    omega = data.omega
    diag = data.nu == data.j
    if literal and diag:
        if data.nu == 1:
            raise DomainError("the literal form only exists for nu = j = 0")
        if np.any(np.abs(lamf) < 1e-6):
            raise DomainError("the literal diagonal form is singular near lambda = 0")
    rule = data._rule
    if not diag:
        sign = 1.0 if data.j == 0 else -1.0
        vals = (
            ckernel(lamf, PI)
            + 0.5 * omega * skernel(lamf, PI - a)
            + 0.5 * sign * rule.integrals(lamf, "s")
        )
    elif data.nu == 1:
        vals = (
            -lamf * skernel(lamf, PI)
            + 0.5 * omega * ckernel(lamf, PI - a)
            + 0.5 * rule.integrals(lamf, "c")
        )
    elif literal:
        vals = (
            skernel(lamf, PI)
            - 0.5 * omega * ckernel(lamf, PI - a) / lamf
            + 0.5 * rule.integrals(lamf, "c") / lamf
        )
    else:
        vals = skernel(lamf, PI) + rule.integrals(lamf, "ss")
    return vals.reshape(shape)[()]


# ---------------------------------------------------------------------------
# the weight integrals

_BLOCK = 64  # cells per block of an exponential sum
_PASS = 8  # spectral points per pass; keeps each array of a pass under 128 KiB
_MOMENT_TERMS = 20  # Taylor terms of M_m(zeta) for |zeta| < 1
# switch to the Maclaurin series in lam when |lam| (pi - a)^2 drops below this
SERIES_THRESHOLD = 1.0
_SERIES_TERMS = 12  # term k is below (|lam| (pi - a)^2)^k / (2k)! times the integral of |w|
_GAUSS_NODES = 14  # exact to degree 27: w's cubic times a series term, on each cell

# _TAYLOR[k, m] = 1 / (k! (m + k + 1)), the Taylor coefficients of M_m
_TAYLOR = np.array(
    [[1.0 / (math.factorial(k) * (m + k + 1)) for m in range(4)] for k in range(_MOMENT_TERMS)]
)


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre polynomial P_n from the usual cosine
    guesses; a fixed 8 steps reach rounding for the n used here.
    """
    t = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(t), t
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
        slope = n * (t * p - p_prev) / (t * t - 1.0)
        t = t - p / slope
    return 0.5 * (1.0 - t), 1.0 / ((1.0 - t * t) * slope * slope)


_GAUSS = _gauss_legendre(_GAUSS_NODES)


def _moments(zeta):
    """M_m(zeta), the integral of xi^m e^(zeta xi) over (0, 1), for m = 0..3.

    The values run along a new last axis.  |zeta| < 1 takes the Taylor
    series sum_k zeta^k / (k! (m + k + 1)); otherwise the forward
    recurrence M_m = (e^zeta - m M_(m-1)) / zeta, which loses at most a
    factor 3!/|zeta|^3 there.
    """
    out = np.empty(zeta.shape + (4,), dtype=complex)
    near = np.abs(zeta) < 1.0
    z = zeta[near]
    powers = np.ones((z.size, 1, _MOMENT_TERMS), dtype=complex)
    np.cumprod(
        np.broadcast_to(z[:, None], (z.size, _MOMENT_TERMS - 1)), axis=-1, out=powers[:, 0, 1:]
    )
    out[near] = (powers @ _TAYLOR)[:, 0]  # one (1, terms) @ (terms, 4) product per value
    if not np.all(near):
        z = zeta[~near]
        e = np.exp(z)
        acc = [(e - 1.0) / z]
        for m in range(1, 4):
            acc.append((e - m * acc[-1]) / z)
        out[~near] = np.stack(acc, axis=-1)
    return out


class _WeightRule:
    """Integrals of w's interpolant against the kernels of ``delta_closed``.

    With y = pi + a - 2x, every kernel is a combination of e^(+i rho y)
    and e^(-i rho y).  On a cell [x_c, x_c + h] w is the polynomial
    sum_m p_m xi^m of ``gridfn._cell_coefficients``, so

        integral of w(x) e^(s i rho y) over the cell
            = h e^(s i rho (pi + a - 2 x_c)) sum_m p_m M_m(-2 s i rho h),

    exactly.  Cells of one spacing form a group, cut into blocks of at
    most _BLOCK cells of one segment; in a block starting at X,
    e^(-2 s i rho x_c) = e^(-2 s i rho X) r^i with r = e^(-2 s i rho h),
    so the sums over every block are one product of the row of powers
    r^i with a table of coefficients, taken per point.  The 1/rho of
    skernel and the 1/lam of the product form are applied after the
    sums.  Where they would cancel, |lam| (pi - a)^2 < SERIES_THRESHOLD,
    the integrals come from their Maclaurin series in lam instead, whose
    coefficients are exact polynomial moments of w (Gauss-Legendre on
    each cell).  The choice depends on each point alone.
    """

    def __init__(self, w: PiecewiseFunction, a: float):
        self.a = a
        self.phi = PI + a
        self.span = PI - a  # the largest |y|, and (pi - x) + (x - a)
        coefs = [_cell_coefficients(seg.samples) for seg in w.segments]
        groups = {}  # spacing -> [(segment, cell coefficients)]
        for seg, coef in zip(w.segments, coefs):
            h = next((g for g in groups if abs(g - seg.spacing) <= 1e-12 * g), seg.spacing)
            groups.setdefault(h, []).append((seg, coef))
        # per group: its columns of the power row and its table, with
        # table[i, 4 b + m] = h p_m of cell i of block b; per block: its
        # group and pi + a - 2 X
        steps, self.tables, block_group, starts = [], [], [], []
        for g, (h, members) in enumerate(groups.items()):
            size = min(_BLOCK, max(coef.shape[0] for _, coef in members))
            blocks = []
            for seg, coef in members:
                count = -(-coef.shape[0] // size)
                padded = np.zeros((count * size, 4), dtype=complex)
                padded[: coef.shape[0]] = h * coef
                blocks.append(padded.reshape(count, size, 4))
                starts.append(seg.interval.lo + size * seg.spacing * np.arange(count))
                block_group += [g] * count
            table = np.concatenate(blocks).transpose(1, 0, 2).reshape(size, -1)
            # the complex product in real arithmetic: (re, im) pairs of the
            # powers times this table give (re, im) pairs of the sums
            real = np.empty((2 * size, 2 * table.shape[1]))
            real[0::2, 0::2], real[1::2, 1::2] = table.real, table.real
            real[0::2, 1::2], real[1::2, 0::2] = table.imag, -table.imag
            first = 2 * sum(s.size for s in steps)
            steps.append(-2.0 * h * np.arange(size))
            self.tables.append((slice(first, first + 2 * size), real))
        self.power_steps = np.concatenate(steps)
        self.moment_steps = -2.0 * np.array(list(groups))
        self.block_group = np.array(block_group)
        self.offsets = self.phi - 2.0 * np.concatenate(starts)

        xi, wt = _GAUSS
        xs, ws = [], []
        for seg, coef in zip(w.segments, coefs):
            left = seg.nodes()[:-1]
            xs.append((left[:, None] + seg.spacing * xi).ravel())
            ws.append((seg.spacing * wt * (coef @ xi[None, :] ** np.arange(4)[:, None])).ravel())
        self.gauss_x = np.concatenate(xs)
        self.gauss_w = np.concatenate(ws)
        self.total = complex(np.sum(self.gauss_w))  # the integral of w
        self._maclaurin = {}

    def integrals(self, lam: np.ndarray, kind: str) -> np.ndarray:
        """The integral of w(x) K(lam, x) over (a, 3a) at each point of a 1-D lam.

        K is ckernel(lam, y) for kind "c", skernel(lam, y) for "s" (y =
        pi + a - 2x) and skernel(lam, pi - x) skernel(lam, x - a) for "ss".
        """
        out = np.empty(lam.shape, dtype=complex)
        small = np.abs(lam) * self.span**2 < SERIES_THRESHOLD
        if np.any(small):
            coeffs = self._series_coefficients(kind)
            ls = lam[small]
            acc = np.zeros(ls.shape, dtype=complex)
            for c in coeffs[::-1]:
                acc = acc * (-ls) + c
            out[small] = acc
        if not np.all(small):
            out[~small] = self._oscillatory(lam[~small], kind)
        return out

    def _oscillatory(self, lam, kind):
        rho = np.sqrt(lam)
        irho = 1j * rho[:, None] * np.array([1.0, -1.0])  # s i rho, s = +1, -1
        mom = _moments(irho[..., None] * self.moment_steps)
        t = np.empty(irho.shape, dtype=complex)
        for lo in range(0, lam.size, _PASS):
            part = slice(lo, lo + _PASS)
            powers = np.exp(irho[part, :, None] * self.power_steps).view(float)
            # one real (2, 2 size) @ (2 size, 8 x blocks) product per point
            # and group, so every point takes the same arithmetic whatever
            # its batch
            sums = np.concatenate([powers[..., cols] @ table for cols, table in self.tables], -1)
            sums = sums.view(complex).reshape(sums.shape[0], 2, -1, 4)
            cells = np.sum(sums * mom[part][:, :, self.block_group], axis=-1)
            phase = np.exp(irho[part, :, None] * self.offsets)
            t[part] = np.sum(phase * cells, axis=-1)
        cos_part = 0.5 * (t[:, 0] + t[:, 1])
        if kind == "c":
            return cos_part
        if kind == "s":
            return (t[:, 0] - t[:, 1]) / (2j * rho)
        # sin(rho (pi - x)) sin(rho (x - a)) = (cos(rho y) - cos(rho (pi - a))) / 2
        return (cos_part - ckernel(lam, self.span) * self.total) / (2.0 * lam)

    def _series_coefficients(self, kind):
        """G_n with the integral equal to sum_n (-lam)^n G_n, n < _SERIES_TERMS."""
        if kind not in self._maclaurin:
            y = self.phi - 2.0 * self.gauss_x
            if kind == "ss":
                terms = self._product_terms(y)
            else:
                terms = _kernel_terms(y, 1 if kind == "s" else 0)
            wr, wi = self.gauss_w.real, self.gauss_w.imag
            self._maclaurin[kind] = np.array([t @ wr + 1j * (t @ wi) for t in terms])
        return self._maclaurin[kind]

    def _product_terms(self, y):
        """Maclaurin terms in -lam of skernel(lam, pi - x) skernel(lam, x - a).

        The product is (ckernel(lam, y) - ckernel(lam, L)) / (2 lam) with
        L = pi - a, so term n is (L^(2n+2) - y^(2n+2)) / (2 (2n+2)!), taken
        as 2 (pi - x)(x - a) sum_(i <= n) y^(2i) L^(2(n-i)) / (2n+2)!:
        (pi - x)(x - a) = (L^2 - y^2) / 4, and no term cancels.
        """
        x = self.gauss_x
        scale = 2.0 * (PI - x) * (x - self.a)
        power, part = np.ones_like(y), np.ones_like(y)
        for n in range(_SERIES_TERMS):
            if n:
                power = power * (y * y)
                part = part * self.span**2 + power
            yield scale * part / math.factorial(2 * n + 2)


def _kernel_terms(y, odd: int):
    """Maclaurin terms in -lam of skernel(lam, y) (odd = 1) or ckernel(lam, y) (odd = 0).

    Term n is y^(2n + odd) / (2n + odd)!, for n < _SERIES_TERMS.
    """
    term = y if odd else np.ones_like(y)
    for n in range(_SERIES_TERMS):
        if n:
            k = 2 * n + odd
            term = term * (y * y / ((k - 1) * k))
        yield term


def delta_direct(q: PiecewiseFunction, setup: DelaySetup, j: int, lam):
    """The same characteristic values from the stepping solver.

    Works for any delay in (0, pi) and any potential vanishing on
    (0, a); no confinement to (a, 3a) is assumed.  Potentials sampled on
    a shorter range are zero-extended to pi.
    """
    if j not in (0, 1):
        raise DomainError(f"j must be 0 or 1, got {j}")
    _require_zero(q, 0.0, setup.a, "(0, a)")
    ys, yps = endpoint_values(q, setup, 1 - setup.nu, lam)
    return (ys if j == 0 else yps)[()]
