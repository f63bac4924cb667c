"""Piecewise sampled functions on uniform grids.

Everything downstream (potentials, solution traces, weight functions)
lives on the same substrate: a function is a list of abutting segments,
each sampled on a uniform grid that includes both endpoints.  Values at
interior breakpoints are intentionally double-stored, one sample per
side, so jump discontinuities survive serialization and evaluation
picks a well-defined one-sided value.

Conventions:

* segment sample counts are odd and at least 5: three samples are
  stored as the five samples of the quadratic through them, at half the
  spacing, which the cubic below reproduces exactly;
* evaluation at an interior breakpoint returns the right segment's value;
* evaluation on a node (to 1e-9 spacings) returns the stored sample, and
  forms no interpolant when every point is a node;
* evaluation between nodes is 4-point (cubic) Lagrange interpolation and
  never reaches across a breakpoint;
* integration is a composite interpolatory rule, exact for the cubic
  interpolant on every cell, so splitting a range at an arbitrary point
  changes the result only by float reassociation.

Integrals of a product f(s) g(s + shift) come in two forms.  The
pointwise ``shifted_product_integrals`` splits each range at both
factors' breakpoints and runs one composite-Simpson plan per shift; it
takes any shifts and any upper limits.  The lattice rule
``lattice_product_integrals`` takes a spacing delta that divides every
breakpoint, and shifts that are integer multiples of delta: it puts one
Simpson panel on each lattice cell [k delta, (k+1) delta], so every
breakpoint of either factor, shifted or not, sits on a panel edge, and
all shifts share one set of nodes.  The sum over nodes is then a
discrete correlation, computed for every shift at once by FFT.  Both
factors are read on the half lattice (spacing delta / 2) by
``_on_steps``, not point by point: where a segment's spacing is a whole
number R of half-lattice steps, every node sits at one of R fixed
offsets inside its cell, so the cubic is one 4-tap stencil per offset
over the samples.  Every shift reads an even lag of the correlation,
so it runs as two half-length correlations, of the even and of the odd
nodes, summed before one inverse FFT of a 2^i 3^j 5^k length.  Only
the live spans are correlated: the cells where f is non-zero and can
meet g's non-zero part at some shift, and the nodes of g those cells
reach.  The rest adds exact zeros, so the FFT length is set by the
sizes of the two spans, not by the range and the shift window.

Four numerical jobs have their one implementation here, private to the
package: cubic interpolation of uniform samples (``_cubic`` at any
points, ``_on_steps`` on a uniform run of them), a function's left and
right limits on a node set (``_sided_values``), the check that a
potential vanishes on an interval (``_require_zero``) and the
Gauss-Legendre rule (``_gauss``, built on first use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, PreconditionError

__all__ = [
    "Interval",
    "SampledSegment",
    "PiecewiseFunction",
    "integrate",
    "cumulative",
    "sample_function",
    "simpson_rule",
    "piecewise_quad",
    "shifted_product_integrals",
    "lattice_product_integrals",
    "assemble_segments",
    "write_csv",
    "read_csv",
]

_NODE_SNAP = 1e-9  # in units of one grid spacing


def _cell_matrices():
    """Monomial conversion and quadrature tables for the three stencil types.

    A cell [x_j, x_j+1] borrows a 4-node stencil starting ``base`` nodes
    to its left (base = 0 first cell, 1 interior, 2 last cell).  In cell
    coordinates xi in [0, 1] the stencil nodes sit at xi = -base ... 3-base.
    """
    inv = {}
    full = {}
    for base in (0, 1, 2):
        pts = np.arange(4, dtype=float) - base
        v = np.vander(pts, 4, increasing=True)
        vinv = np.linalg.inv(v)
        inv[base] = vinv
        full[base] = np.array([1.0, 0.5, 1.0 / 3.0, 0.25]) @ vinv
    return inv, full


_VINV, _FULL_W = _cell_matrices()
# the weights of the first and the last cell side by side, per stencil node
_END_W = np.stack([_FULL_W[0], _FULL_W[2]], axis=1)


def _partial_weights(base, xa, xb):
    """Stencil weights for the exact integral of the cell cubic over [xa, xb]."""
    powa = np.array([xa, xa**2 / 2.0, xa**3 / 3.0, xa**4 / 4.0])
    powb = np.array([xb, xb**2 / 2.0, xb**3 / 3.0, xb**4 / 4.0])
    return (powb - powa) @ _VINV[base]


def _lagrange4(xi):
    """Cubic Lagrange weights of stencil nodes 0..3 at offset xi (scalar or array)."""
    return (
        -(xi - 1.0) * (xi - 2.0) * (xi - 3.0) / 6.0,
        xi * (xi - 2.0) * (xi - 3.0) / 2.0,
        -xi * (xi - 1.0) * (xi - 3.0) / 2.0,
        xi * (xi - 1.0) * (xi - 2.0) / 6.0,
    )


def _cubic(samples, u):
    """4-point Lagrange interpolation of uniform samples at fractional indices u.

    The samples run along the last axis.  Each point uses the stencil
    around its cell, shifted inwards at both ends; needs at least 4
    samples.
    """
    n = samples.shape[-1]
    cell = np.minimum(np.maximum(np.floor(u).astype(int), 0), n - 2)
    j0 = np.minimum(np.maximum(cell - 1, 0), n - 4)
    w = _lagrange4(u - j0)
    return (
        samples[..., j0] * w[0]
        + samples[..., j0 + 1] * w[1]
        + samples[..., j0 + 2] * w[2]
        + samples[..., j0 + 3] * w[3]
    )


@lru_cache(maxsize=16)
def _gauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count, read-only."""
    xi, wt = np.polynomial.legendre.leggauss(count)
    xi.flags.writeable = False
    wt.flags.writeable = False
    return xi, wt


def _cell_integrals(samples, spacing, out=None, work=None):
    """Integral of the cubic interpolant over each cell, along the last axis.

    Each cell uses the 4-node stencil of ``SampledSegment`` (shifted
    inwards at both ends), so a row needs at least 4 samples.  The
    stencil weights are written out as sums, never as a matrix product.
    The rows are read as one flat C-contiguous buffer (a strided input
    is copied first): the interior cells of all rows are one 4-tap
    stencil over it, and the 3 values it takes across each row junction
    are dropped, so every row of a 2-D call is bit-identical to the 1-D
    call on that row.  ``out`` (one column per cell) may be given, and
    ``work``, a pair of flat arrays of at least as many entries as the
    samples, for the stencil's sums and its products (either may be
    None, and is then allocated).
    """
    s = np.asarray(samples)
    n = s.shape[-1]
    if out is None:
        out = np.empty(s.shape[:-1] + (n - 1,), dtype=complex)
    flat = np.ascontiguousarray(s).reshape(-1)
    acc, tmp = work if work is not None else (None, None)
    acc = np.empty(flat.size, dtype=complex) if acc is None else acc[: flat.size]
    tmp = np.empty(flat.size, dtype=complex) if tmp is None else tmp[: flat.size]
    # interior cell c starts its stencil at node c - 1: one stencil over
    # the flat buffer, whose last 3 values of every row are junk
    size = flat.size - 3
    o, t = acc[:size], tmp[:size]
    w = _FULL_W[1]
    np.multiply(w[0], flat[:size], out=o)
    for j in (1, 2, 3):
        np.multiply(w[j], flat[j : j + size], out=t)
        o += t
    o *= spacing
    # the first and the last cell side by side: their stencils start n - 4
    # nodes apart (on the same nodes for n = 4), so node j of both is one
    # strided slice of s
    ends = out[..., 0 : n - 1 : n - 2]
    t = tmp[: ends.size].reshape(ends.shape)
    np.multiply(_END_W[0], s[..., 0 : n - 3 : max(n - 4, 1)], out=ends)
    for j in (1, 2, 3):
        np.multiply(_END_W[j], s[..., j : j + n - 3 : max(n - 4, 1)], out=t)
        ends += t
    ends *= spacing
    out[..., 1 : n - 2] = acc.reshape(s.shape)[..., : n - 3]
    return out


def _cell_weights(n):
    """Weights at unit spacing of the sum of ``_cell_integrals`` over n >= 4 samples."""
    w = np.zeros(n)
    w[:4] += _FULL_W[0]
    w[n - 4 :] += _FULL_W[2]
    for j, cw in enumerate(_FULL_W[1]):
        w[j : j + n - 3] += cw
    return w


def _cell_coefficients(samples) -> np.ndarray:
    """Monomial coefficients of the interpolant on each cell of a segment.

    Row c holds (p0, p1, p2, p3) with the interpolant on cell c equal to
    sum_m p_m xi^m, xi = (x - x_c) / spacing in [0, 1]: the cubic of the
    4-node stencil ``SampledSegment.values`` uses (at least 4 samples).
    """
    s = np.asarray(samples, dtype=complex)
    n = s.shape[0]
    base = np.ones(n - 1, dtype=int)
    base[0], base[-1] = 0, 2
    stencils = s[(np.arange(n - 1) - base)[:, None] + np.arange(4)]
    vinv = np.stack([_VINV[b] for b in (0, 1, 2)])[base]
    return np.einsum("cmk,ck->cm", vinv, stencils)


def _stencil(cell, count):
    """(start index, stencil type) for a cell index on a count-node grid."""
    if cell <= 0:
        return 0, 0
    if cell >= count - 2:
        return count - 4, 2
    return cell - 1, 1


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with positive length."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DomainError("interval endpoints must be finite")
        if not self.hi > self.lo:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


class SampledSegment:
    """One uniform-grid segment: odd sample count >= 5, endpoints included.

    Three samples are taken as the quadratic through them and stored as
    its five samples at half the spacing, whose cubic interpolant is that
    quadratic; the new middle samples are exact for a constant.
    """

    __slots__ = ("interval", "samples", "spacing")

    def __init__(self, interval: Interval, samples):
        samples = np.array(samples, dtype=complex)  # a copy: no caller can write it
        if samples.ndim != 1:
            raise DomainError("segment samples must be one-dimensional")
        n = samples.shape[0]
        if n < 3 or n % 2 == 0:
            raise DomainError(f"segment sample count must be odd and >= 3, got {n}")
        if n == 3:
            s0, s1, s2 = samples
            d0, d2 = s0 - s1, s2 - s1
            # the quadratic at a quarter and three quarters of the interval:
            # (3 s0 + 6 s1 - s2) / 8 and (-s0 + 6 s1 + 3 s2) / 8
            samples = np.array([s0, s1 + (3.0 * d0 - d2) / 8.0, s1, s1 + (3.0 * d2 - d0) / 8.0, s2])
            n = 5
        self.interval = interval
        self.samples = samples
        self.samples.flags.writeable = False
        self.spacing = interval.length / (n - 1)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    def nodes(self) -> np.ndarray:
        return self.interval.lo + self.spacing * np.arange(self.count)

    def values(self, x) -> np.ndarray:
        """Cubic Lagrange interpolation; exact at nodes, one segment only.

        A point within 1e-9 spacings (relative) of a node is that node's
        stored sample; when every point is one, no interpolant is formed.
        """
        x = np.asarray(x, dtype=float)
        n = self.count
        u = (x - self.interval.lo) / self.spacing
        k = np.rint(u).astype(int)
        on_node = (np.abs(u - k) <= _NODE_SNAP * (1.0 + np.abs(u))) & (k >= 0) & (k < n)
        if on_node.all():
            return np.asarray(self.samples[k])
        out = _cubic(self.samples, u)
        if on_node.any():
            out = np.where(on_node, self.samples[np.minimum(np.maximum(k, 0), n - 1)], out)
        return out

    def integrate_range(self, u, v) -> complex:
        """Exact integral of the per-cell cubic interpolant over [u, v]."""
        lo = self.interval.lo
        h = self.spacing
        n = self.count
        ua = (u - lo) / h
        ub = (v - lo) / h
        ca = min(max(int(np.floor(ua)), 0), n - 2)
        kb = int(np.floor(ub))
        if ub - kb <= _NODE_SNAP:
            kb -= 1  # v sits on a node: the cell above it contributes nothing
        cb = min(max(kb, ca), n - 2)
        total = 0.0 + 0.0j
        w = np.zeros(n)
        for cell in (ca, cb) if cb > ca else (ca,):
            st, base = _stencil(cell, n)
            xa = max(ua - cell, 0.0) if cell == ca else 0.0
            xb = min(ub - cell, 1.0) if cell == cb else 1.0
            w[st : st + 4] += _partial_weights(base, xa, xb)
        # the whole cells ca + 1 .. cb - 1 between them, all interior (1 .. n - 3)
        if cb > ca + 1:
            for off, cw in enumerate(_FULL_W[1]):
                w[ca + off : cb - 1 + off] += cw
        total += np.dot(w, self.samples)
        return total * h

    def cell_integrals(self) -> np.ndarray:
        """Integral of the interpolant over each of the count-1 cells."""
        return _cell_integrals(self.samples, self.spacing)


class PiecewiseFunction:
    """Ordered, abutting sampled segments forming one function."""

    __slots__ = ("segments", "_bounds")

    def __init__(self, segments):
        segments = tuple(segments)
        if not segments:
            raise DomainError("need at least one segment")
        for left, right in zip(segments, segments[1:]):
            if abs(left.interval.hi - right.interval.lo) > 1e-12 * (
                1.0 + abs(left.interval.hi)
            ):
                raise DomainError(
                    f"segments not contiguous at {left.interval.hi} vs {right.interval.lo}"
                )
        self.segments = segments
        self._bounds = np.array([s.interval.lo for s in segments] + [segments[-1].interval.hi])

    @property
    def lo(self) -> float:
        return self.segments[0].interval.lo

    @property
    def hi(self) -> float:
        return self.segments[-1].interval.hi

    def breakpoints(self) -> np.ndarray:
        """Interior segment boundaries."""
        return self._bounds[1:-1].copy()

    def values(self, x) -> np.ndarray:
        """Evaluate at an array of points; breakpoints use the right segment."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).astype(float)
        slack = 1e-12 * (1.0 + max(abs(self.lo), abs(self.hi)))
        if (xf < self.lo - slack).any() or (xf > self.hi + slack).any():
            bad = xf[(xf < self.lo - slack) | (xf > self.hi + slack)][0]
            raise DomainError(f"{bad} outside [{self.lo}, {self.hi}]")
        idx = np.searchsorted(self._bounds, xf, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), len(self.segments) - 1)
        first, last = (idx.min(), idx.max()) if xf.size else (0, -1)
        if first == last:
            out = self.segments[first].values(xf)
        else:
            out = np.empty(xf.shape, dtype=complex)
            for k in range(first, last + 1):
                sel = idx == k
                if sel.any():
                    out[sel] = self.segments[k].values(xf[sel])
        return out[0] if scalar else out

    def nodes(self) -> np.ndarray:
        """All sample abscissae, segment by segment (breakpoints duplicated)."""
        return np.concatenate([s.nodes() for s in self.segments])

    def all_samples(self) -> np.ndarray:
        return np.concatenate([s.samples for s in self.segments])

    def _zip(self, other, op):
        if not isinstance(other, PiecewiseFunction):
            raise GridMismatchError("expected a PiecewiseFunction")
        if len(self.segments) != len(other.segments) or any(
            a.count != b.count
            or abs(a.interval.lo - b.interval.lo) > 1e-12
            or abs(a.interval.hi - b.interval.hi) > 1e-12
            for a, b in zip(self.segments, other.segments)
        ):
            raise GridMismatchError("segment structures differ")
        return PiecewiseFunction(
            SampledSegment(a.interval, op(a.samples, b.samples))
            for a, b in zip(self.segments, other.segments)
        )

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __mul__(self, factor):
        if isinstance(factor, PiecewiseFunction):
            return self._zip(factor, np.multiply)
        return PiecewiseFunction(
            SampledSegment(s.interval, s.samples * factor) for s in self.segments
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def shift_values(self, offset: float) -> "PiecewiseFunction":
        """Add a constant to every sample."""
        return PiecewiseFunction(
            SampledSegment(s.interval, s.samples + offset) for s in self.segments
        )

    def map_samples(self, fn) -> "PiecewiseFunction":
        return PiecewiseFunction(
            SampledSegment(s.interval, fn(s.samples, s.nodes())) for s in self.segments
        )


def integrate(f: PiecewiseFunction, lo: float, hi: float) -> complex:
    """Integral of f over [lo, hi] (sign-flipped when hi < lo).

    Cells are integrated exactly against their cubic interpolant, so the
    rule is 4th-order accurate, linear in f to rounding, and additive
    under splitting at arbitrary interior points.
    """
    if hi < lo:
        return -integrate(f, hi, lo)
    slack = 1e-12 * (1.0 + max(abs(f.lo), abs(f.hi)))
    if lo < f.lo - slack or hi > f.hi + slack:
        raise DomainError(f"range [{lo}, {hi}] outside [{f.lo}, {f.hi}]")
    if hi == lo:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for seg in f.segments:
        u = max(lo, seg.interval.lo)
        v = min(hi, seg.interval.hi)
        if v - u > 0.0:
            total += seg.integrate_range(u, v)
    return total


def cumulative(f: PiecewiseFunction, anchor: float) -> PiecewiseFunction:
    """Antiderivative of f vanishing at ``anchor``, on f's own grid.

    Node values accumulate the exact per-cell integrals, so evaluating the
    result at any node reproduces ``integrate(f, anchor, node)`` to
    rounding; between nodes it interpolates (O(h^4)).
    """
    segs = []
    carry = 0.0 + 0.0j
    for seg in f.segments:
        vals = np.empty(seg.count, dtype=complex)
        vals[0] = carry
        vals[1:] = carry + np.cumsum(seg.cell_integrals())
        carry = vals[-1]
        segs.append(SampledSegment(seg.interval, vals))
    g = PiecewiseFunction(segs)
    base = g.values(anchor)
    return g.shift_values(-base)


def sample_function(fn, breakpoints, count: int) -> PiecewiseFunction:
    """Sample a callable on each [b_k, b_k+1] with ``count`` nodes per segment.

    ``fn`` must accept an ndarray of abscissae.  One-sided values at the
    breakpoints are whatever ``fn`` returns there; pass a callable with
    the intended one-sided convention if the function jumps.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    if breakpoints.ndim != 1 or breakpoints.size < 2:
        raise DomainError("need at least two breakpoints")
    segs = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        iv = Interval(float(lo), float(hi))
        x = np.linspace(iv.lo, iv.hi, count)
        segs.append(SampledSegment(iv, np.asarray(fn(x), dtype=complex)))
    return PiecewiseFunction(segs)


def simpson_rule(breakpoints, spacing_hint: float):
    """Composite-Simpson nodes/weights over abutting pieces.

    Each piece [b_k, b_k+1] gets an odd node count matching the supplied
    spacing hint (at least 9).  Returns (x, w) suitable for
    integrating any product of functions smooth inside each piece.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    xs = []
    ws = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        length = hi - lo
        if length <= 0.0:
            continue
        n = max(9, int(np.ceil(length / spacing_hint)) + 1)
        if n % 2 == 0:
            n += 1
        x = np.linspace(lo, hi, n)
        h = length / (n - 1)
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        xs.append(x)
        ws.append(w * (h / 3.0))
    if not xs:
        raise DomainError("empty quadrature range")
    return np.concatenate(xs), np.concatenate(ws)


def piecewise_quad(fn: PiecewiseFunction, breakpoints, spacing_hint: float):
    """Composite-Simpson plan with side-correct values of ``fn``.

    Returns (x, w, v).  Pieces must not straddle fn's own breakpoints;
    each piece is evaluated through the single segment containing it, so
    nodes landing on a jump take the value from the piece's own side
    (plain ``values`` would always pick the right-hand segment).
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    xs, ws, vs = [], [], []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi - lo <= 0.0:
            continue
        x, w = simpson_rule([lo, hi], spacing_hint)
        mid = 0.5 * (lo + hi)
        k = int(np.searchsorted(fn._bounds, mid, side="right")) - 1
        k = min(max(k, 0), len(fn.segments) - 1)
        seg = fn.segments[k]
        if not (seg.interval.lo - 1e-9 <= lo and hi <= seg.interval.hi + 1e-9):
            raise GridMismatchError(
                f"piece [{lo}, {hi}] straddles a breakpoint of the integrand"
            )
        xs.append(x)
        ws.append(w)
        vs.append(seg.values(x))
    if not xs:
        raise DomainError("empty quadrature range")
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(vs)


def _breaks(points, lo: float, hi: float) -> np.ndarray:
    """Sorted cut points: lo, hi and the points strictly inside (lo, hi).

    Of points closer together than 1e-9 only the last is kept.
    """
    points = np.asarray(points, dtype=float)
    inside = points[(lo + 1e-12 < points) & (points < hi - 1e-12)]
    pts = np.unique(np.concatenate([[lo, hi], inside]))
    return pts[np.append(np.diff(pts) > 1e-9, True)]


def shifted_product_integrals(
    f: PiecewiseFunction, g: PiecewiseFunction, shifts, lo: float, his, spacing: float
) -> np.ndarray:
    """out[i] = integral of f(s) g(s + shifts[i]) over s in (lo, his[i]).

    Each range is split at f's breakpoints and at g's breakpoints moved
    back by the shift, so no piece straddles a breakpoint of either
    factor; every piece gets a composite-Simpson rule of about
    ``spacing`` (``piecewise_quad``).  f may jump, since its values are
    taken side-correctly; g is read through ``values`` and so must be
    continuous.  ``shifts`` and ``his`` broadcast to one 1-D array of
    points; a range no longer than 1e-9 integrates to 0.
    """
    shifts, his = np.broadcast_arrays(np.asarray(shifts, dtype=float), np.asarray(his, dtype=float))
    fb, gb = f.breakpoints(), g.breakpoints()
    out = np.zeros(shifts.shape, dtype=complex)
    for i, (shift, hi) in enumerate(zip(shifts, his)):
        if hi - lo <= 1e-9:
            continue
        s, w, fv = piecewise_quad(f, _breaks(np.concatenate([fb, gb - shift]), lo, hi), spacing)
        out[i] = np.dot(w, fv * g.values(s + shift))
    return out


def _require_on_lattice(x: float, delta: float, what: str) -> None:
    u = x / delta
    if abs(u - round(u)) > _NODE_SNAP * (1.0 + abs(u)):
        raise GridMismatchError(f"{what} {x} is not a multiple of the lattice spacing {delta}")


def _sided_values(f: PiecewiseFunction, x) -> tuple[np.ndarray, np.ndarray]:
    """f's left and right limits at the ascending nodes x (two or more).

    Both are ``f.values(x)`` except at the node nearest an interior
    breakpoint, when within 1e-9 (relative) of it: there they are the
    last sample of the segment before and the first of the segment after,
    read off the segments, so a node one rounding below a breakpoint
    still gets the right side of the jump as its right limit.
    """
    x = np.asarray(x, dtype=float)
    right = f.values(x)
    left = right.copy()
    for b, seg, nxt in zip(f.breakpoints(), f.segments[:-1], f.segments[1:]):
        i = int(np.searchsorted(x, b))
        if i == x.size or (i > 0 and b - x[i - 1] < x[i] - b):
            i -= 1
        if abs(x[i] - b) <= 1e-9 * max(1.0, abs(b)):
            left[i], right[i] = seg.samples[-1], nxt.samples[0]
    return left, right


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


def _segment_on_steps(seg: SampledSegment, x0: float, step: float, count: int) -> np.ndarray:
    """seg at x0 + step j for j < count, every point inside seg's interval.

    When seg's spacing is a whole number R of steps (R >= 1), every point
    sits at one of R fixed offsets inside its cell, and the interpolant of
    ``SampledSegment.values`` is read off a (cells x R) table, one 4-tap
    stencil per offset (interior, first-cell and last-cell) applied as
    four broadcast products.  A point on a node is the stored sample.
    Any other spacing goes through ``SampledSegment.values``.  An
    all-zero segment reads as zeros with no table.
    """
    if not seg.samples.any():
        return np.zeros(count, dtype=complex)
    n = seg.count
    ratio = seg.spacing / step
    r = round(ratio)
    if r < 1 or abs(ratio - r) > _NODE_SNAP * ratio:
        return seg.values(x0 + step * np.arange(count))
    # point j sits i0 + j + phase steps above the segment's first node
    c = (x0 - seg.interval.lo) / step
    i0 = math.floor(c + _NODE_SNAP * (1.0 + abs(c)))
    phase = c - i0
    if phase <= _NODE_SNAP * (1.0 + abs(c)):
        phase = 0.0
    # the cells ca .. last hold every point but one on the upper node
    cb = (i0 + count - 1) // r
    ca, last = min(i0 // r, n - 2), min(cb, n - 2)
    xi = (np.arange(r) + phase) / r
    s = seg.samples
    table = np.empty((last - ca + 1, r), dtype=complex)
    # interior cells c in [c0, c1) borrow nodes c - 1 .. c + 2
    c0, c1 = max(ca, 1), min(last + 1, n - 2)
    if c1 > c0:
        w = _lagrange4(1.0 + xi)
        body = table[c0 - ca : c1 - ca]
        np.multiply(s[c0 - 1 : c1 - 1, None], w[0], out=body)
        for k in (1, 2, 3):
            body += s[c0 - 1 + k : c1 - 1 + k, None] * w[k]
    if ca == 0:
        table[0] = s[:4] @ np.array(_lagrange4(xi))
    if last == n - 2:
        table[-1] = s[n - 4 :] @ np.array(_lagrange4(2.0 + xi))
    if phase == 0.0:
        table[:, 0] = s[ca : last + 1]
    out = table.reshape(-1)[i0 - ca * r : i0 - ca * r + count]
    if cb > last:  # the last point is the segment's upper node
        out = np.append(out, s[-1])
    return out


def _on_steps(f: PiecewiseFunction, x0: float, step: float, count: int) -> np.ndarray:
    """f at x0 + step j for j = 0 .. count - 1, and 0 outside f's domain.

    A point within 1e-9 steps (relative) of a breakpoint counts as on it,
    and takes the right segment's value there; a point as close outside
    a domain edge counts as on that edge.  Each segment's points are read
    by ``_segment_on_steps``, so x0 need not lie on any grid.
    """
    out = np.zeros(count, dtype=complex)
    pos = (f._bounds - x0) / step
    tol = _NODE_SNAP * (1.0 + np.abs(pos))
    # segment k holds the points first[k] <= j < first[k + 1]; the last
    # segment keeps its upper end
    first = np.ceil(pos - tol)
    first[-1] = np.floor(pos[-1] + tol[-1]) + 1.0
    first = np.minimum(np.maximum(first, 0), count).astype(np.int64)
    for seg, ja, jb in zip(f.segments, first[:-1], first[1:]):
        if jb > ja:
            out[ja:jb] = _segment_on_steps(seg, x0 + step * ja, step, int(jb - ja))
    return out


def _fft_length(n: int) -> int:
    """The least 2^i 3^j 5^k >= n: a length numpy's FFT runs at full speed."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _require_no_jump(g: PiecewiseFunction, lo: float, hi: float) -> None:
    """Check that g, read as 0 outside its domain, does not jump inside (lo, hi).

    A jump is a difference above 1e-9 of max|g| between the two sides of
    an interior breakpoint, or a non-zero value at a domain edge.  An
    interior breakpoint at hi counts too: a node there reads g's right
    side for the cell below it.
    """
    tol = 1e-9 * float(np.max(np.abs(g.all_samples())))
    snap = _NODE_SNAP * (1.0 + abs(lo) + abs(hi))
    first, final = g.segments[0], g.segments[-1]
    sides = [(g.lo, first.samples[0], hi - snap), (g.hi, final.samples[-1], hi - snap)]
    sides += [
        (b, left.samples[-1] - right.samples[0], hi + snap)
        for b, left, right in zip(g.breakpoints(), g.segments[:-1], g.segments[1:])
    ]
    for x, jump, top in sides:
        if lo + snap < x < top and abs(jump) > tol:
            raise PreconditionError(
                f"the shifted factor jumps by {abs(jump):.3g} at {x}, inside the range"
                f" [{lo}, {hi}] it is read on"
            )


def _live_nodes(fn: PiecewiseFunction, lo: float, delta: float) -> tuple[int, int]:
    """Lattice nodes lo + i delta, i in [ia, ib], outside which fn reads exactly 0.

    fn is 0 outside its domain and on a segment of zero samples, so the
    bounds are those of its first and last segment holding a non-zero
    sample, rounded outward to the lattice; ia > ib when fn is all zero.
    """
    live = [k for k, seg in enumerate(fn.segments) if seg.samples.any()]
    if not live:
        return 1, 0
    u = (fn._bounds[[live[0], live[-1] + 1]] - lo) / delta
    tol = _NODE_SNAP * (1.0 + np.abs(u))
    return math.floor(u[0] + tol[0]), math.ceil(u[1] - tol[1])


def lattice_product_integrals(
    f: PiecewiseFunction, g: PiecewiseFunction, ks, lo: float, hi: float, delta: float
) -> np.ndarray:
    """out[i] = integral of f(s) g(s + ks[i] delta) over s in (lo, hi), for integer ks.

    The rule is one Simpson panel per lattice cell [k delta, (k+1) delta]
    (nodes at multiples of delta / 2), plus one panel on a last partial
    cell when hi is off the lattice.  lo and every breakpoint of f and g
    must be multiples of delta, or GridMismatchError is raised; then no
    panel straddles a breakpoint of either factor at any integer shift.
    f may jump: each cell takes its values from the segment holding it.
    g is 0 outside its domain and must be continuous, across its edges
    too where the shifts bring them inside the range, because a node
    reads one value of g for the two cells that share it;
    PreconditionError is raised where g jumps inside the range it is
    read on.  Both factors are sampled on the half lattice by
    ``_on_steps``, one stencil per offset inside a cell, not point by
    point.  All shifts share the node set, so the sums over nodes form
    one discrete correlation; each shift reads only an even lag, so the
    even and the odd nodes of both factors make two half-length
    correlations, summed before one inverse FFT.

    f is sampled only on its live span: the whole cells of [lo, hi] that
    lie in f's segments from the first to the last one with a non-zero
    sample, and that can meet g's non-zero segments at some shift (a
    cell whose end node touches them counts).  g is sampled only on the
    lattice nodes those cells reach, and only within its non-zero
    segments; spans that end off the lattice, as g's domain may, are
    rounded outward to it.  With ne and ge even nodes in the two spans,
    a shift is a lag in (-ne, ge) of their correlation or meets nothing
    and gives 0, so the FFT length is the least 2^i 3^j 5^k >= ne + ge -
    1.  F's transforms and conjugates, and the products, run in place
    in two buffers of that length.  On the partial last cell, g is read only
    where f is non-zero.  A range no longer than 1e-9 gives 0.
    """
    ks = np.asarray(ks)
    if ks.ndim != 1 or not np.array_equal(ks, np.rint(ks)):
        raise DomainError("lattice shifts must be a 1-D array of integers")
    ks = ks.astype(np.int64)
    if ks.size == 0 or hi - lo <= 1e-9:
        return np.zeros(ks.shape, dtype=complex)
    slack = 1e-12 * (1.0 + max(abs(f.lo), abs(f.hi)))
    if lo < f.lo - slack or hi > f.hi + slack:
        raise DomainError(f"range [{lo}, {hi}] outside [{f.lo}, {f.hi}]")
    _require_on_lattice(lo, delta, "lower limit")
    for b in np.concatenate([f.breakpoints(), g.breakpoints()]):
        _require_on_lattice(b, delta, "breakpoint")
    kmin, kmax = int(ks.min()), int(ks.max())
    _require_no_jump(g, lo + kmin * delta, hi + kmax * delta)
    span = (hi - lo) / delta
    cells = int(np.floor(span + _NODE_SNAP * (1.0 + span)))
    half = 0.5 * delta
    top = lo + cells * delta  # end of the last whole cell
    out = np.zeros(ks.shape, dtype=complex)

    # the whole cells c0 <= c < c1 (counted from lo) where f is live and
    # meet g's live nodes ga .. gb at some shift, and the lattice nodes
    # g0 .. g1 of g those cells reach; every other cell adds exact zeros
    fa, fb = _live_nodes(f, lo, delta)
    ga, gb = _live_nodes(g, lo, delta)
    c0, c1 = max(0, fa, ga - kmax - 1), min(cells, fb, gb - kmin + 1)
    if c1 > c0:
        g0, g1 = max(c0 + kmin, ga), min(c1 + kmax, gb)
        # Simpson-weighted samples of f on the half lattice of its cells
        F = _on_steps(f, lo + c0 * delta, half, 2 * (c1 - c0) + 1)
        F[1::2] *= 4.0 * (delta / 6.0)
        F[2:-1:2] *= 2.0 * (delta / 6.0)
        F[0 :: F.size - 1] *= delta / 6.0
        for b, left, right in zip(f.breakpoints(), f.segments[:-1], f.segments[1:]):
            m = round((b - lo) / half) - 2 * c0
            if 0 < m < F.size:
                # a node on a jump of f: the cell below it takes the left side
                F[m] += (delta / 6.0) * (left.samples[-1] - right.samples[0])
        G = _on_steps(g, lo + g0 * delta, half, 2 * (g1 - g0) + 1)
        # shift k pairs f's node c0 + j with g's node g0 + j + d, d = k + c0
        # - g0: the correlation of F and G at lag d, the sum of those of
        # their even and their odd nodes, which can be non-zero only for
        # -ne < d < ge and so need no FFT longer than ne + ge - 1
        ne, ge = c1 - c0 + 1, g1 - g0 + 1
        size = _fft_length(ne + ge - 1)
        spec, work = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        for buf, p in ((spec, 0), (work, 1)):
            fp = F[p::2]
            buf[: fp.size] = fp
            buf[fp.size :] = 0.0
            np.conjugate(buf, out=buf)
            np.fft.fft(buf, out=buf)
            np.conjugate(buf, out=buf)
            buf *= np.fft.fft(G[p::2], size)
        spec += work
        np.fft.ifft(spec, out=spec)
        d = ks + (c0 - g0)
        meet = (d > -ne) & (d < ge)
        out[meet] = spec[d[meet]]

    if hi - top > _NODE_SNAP * delta * (1.0 + span):
        mid = 0.5 * (top + hi)
        k = int(np.searchsorted(f._bounds, mid, side="right")) - 1
        seg = f.segments[min(max(k, 0), len(f.segments) - 1)]
        pts = (top, mid, hi)
        fw = np.array([1.0, 4.0, 1.0]) * ((hi - top) / 6.0) * seg.values(pts)
        for weight, p in zip(fw, pts):
            if weight:  # where f is 0, g need not be read
                out += weight * _on_steps(g, p + kmin * delta, delta, kmax - kmin + 1)[ks - kmin]
    return out


def assemble_segments(x, v) -> PiecewiseFunction:
    """Rebuild a PiecewiseFunction from a node list with duplicated breakpoints.

    Each run between duplicates must increase uniformly, to 1e-9 of its
    spacing, as its samples are read on that grid (DomainError otherwise).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=complex)
    if x.shape != v.shape or x.size < 3:
        raise DomainError("need matching x/value arrays with at least three rows")
    cuts = [0, *(np.flatnonzero(x[1:] == x[:-1]) + 1), x.size]
    segs = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        run = x[start:stop]
        spacing = (run[-1] - run[0]) / max(run.size - 1, 1)
        if not np.all(np.abs(np.diff(run) - spacing) <= 1e-9 * spacing):
            raise DomainError(f"abscissae on [{run[0]}, {run[-1]}] need a uniform spacing")
        segs.append(SampledSegment(Interval(run[0], run[-1]), v[start:stop]))
    return PiecewiseFunction(segs)


def write_csv(f: PiecewiseFunction, path) -> None:
    """Serialize as ``x,re,im`` rows, breakpoint nodes duplicated (left, right)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,re,im\n")
        for seg in f.segments:
            for x, v in zip(seg.nodes(), seg.samples):
                fh.write(f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n")


def read_csv(path) -> PiecewiseFunction:
    """Inverse of write_csv; duplicated abscissae mark segment boundaries."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,re,im":
            raise DomainError(f"unexpected header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            sx, sre, sim = line.split(",")
            rows.append((float(sx), complex(float(sre), float(sim))))
    if len(rows) < 3:
        raise DomainError("too few rows")
    return assemble_segments([r[0] for r in rows], [r[1] for r in rows])
