"""Initial value solvers for -y'' + q(x) y(x - a) = lam y on (0, pi).

Two routes to the same solution:

* ``endpoint_values``: (y(pi), y'(pi)) for a batch of spectral points by
  the variation-of-constants form of the method of steps (Bellen &
  Zennaro, *Numerical Methods for Delay Differential Equations*, 2003).
  On each delay block the forcing q(t) y(t - a) is already known, so the
  block's solution is the kernels plus two running integrals, computed
  for all points and all nodes of the block at once.  This is the
  stepper behind ``charfn.delta_direct``.

* ``series_term``: the solution as a finite sum of iterated integrals
  (the k-th term vanishes below k*a, so only a few terms survive on
  (0, pi)).  Each iterate reduces to two running integrals against the
  trigonometric kernels, which keeps the cost linear in the grid size.

Closed forms of the first and second iterates and their derivatives
(``y1_closed``; ``y2_closed``, the triangle kernel ``p_function`` by
``kernels``' Filon rule) are cross-checks.  A third, independent route,
an RK4 march of the method of steps, lives with the tests
(``tests/oracles.py``) and checks both routes here.

The routes share three helpers of ``gridfn``: q's left and right limits
at their nodes come from ``_sided_values``, the check that q vanishes on
(0, a) is ``_require_zero``, and stored samples are interpolated by
``_cubic``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .gridfn import (
    Interval,
    PiecewiseFunction,
    SampledSegment,
    _breaks,
    _cell_integrals,
    _cell_weights,
    _cubic,
    _on_steps,
    _require_zero,
    _sided_values,
    cumulative,
    lattice_product_integrals,
    sample_function,
    shifted_product_integrals,
)

__all__ = [
    "DelaySetup",
    "SolutionTrace",
    "grid_breakpoints",
    "endpoint_values",
    "series_term",
    "y1_closed",
    "y2_closed",
    "p_function",
]

PI = math.pi

# target cap for the auto-sized step of the block solver
_MAX_STEP = PI / 4096.0

# complex numbers per array of the block solver: the spectral points go
# through in passes of _PASS_SIZE // (m + 1) (fewer points per pass pay
# more numpy calls per point, more bought nothing measurable from 7 to 28
# points at m = 1024); the kernels themselves are evaluated once per
# chunk of at most _PASS_SIZE // (m // _FINE + 1) points, which keeps each
# short table as small as a pass array.  Both stay under glibc's 128 KiB
# mmap threshold (6 x 1025 and 216 x 33 complex at m = 1024), so they are
# not mapped afresh on every call
_PASS_SIZE = 7168

# pass-sized arrays of the block solver, allocated one by one per call of
# endpoint_values: the kernel tables C and S, the history y, the varying
# constants U and V, and two products
_PASS_ARRAYS = 7

# fine offsets per coarse step of the block solver's kernel tables
_FINE = 32

# lattice cells per delay length for the nested integrals of the
# potential (triangle kernel, weight correction, Fredholm operator)
_LATTICE_CELLS = 4096


@dataclass(frozen=True)
class DelaySetup:
    """Problem geometry: delay a, index nu, and grid resolution knobs.

    ``nu`` selects which member of the boundary-value pair the setup
    describes; initial-value routines take their own initial type where
    it differs.  ``segment_nodes`` is the per-segment sample count of all
    constructed traces; ``steps_per_delay`` forces the step count per
    delay length of the block solver of ``endpoint_values`` (0 picks the
    smallest compatible count with step below pi/4096).
    """

    a: float
    nu: int
    segment_nodes: int = 513
    steps_per_delay: int = 0

    def __post_init__(self):
        if not 0.0 < self.a < PI:
            raise DomainError(f"delay must lie in (0, pi), got {self.a}")
        if self.nu not in (0, 1):
            raise DomainError(f"nu must be 0 or 1, got {self.nu}")
        n = self.segment_nodes
        if n < 3 or n % 2 == 0:
            raise DomainError(f"segment_nodes must be odd and >= 3, got {n}")
        if self.steps_per_delay < 0:
            raise DomainError("steps_per_delay must be >= 0")

    @property
    def levels(self) -> int:
        """N with pi/(N+1) <= a < pi/N; the series has terms 0..N."""
        n = math.ceil(PI / self.a - 1e-12) - 1
        return max(n, 1)

    @property
    def steps(self) -> int:
        """Resolved steps per delay length, a multiple of segment_nodes - 1.

        The block solver steps with h = a / steps.  The multiple puts
        every multiple of a/2, where q's grid breaks, on a node, and a
        trace segment's samples on every (steps / (segment_nodes - 1))-th
        node; the RK4 traces of the tests rely on both.
        """
        unit = self.segment_nodes - 1  # even
        want = self.steps_per_delay
        if want == 0:
            want = int(math.ceil(self.a / _MAX_STEP - 1e-12))
        return unit * int(math.ceil(want / unit - 1e-12))


@dataclass(frozen=True)
class SolutionTrace:
    """Solution and derivative on (0, pi) plus exact endpoint values."""

    y: PiecewiseFunction
    yprime: PiecewiseFunction
    y_end: complex
    yp_end: complex


def grid_breakpoints(a: float, lo: float, hi: float) -> np.ndarray:
    """Multiples of a/2 inside [lo, hi], with lo and hi themselves included.

    Every module builds its grids through this function so that shared
    breakpoints are bit-identical.
    """
    if not hi > lo:
        raise DomainError("empty range")
    half = 0.5 * a
    tol = 1e-9 * max(1.0, hi)
    pts = [lo]
    k = int(math.floor(lo / half)) + 1
    while k * half < hi - tol:
        if k * half > lo + tol:
            pts.append(k * half)
        k += 1
    pts.append(hi)
    return np.array(pts)


def _zero_on(setup: DelaySetup, lo: float = 0.0) -> PiecewiseFunction:
    """Zero on [lo, pi], sampled on the standard grid of ``setup``."""
    return sample_function(
        lambda x: np.zeros_like(x, dtype=complex),
        grid_breakpoints(setup.a, lo, PI),
        setup.segment_nodes,
    )


def endpoint_values(q: PiecewiseFunction, setup: DelaySetup, init_nu: int, lam):
    """Batched (y(pi), y'(pi)) for an array of spectral points.

    Block variation of constants on the nodes x_i = i h, h = a /
    setup.steps.  On the block [x0, x0 + a], x0 = k a, the forcing
    f(t) = q(t) y(t - a) is known from the block before, and

        y(x) = C(x - x0) U(x) + S(x - x0) V(x),  U = y0 - I_S,  V = y0' + I_C,

    with C, S the kernels and I_C, I_S the running integrals of
    C(t - x0) f(t) and S(t - x0) f(t) from x0.  t - x0 runs over the
    same offsets 0, h, ..., a in every block, so C and S are tabulated
    once per point (``_kernel_tables``: two short tables joined by the
    addition theorems); being block-local they also stay free of the
    cancellation a global S(x) C(t) - C(x) S(t) suffers for lam << 0.
    The integrals use the cubic cell rule (``gridfn._cell_integrals``) on
    each smooth piece of f, cut at q's breakpoints (one-sided q values)
    and at those breakpoints + a, where y(t - a) kinks; breakpoints are
    taken at the nearest node.  A piece under 3 cells, and the partial
    last cell when pi is not a node, get one Simpson panel per cell
    instead, with y(t - a) interpolated at the midpoints.  A piece where
    q is zero at every point the rule reads adds nothing and is skipped.
    y on a block is built only when the next block reads it, and only
    then are the running integrals formed at every node; any other block
    needs U and V at its end alone, which carry the solution across, and
    takes I_C and I_S there as one sum per row of q y(t - a) C (or S)
    against the composite weights of the same rules.  A q sampled
    short of pi is zero-extended to pi on the standard grid.  The set-up
    that depends on q and the grid alone (the extension, q at the nodes,
    the pieces, the folded weights, the support check) is kept for the
    last (q, setup) pair; q cannot change in place, as its segments hold
    read-only copies of their samples.

    The points go through in chunks, whose kernels are evaluated once
    (the short tables, ``_short_tables``, and the kernels at the Simpson
    points), and each chunk in passes of a few points, whose C and S are
    built from the chunk's short tables.  The pass-sized arrays are
    allocated per call, each on its own, so calls in threads share
    nothing but the kept set-up, which they only read.  Every operation
    is elementwise in lam or a sum along one row, so a point's value
    does not depend on the batch it comes in.
    """
    lam = np.asarray(lam, dtype=complex)
    blocks = _blocks_for(q, setup)
    flat = lam.ravel()
    y_end = np.empty(flat.shape, dtype=complex)
    yp_end = np.empty(flat.shape, dtype=complex)
    rows = min(blocks.rows, flat.size)
    work = [np.empty((rows, blocks.m + 1), dtype=complex) for _ in range(_PASS_ARRAYS)]
    for lo in range(0, flat.size, blocks.chunk):
        part = slice(lo, lo + blocks.chunk)
        y_end[part], yp_end[part] = blocks.endpoints(init_nu, flat[part], work)
    return y_end.reshape(lam.shape), yp_end.reshape(lam.shape)


@functools.lru_cache(maxsize=1)
def _blocks_for(q: PiecewiseFunction, setup: DelaySetup) -> "_Blocks":
    """The block set-up for (q, setup), rebuilt only when either changes.

    q is matched by identity (it defines no equality, and the cache holds
    a reference to it, so its id cannot be reused), setup by equality.
    """
    return _Blocks(q, setup)


def _short_tables(lam: np.ndarray, h: float, m: int):
    """The kernels ``_kernel_tables`` joins, one row per point of ``lam``.

    Returns (cc, sc, cf, sf): C and S at the coarse offsets _FINE J h,
    J <= m // _FINE, and at the fine ones j h, j < _FINE.
    """
    cc, sc = kernels.kernel_pair(lam[:, None], h * (_FINE * np.arange(m // _FINE + 1)))
    cf, sf = kernels.kernel_pair(lam[:, None], h * np.arange(_FINE))
    return cc, sc, cf, sf


def _spread(outs, tables, coarse: bool) -> None:
    """Write short tables across the offsets k = 0..m of ``outs``, one row per point.

    Each table (rows, J) goes into the array of ``outs`` (rows, m + 1)
    at its place: column k gets column k // _FINE of the table
    (``coarse``) or column k % _FINE.  Each out is seen as (rows, J,
    _FINE), first the whole coarse steps, then the partial last one, and
    filled by a broadcast copy.
    """
    for out, table in zip(outs, tables):
        rows, width = out.shape
        whole, part = divmod(width, _FINE)
        for j0, n_j, n_f in ((0, whole, _FINE), (whole, 1, part)):
            if n_j * n_f:
                view = out[:, j0 * _FINE : j0 * _FINE + n_j * n_f].reshape(rows, n_j, n_f)
                view[...] = table[:, j0 : j0 + n_j, None] if coarse else table[:, None, :n_f]


def _kernel_tables(lam: np.ndarray, short, C: np.ndarray, S: np.ndarray, work) -> None:
    """Write C(k h) and S(k h), k = 0..m, into C and S, from the rows of ``_short_tables``.

    C and S are C-contiguous, one row per point of ``lam``, of width
    m + 1, and ``work`` is a sequence of five more such arrays.  With
    k = _FINE J + j the addition theorems of the entire kernels,

        C(x + y) = C(x) C(y) - lam S(x) S(y),  S(x + y) = S(x) C(y) + C(x) S(y),

    give C and S from the short tables spread across the offsets
    (``_spread``), in products of whole rows.  No 1/rho occurs, so they
    hold through lam = 0, and each product stays within the envelope
    e^{|Im rho| (x + y)}.
    """
    cc, sc, cf, sf = short
    _spread(work[:3], (cc, sc, lam[:, None] * sc), True)
    _spread(work[3:], (cf, sf), False)
    cc, sc, lsc, cf, sf = work
    # complex products are not bitwise commutative, so each keeps its
    # factors in the order (coarse, fine)
    np.multiply(cc, cf, out=C)
    lsc *= sf
    C -= lsc
    np.multiply(sc, cf, out=S)
    cc *= sf
    S += cc


def _simpson_weights(pts: np.ndarray) -> np.ndarray:
    """Weights of the sum of ``_Blocks._panels``' cells over the Simpson points pts."""
    width = np.diff(pts[::2]) / 6.0
    w = np.zeros(pts.size)
    w[0:-1:2] += width
    w[1::2] = 4.0 * width
    w[2::2] += width
    return w


class _Blocks:
    """The block solver of ``endpoint_values`` for one potential and grid.

    The set-up reads q alone: ``plan`` holds one (start, n, pieces) per
    block, start its first node and n its whole cells, and each piece
    (i0, i1, cols, qv) the block-local node range of one smooth piece of
    the forcing with q at the points its rule reads: the nodes for the
    cell rule (cols is None), the Simpson points ``simpson_pts[cols]`` for
    panels; qv is None where all of those are zero.  The last block ends
    with the partial last cell [x_n, pi] as a piece (n, n, cols, qv) when
    pi is no node, and ``end`` is then the column of pi among the Simpson
    points.  ``reads`` holds per block whether any of its pieces reads
    y(t - a).

    ``sums`` holds per block None when the block after it reads y, so
    that its running integrals are needed at every node, and otherwise
    (for the last block and one before a block that reads no y) the
    terms whose sums are its integrals at its end: (i0, i1, cols, wq)
    with wq q times the weights of the rule, one term for all the cell
    rule's pieces (their weights add up at the nodes they share) and one
    per Simpson piece.
    """

    def __init__(self, q: PiecewiseFunction, setup: DelaySetup):
        if q.hi < PI - 1e-9 * (1.0 + PI):
            q = PiecewiseFunction(list(q.segments) + list(_zero_on(setup, q.hi).segments))
        _require_zero(q, 0.0, setup.a, "(0, a)")
        m = setup.steps
        if m < 4:
            raise DomainError(f"the block solver needs at least 4 steps per delay, got {m}")
        self.m = m
        self.h = h = setup.a / m
        self.rows = max(1, _PASS_SIZE // (m + 1))  # points per pass
        self.chunk = self.rows * max(1, _PASS_SIZE // (m // _FINE + 1) // self.rows)
        self.n_full = int(math.floor(PI / h + 1e-9))
        self.rem = PI - self.n_full * h
        if self.rem < 1e-9 * h:
            self.rem = 0.0
        # both limits of q at the nodes, and the cut nodes: q's breakpoints
        # and the kinks of y(t - a) one delay later
        q_left, q_right = _sided_values(q, h * np.arange(self.n_full + 1))
        cuts = {int(round(b / h)) + d for b in q.breakpoints() for d in (0, m)}

        self.simpson_pts = np.empty(0)

        def forcing(qv):
            # q as complex, so that no product with it casts; None where zero
            return qv.astype(complex) if np.any(qv) else None

        def simpson(start, u):
            # the offsets u with their midpoints interleaved, appended to
            # the Simpson points, and q there, one-sided at a first node and
            # at a last node
            pts = np.empty(2 * u.size - 1)
            pts[0::2], pts[1::2] = u, 0.5 * (u[:-1] + u[1:])
            qv = q.values(start * h + pts)
            qv[0] = q_right[start + round(u[0] / h)]
            last = u[-1] / h
            if abs(last - round(last)) <= 1e-9 * (1.0 + last):
                qv[-1] = q_left[start + round(last)]
            cols = slice(self.simpson_pts.size, self.simpson_pts.size + pts.size)
            self.simpson_pts = np.append(self.simpson_pts, pts)
            return cols, qv

        self.plan = []
        start = m
        while True:
            n = min(m, self.n_full - start)
            edges = sorted({0, n} | {i - start for i in cuts if start < i < start + n})
            pieces = []
            for i0, i1 in zip(edges[:-1], edges[1:]):
                if i1 - i0 < 3:  # too short for the cubic stencil
                    cols, qv = simpson(start, h * np.arange(i0, i1 + 1))
                else:
                    cols = None
                    qv = q_right[start + i0 : start + i1 + 1].copy()
                    qv[-1] = q_left[start + i1]
                pieces.append((i0, i1, cols, forcing(qv)))
            self.plan.append((start, n, pieces))
            if n < m or (start + n == self.n_full and self.rem == 0.0):
                break
            start += m
        self.end = None
        if self.rem > 0.0:
            cols, qv = simpson(start, n * h + np.array([0.0, self.rem]))
            pieces.append((n, n, cols, forcing(qv)))
            self.end = cols.stop - 1
        self.reads = [any(qv is not None for *_, qv in pieces) for *_, pieces in self.plan]
        self.sums = [
            None if reads else self._sums(pieces)
            for reads, (_, _, pieces) in zip(self.reads[1:], self.plan)
        ]
        self.sums.append(self._sums(self.plan[-1][2]))

    def _sums(self, pieces) -> list:
        """The terms of a block's integrals at its end: see the class docstring."""
        live = [(i0, i1, cols, qv) for i0, i1, cols, qv in pieces if qv is not None]
        terms = [
            (i0, i1, cols, qv * _simpson_weights(self.simpson_pts[cols]))
            for i0, i1, cols, qv in live
            if cols is not None
        ]
        cells = [(i0, i1, qv) for i0, i1, cols, qv in live if cols is None]
        if cells:
            lo, hi = cells[0][0], cells[-1][1]
            wq = np.zeros(hi - lo + 1, dtype=complex)
            for i0, i1, qv in cells:
                wq[i0 - lo : i1 - lo + 1] += self.h * _cell_weights(i1 - i0 + 1) * qv
            terms.append((lo, hi, None, wq))
        return terms

    def endpoints(self, init_nu: int, lam: np.ndarray, work):
        """(y(pi), y'(pi)) for a 1-D array of spectral points, one chunk.

        The kernels are evaluated once here; the blocks are solved in
        passes of ``rows`` points, each in the rows of ``work`` it needs
        (a sequence of ``_PASS_ARRAYS`` arrays of ``rows`` rows and m + 1
        columns).
        """
        short = _short_tables(lam, self.h, self.m)
        pts = self.simpson_pts
        at_pts = kernels.kernel_pair(lam[:, None], pts) if pts.size else ()
        y_end = np.empty(lam.shape, dtype=complex)
        yp_end = np.empty(lam.shape, dtype=complex)
        for lo in range(0, lam.size, self.rows):
            p = slice(lo, lo + self.rows)
            rows = [w[: lam[p].size] for w in work]
            y_end[p], yp_end[p] = self._pass(
                init_nu, lam[p], [t[p] for t in short], [k[p] for k in at_pts], rows
            )
        return y_end, yp_end

    def _pass(self, init_nu: int, lam: np.ndarray, short, at_pts, work):
        """(y(pi), y'(pi)) for one pass, given its rows of the chunk's kernels.

        Every pass-sized array is one array of ``work``: the kernel
        tables C and S, the history y, U = y0 - I_S and V = y0' + I_C,
        and two products.  On a block y = C U + S V, and (U, V) at its
        end carry the solution to the next.
        """
        m = self.m
        C, S, Y, U, V, _, G = work
        _kernel_tables(lam, short, C, S, work[2:])
        # the first block holds the kernels; y0, yp0 are y, y' at its end
        if init_nu == 0:
            y, y0, yp0 = C, C[:, m], -lam * S[:, m]
        else:
            y, y0, yp0 = S, S[:, m], C[:, m]
        for (_, _, pieces), sums in zip(self.plan[:-1], self.sums):
            # y now holds y(t - a) on this block's nodes, if the block reads it
            if sums is not None:
                u, v = self._ends(y, sums, y0, yp0, at_pts, work)
                y = None
            else:
                self._running(y, pieces, y0, yp0, at_pts, work)
                # the next block reads y on this one's nodes, built over the old
                np.multiply(C, U, out=Y)
                np.multiply(S, V, out=G)
                Y += G
                y = Y
                u, v = U[:, m], V[:, m]
            y0, yp0 = _voc(lam, C[:, m], S[:, m], u, v)
        _, n, _ = self.plan[-1]
        u, v = self._ends(y, self.sums[-1], y0, yp0, at_pts, work)
        if self.end is None:
            return _voc(lam, C[:, n], S[:, n], u, v)
        # the partial last cell ends at pi, the last Simpson point
        return _voc(lam, *(k[:, self.end] for k in at_pts), u, v)

    def _running(self, hist, pieces, y0, yp0, at_pts, work):
        """U = y0 - I_S and V = y0' + I_C at every node of a whole block, into U and V.

        Each piece from the first with forcing on writes its cells into
        its columns of U and V (the cells of U negated), and one running
        sum per row from that piece's first node turns them into the
        running integrals; the columns before it hold y0 and y0'.  The
        cell rule takes a piece's forcing products as C-contiguous rows
        of G, with F (and Y when it is not the history) as its work.
        """
        h = self.h
        C, S, Y, U, V, F, G = work
        first = next((i0 for i0, *_, qv in pieces if qv is not None), self.m)
        U[:, : first + 1], V[:, : first + 1] = y0[:, None], yp0[:, None]
        spare = None if np.may_share_memory(hist, Y) else Y.reshape(-1)
        for i0, i1, cols, qv in pieces:
            if i0 < first:
                continue
            u, v = U[:, i0 + 1 : i1 + 1], V[:, i0 + 1 : i1 + 1]
            if qv is None:  # no forcing: the running integrals stay put
                u[...] = v[...] = 0.0
            elif cols is not None:
                cell_c, cell_s = self._panels(hist, cols, qv, at_pts)
                v[...] = cell_c
                np.negative(cell_s, out=u)
            else:
                g = _packed(G, i1 - i0 + 1)
                for kern, cells, step in ((C, v, h), (S, u, -h)):
                    np.multiply(qv, hist[:, i0 : i1 + 1], out=g)
                    np.multiply(kern[:, i0 : i1 + 1], g, out=g)
                    _cell_integrals(g, step, out=cells, work=(F.reshape(-1), spare))
        np.cumsum(U[:, first:], axis=1, out=U[:, first:])
        np.cumsum(V[:, first:], axis=1, out=V[:, first:])

    def _ends(self, hist, sums, y0, yp0, at_pts, work):
        """(U, V) at a block's end from the terms of ``sums``, one weighted sum each.

        Each sum runs over the last axis, row by row, so a point's value
        does not depend on the pass it is in.
        """
        C, S, *_, F, G = work
        i_c = i_s = 0.0
        for i0, i1, cols, wq in sums:
            if cols is not None:
                kerns = [k[:, cols] for k in at_pts]
                src = _cubic(hist, self.simpson_pts[cols] / self.h)
            else:
                kerns = [C[:, i0 : i1 + 1], S[:, i0 : i1 + 1]]
                src = hist[:, i0 : i1 + 1]
            f, g = _packed(F, wq.size), _packed(G, wq.size)
            np.multiply(wq, src, out=f)
            np.multiply(kerns[0], f, out=g)
            i_c = i_c + np.sum(g, axis=-1)
            np.multiply(kerns[1], f, out=g)
            i_s = i_s + np.sum(g, axis=-1)
        return y0 - i_s, yp0 + i_c

    def _panels(self, hist, cols: slice, qv: np.ndarray, at_pts):
        """Simpson integrals of C(t - x0) f(t) and S(t - x0) f(t) over the cells of pts.

        x0 is the block's first node and pts = ``simpson_pts[cols]``: the
        ascending offsets pts[::2], at most h apart, with their midpoints
        pts[1::2] between them, must lie in one smooth piece of f, pts[0]
        on a node, and the result has one column per cell.  qv is q at
        pts, ``at_pts`` the kernels at the Simpson points, and y(t - a)
        there is the 4-point Lagrange interpolant of ``hist``.
        """
        pts = self.simpson_pts[cols]
        f = qv * _cubic(hist, pts / self.h)
        width = np.diff(pts[::2]) / 6.0
        cells = []
        for kern in at_pts:
            g = kern[:, cols] * f
            cells.append(width * (g[:, 0:-1:2] + 4.0 * g[:, 1::2] + g[:, 2::2]))
        return cells


def _packed(a: np.ndarray, width: int) -> np.ndarray:
    """The first rows x ``width`` entries of a C-contiguous pass array, as C-contiguous rows.

    numpy runs a ufunc on column slices of 4 or more rows through its
    buffered iterator, 2-3 times slower than on whole rows.
    """
    return a.reshape(-1)[: a.shape[0] * width].reshape(a.shape[0], width)


def _voc(lam, c, s, u, v):
    """(y, y') = (c u + s v, c v - lam s u) at x, given the kernels and U, V there."""
    return c * u + s * v, c * v - lam * (s * u)


# ---------------------------------------------------------------------------
# successive approximation terms


def _resample_sided(q: PiecewiseFunction, structure: PiecewiseFunction) -> PiecewiseFunction:
    """Resample q on another function's grid, each segment with q from its own side."""
    segs = []
    for seg in structure.segments:
        left, right = _sided_values(q, seg.nodes())
        right[-1] = left[-1]
        segs.append(SampledSegment(seg.interval, right))
    return PiecewiseFunction(segs)


def _on_grid(grid: PiecewiseFunction, samples) -> PiecewiseFunction:
    """The function with one sample array per segment of ``grid``."""
    return PiecewiseFunction(
        SampledSegment(seg.interval, v) for seg, v in zip(grid.segments, samples)
    )


def _trace_from_parts(y_fn, yp_fn) -> SolutionTrace:
    return SolutionTrace(y_fn, yp_fn, complex(y_fn.values(PI)), complex(yp_fn.values(PI)))


def series_term(q: PiecewiseFunction, setup: DelaySetup, k: int, lam: complex) -> SolutionTrace:
    """k-th term of the successive-approximation series, as a trace.

    Term 0 is the trigonometric kernel; term k vanishes on [0, k a] and
    is identically zero on (0, pi) for k > levels.
    """
    if k < 0:
        raise DomainError("term index must be >= 0")
    return next(itertools.islice(_series_terms(q, setup, lam), k, None))


def _series_terms(q, setup, lam):
    """The terms 0, 1, 2, ... of the series, as traces on the standard grid.

    The kernels at the grid nodes are evaluated, and q is resampled on
    the grid, once for all terms.  Term k is int S(x - t) g(t) dt, g(t)
    = q(t) y_{k-1}(t - a), formed as S(x) int C g - C(x) int S g with
    global kernels.  For lam << 0 the two products grow like
    e^{sqrt(-lam) (x + t)} and S(x - t) only like e^{sqrt(-lam) (x - t)},
    so the term loses digits to cancellation as lam goes left.
    """
    a = setup.a
    grid = _zero_on(setup)
    cs = [kernels.kernel_pair(lam, seg.nodes()) for seg in grid.segments]
    if setup.nu == 0:
        y, yp = [c for c, _ in cs], [-lam * s for _, s in cs]
    else:
        y, yp = [s for _, s in cs], [c for c, _ in cs]
    term = _trace_from_parts(_on_grid(grid, y), _on_grid(grid, yp))
    yield term
    qs = _resample_sided(q, grid)
    k = 1
    while k * a < PI - 1e-12:
        # g(t) = q(t) * y_{k-1}(t - a), zero below k a by support of the previous term
        gc, gs = [], []
        for seg, qseg, (c, s) in zip(grid.segments, qs.segments, cs):
            x = seg.nodes()
            g = np.zeros(x.shape, dtype=complex)
            live = x >= a - 1e-12
            if np.any(live):
                shifted = np.clip(x[live] - a, 0.0, PI)
                g[live] = qseg.samples[live] * term.y.values(shifted)
            gc.append(g * c)
            gs.append(g * s)
        anchor = k * a
        pc = cumulative(_on_grid(grid, gc), anchor)
        ps = cumulative(_on_grid(grid, gs), anchor)
        y, yp = [], []
        for seg_pc, seg_ps, (c, s) in zip(pc.segments, ps.segments, cs):
            live = seg_pc.nodes() >= anchor - 1e-12
            y.append(np.where(live, s * seg_pc.samples - c * seg_ps.samples, 0.0))
            yp.append(np.where(live, c * seg_pc.samples + lam * s * seg_ps.samples, 0.0))
        term = _trace_from_parts(_on_grid(grid, y), _on_grid(grid, yp))
        yield term
        k += 1
    while True:
        yield _trace_from_parts(grid, grid)


# ---------------------------------------------------------------------------
# closed forms for the first two terms


def _first_term_parts(q, setup, lam):
    """Running integrals of q(t) ckernel(lam, 2t) and q(t) skernel(lam, 2t) from a."""
    grid = _zero_on(setup)
    qs = _resample_sided(q, grid)
    c_segs, s_segs = [], []
    for seg, qseg in zip(grid.segments, qs.segments):
        c, s = kernels.kernel_pair(lam, 2.0 * seg.nodes())
        c_segs.append(qseg.samples * c)
        s_segs.append(qseg.samples * s)
    a = setup.a
    return (
        cumulative(_on_grid(grid, c_segs), a),
        cumulative(_on_grid(grid, s_segs), a),
        cumulative(qs, a),
    )


def y1_closed(q: PiecewiseFunction, setup: DelaySetup, lam: complex) -> SolutionTrace:
    """First series term and its x-derivative in closed form (trace on the standard grid).

    For nu = 1 the value carries a removable 1/lam; near lam = 0 the
    value comes from the series recursion instead.  The derivative has
    no 1/lam and is always the closed form.
    """
    nu = setup.nu
    a = setup.a
    near_zero = nu == 1 and abs(lam) < 1e-3
    qc, qms, om = _first_term_parts(q, setup, lam)
    segs_y, segs_p = [], []
    for seg_c, seg_s, seg_o in zip(qc.segments, qms.segments, om.segments):
        x = seg_c.nodes()
        (ca, cm), (sa, sm) = kernels.kernel_pair(lam, np.stack([x + a, x - a]))
        # integrals of q(t) S(x - 2t + a) and of q(t) C(x - 2t + a)
        s_int = sa * seg_c.samples - ca * seg_s.samples
        c_int = ca * seg_c.samples + lam * sa * seg_s.samples
        if nu == 0:
            y = 0.5 * seg_o.samples * sm + 0.5 * s_int
            yp = 0.5 * seg_o.samples * cm + 0.5 * c_int
        else:
            y = None if near_zero else -0.5 / lam * seg_o.samples * cm + 0.5 / lam * c_int
            yp = 0.5 * seg_o.samples * sm - 0.5 * s_int
        live = x >= a - 1e-12
        if y is not None:
            segs_y.append(np.where(live, y, 0.0))
        segs_p.append(np.where(live, yp, 0.0))
    yfn = series_term(q, setup, 1, lam).y if near_zero else _on_grid(qc, segs_y)
    return _trace_from_parts(yfn, _on_grid(qc, segs_p))


# ---------------------------------------------------------------------------
# second term: pointwise closed form through the triangle kernel


def _p_values(q, setup, om, x: float, ts: np.ndarray) -> np.ndarray:
    """Triangle kernel values P(x, t) for one x and many t, point by point.

    Each t costs one kink-aware quadrature (``shifted_product_integrals``).
    The lattice route (``_p_on_pieces``) uses it only for pieces too
    short to interpolate in, and ``tests/oracles.py`` wraps it as the
    lattice route's independent pointwise oracle.
    """
    a = setup.a
    sign = -1.0 if setup.nu else 1.0
    omx = om.values(x)
    inner = shifted_product_integrals(
        q, om.map_samples(lambda s, _: omx - s), ts - 0.5 * a, a, x - ts + 0.5 * a, a / 2048.0
    )
    return (omx - om.values(ts + 0.5 * a)) * om.values(ts - 0.5 * a) + sign * inner


@functools.lru_cache(maxsize=1)
def _inner_lattice(q, a: float, x: float, m0: int, count: int) -> np.ndarray:
    """int_a^x q(u) om(u - m delta) du for m = m0 .. m0 + count - 1, read-only.

    om is the antiderivative of q from a (``cumulative(q, a)``) and delta
    = a / _LATTICE_CELLS.  The integral does not depend on nu, so the
    last one is kept for the other nu at the same x; q is matched by
    identity, as in ``_blocks_for``.
    """
    ms = np.arange(m0, m0 + count)
    inner = lattice_product_integrals(q, cumulative(q, a), -ms, a, x, a / _LATTICE_CELLS)
    inner.flags.writeable = False
    return inner


def _p_lattice(q, setup, om, x: float, m0: int, count: int) -> np.ndarray:
    """P(x, t) at the lattice points t = a/2 + m delta, m = m0 .. m0 + count - 1.

    Here delta = a / _LATTICE_CELLS.  With sigma = t - a/2, integrating
    the inner integral by parts gives

        int_a^{x - sigma} q(s) [om(x) - om(s + sigma)] ds = int_a^x q(u) om(u - sigma) du

    (om = 0 below a), in which x is only the fixed upper limit, so one
    lattice correlation (``_inner_lattice``, kept for the other nu)
    yields every m at once.  om(sigma) and om(a + sigma) are read on the
    same lattice by ``gridfn._on_steps``, one stencil per offset inside
    a cell of om, not point by point.
    """
    a = setup.a
    delta = a / _LATTICE_CELLS
    sign = -1.0 if setup.nu else 1.0
    inner = _inner_lattice(q, a, x, m0, count)
    om_sig = _on_steps(om, delta * m0, delta, count)
    om_shifted = _on_steps(om, a + delta * m0, delta, count)
    return (om.values(x) - om_shifted) * om_sig + sign * inner


def _p_on_pieces(q, setup, om, x: float, parts) -> list:
    """P(x, .) at each sorted node array of ``parts``.

    Each array must lie within one smooth piece of P(x, .).  P is
    computed on the lattice t = a/2 + m delta over all parts in one
    ``_p_lattice`` call; a node on the lattice takes its lattice value,
    any other node the 4-point Lagrange interpolant of the lattice nodes
    inside its own piece (one-sided at the piece ends, so never across
    a kink).  A piece holding fewer than 4 lattice nodes goes through
    the pointwise ``_p_values``.
    """
    a = setup.a
    delta = a / _LATTICE_CELLS
    us = [(np.asarray(ts, dtype=float) - 0.5 * a) / delta for ts in parts]
    spans = []
    for u in us:
        tol = 1e-9 * (1.0 + abs(u[0]) + abs(u[-1]))
        spans.append((math.ceil(u[0] - tol), math.floor(u[-1] + tol)))
    first = min(m0 for m0, _ in spans)
    last = max(m1 for _, m1 in spans)
    vals = _p_lattice(q, setup, om, x, first, last - first + 1)
    out = []
    for ts, u, (m0, m1) in zip(parts, us, spans):
        if m1 - m0 < 3:
            out.append(_p_values(q, setup, om, x, np.asarray(ts, dtype=float)))
            continue
        k = np.rint(u)
        u = np.where(np.abs(u - k) <= 1e-9 * (1.0 + np.abs(u)), k, u)
        out.append(_cubic(vals[m0 - first : m1 - first + 1], u - m0))
    return out


def p_function(q: PiecewiseFunction, setup: DelaySetup, x: float) -> PiecewiseFunction | None:
    """P(x, .) sampled as a function of t on [3a/2, x - a/2].

    Returns None when the range is empty (x <= 2a).  The range is cut
    into the smooth pieces of P(x, .), at the breakpoints of q moved by
    +-a/2 and at x + a/2 - b (where P's second derivative jumps for
    x < 3a), and each piece gets 1025 samples from the lattice values
    of ``_p_on_pieces`` (5 for a piece shorter than 4 lattice cells);
    every breakpoint of q must be a multiple of the lattice spacing
    a/4096 (GridMismatchError otherwise).  ``y2_closed`` builds it once
    per call, for every lambda of its batch.
    """
    a = setup.a
    lo, hi = 1.5 * a, x - 0.5 * a
    if hi <= lo + 1e-9:
        return None
    om = cumulative(q, a)
    b = q.breakpoints()
    pieces = _breaks(np.concatenate([b + 0.5 * a, b - 0.5 * a, x + 0.5 * a - b]), lo, hi)
    ivs = [Interval(float(plo), float(phi)) for plo, phi in zip(pieces[:-1], pieces[1:])]
    # a piece under 4 lattice cells goes through the pointwise kernel,
    # so it gets the fewest samples that keep the cubic interpolation
    short = 4.0 * a / _LATTICE_CELLS
    parts = [np.linspace(iv.lo, iv.hi, 5 if iv.length < short else 1025) for iv in ivs]
    vals = _p_on_pieces(q, setup, om, x, parts)
    return PiecewiseFunction(SampledSegment(iv, v) for iv, v in zip(ivs, vals))


def y2_closed(q: PiecewiseFunction, setup: DelaySetup, lam, x: float):
    """Second series term and its x-derivative at one point, 2a <= x <= pi.

    Both integrate P(x, t) against a kernel at y = x + a - 2t by the rule
    ``kernels._WeightRule`` on (P(x, .), x + a, x - 2a).  lam may be a
    scalar or an array; a batch shares P and the rule's tables, and each
    value is the same alone and in any batch.  For nu = 1 the value
    carries a removable 1/lam; where |lam| < 1e-3 it comes from the
    series recursion instead (the derivative has no 1/lam).
    """
    nu = setup.nu
    a = setup.a
    if not 2.0 * a - 1e-12 <= x <= PI + 1e-12:
        raise DomainError(f"x = {x} outside [2a, pi]")
    lam = np.asarray(lam, dtype=complex)
    lamf = lam.ravel()
    pfn = p_function(q, setup, x)
    s_int = c_int = np.zeros(lamf.shape, dtype=complex)
    if pfn is not None:
        rule = kernels._WeightRule(pfn, x + a, x - 2.0 * a)
        s_int, c_int = rule.integrals_of(lamf, ("s", "c"))
    if nu == 0:
        return (0.5 * s_int).reshape(lam.shape)[()], (0.5 * c_int).reshape(lam.shape)[()]
    small = np.abs(lamf) < 1e-3
    y = np.where(small, 0.0, 0.5 / np.where(small, 1.0, lamf) * c_int)
    for k in np.flatnonzero(small):
        y[k] = series_term(q, setup, 2, lamf[k]).y.values(min(x, PI))
    return y.reshape(lam.shape)[()], (-0.5 * s_int).reshape(lam.shape)[()]
