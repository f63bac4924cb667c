"""Spectra as certified root sets of characteristic functions.

A spectrum here is the ordered list of the zeros of an entire function
inside a rectangle [floor, window] x [-im_window, im_window], each
polished by the secant iteration and listed with its multiplicity.  The
rectangle is cut into vertical cells at the midpoints of the
leading-order law (n^2 or (n - 1/2)^2), and one sampling of the cell
edges, each wall shared by the two cells it separates, counts the roots
of every cell by the argument principle.  The secant polish from the
law's seeds finds most roots.  In a cell whose count exceeds the roots
found there, the same samples give the moments

    s_k = (1/2 pi i) oint z^k dlog Delta

as Stieltjes sums (Delves & Lyness, Math. Comp. 21, 1967).  Deflated by
the known roots they are the power sums of the missing ones, and those
are the eigenvalues of a pencil of two Hankel matrices of the sums
(Kravanja & Van Barel, LNM 1727, 2000); the secant polishes them.  A
multiplicity is read only from a count on a small square around its
root.  If a cell's count and its roots still disagree, the computation
refuses to report.

The secant costs one Delta point per guess and step (two on the first),
and its order (1 + sqrt 5) / 2 makes it cheaper per point than a Newton
step on a 3-point difference (Traub, Iterative Methods for the Solution
of Equations, 1964).  Each root keeps Delta at its last iterate, and
that is the residual reported.  The characteristic function only enters
through an evaluation callable accepting arrays of complex points, so
the closed-form and the direct-integration routes plug in
interchangeably.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourError,
    DomainError,
    IncompleteSpectrumError,
    PreconditionError,
    RefinementError,
)

__all__ = [
    "SpectrumEntry",
    "Spectrum",
    "CellCounts",
    "initial_guesses",
    "refine_root",
    "count_roots",
    "compute_spectrum",
    "compare",
]

_TWO_PI = 2.0 * np.pi
_RE_TIE = 1e-7
# roots closer than _SAME * (1 + |lambda|) are one root
_SAME = 1e-6
# a contour sample with |Delta| <= _ON_CONTOUR * (1 + |z|) counts as a root
_ON_CONTOUR = 1e-8
# secant steps for the law's seeds; a seed still wandering after them is
# dropped, and the moments of its cell locate the root it missed
_SEED_STEPS = 12

# Contour sampling.  An edge starts with samples at most _EDGE_STEP times
# its rectangle's height apart, and at least _MIN_INTERVALS intervals;
# an interval is bisected while its phase step reaches pi/2 and, in a
# cell whose moments are taken, while |log(v1 / v0)| exceeds _MOMENT_STEP.
_EDGE_STEP = 0.125
_MIN_INTERVALS = 4
_MOMENT_STEP = 0.25
_BUDGET = 20000


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue: 1-based index, location, and |Delta| there."""

    n: int
    lam: complex
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Certified root list inside Re <= window, |Im| <= im_window.

    Entries are ordered by (Re, Im) with real parts compared to a small
    relative tolerance: the two members of a conjugate pair agree in Re
    only to rounding, and an exact lexicographic sort would order such a
    pair differently from run to run.
    """

    entries: tuple
    window: float
    im_window: float
    certified_count: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.certified_count:
            raise DomainError(
                f"{len(self.entries)} entries but certified count {self.certified_count}"
            )
        for k, entry in enumerate(self.entries):
            if entry.n != k + 1:
                raise DomainError("entry indices must run 1, 2, ...")
            if entry.residual > 1e-8 * (1.0 + abs(entry.lam)):
                raise DomainError(
                    f"entry {entry.n} residual {entry.residual:.3e} too large"
                )
        lams = [e.lam for e in self.entries]
        if lams != _root_order(lams):
            raise DomainError("entries must be sorted by (Re, Im)")

    def lambdas(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries], dtype=complex)

    def to_csv(self) -> str:
        lines = ["n,re_lambda,im_lambda,residual"]
        for e in self.entries:
            lines.append(
                f"{e.n},{e.lam.real:.17g},{e.lam.imag:.17g},{e.residual:.17g}"
            )
        return "\n".join(lines) + "\n"


def initial_guesses(nu: int, j: int, count: int):
    """Leading-order eigenvalue locations for the (nu, j) problem.

    The characteristic function is dominated by sin(rho pi)/rho when
    j = nu and by cos(rho pi) otherwise, so the seeds are n^2 and
    (n - 1/2)^2.
    """
    if nu not in (0, 1) or j not in (0, 1):
        raise PreconditionError("nu and j must each be 0 or 1")
    if count < 1:
        raise PreconditionError(f"need count >= 1, got {count}")
    if nu == j:
        return [complex(n * n) for n in range(1, count + 1)]
    return [complex((n - 0.5) ** 2) for n in range(1, count + 1)]


def _refine_many(delta, guesses, tol, max_iter: int = 50):
    """Secant-polish a batch of guesses through batched evaluations.

    Returns (roots, converged, values) with one slot per guess: the last
    point at which Delta was evaluated, whether it converged there, and
    Delta there.  The first step of a guess takes the slope from a
    forward difference with step 1e-6 * (1 + |guess|); every later step
    costs one point and takes it through the guess's previous iterate.
    A guess has converged when both |Delta| and the last step are below
    tol * (1 + |lambda|); one whose Delta did not change over its last
    step (a zero slope) is given up.
    """
    lam = np.asarray(guesses, dtype=complex).copy()
    m = lam.size
    prev = lam.copy()
    vals = np.full(m, np.nan, dtype=complex)
    last_step = np.zeros(m)
    done = np.zeros(m, dtype=bool)
    dead = np.zeros(m, dtype=bool)
    for it in range(max_iter):
        live = ~(done | dead)
        if not live.any():
            break
        zl = lam[live]
        k = zl.size
        if it == 0:
            h = 1e-6 * (1.0 + np.abs(zl))
            got = np.asarray(delta(np.concatenate([zl, zl + h])), dtype=complex)
            f, rise, run = got[:k], got[k:] - got[:k], h
        else:
            f = np.asarray(delta(zl), dtype=complex)
            rise, run = f - vals[live], zl - prev[live]
        scale = tol * (1.0 + np.abs(zl))
        ok = (np.abs(f) <= scale) & (last_step[live] <= scale)
        flat = (rise == 0.0) & ~ok
        move = ~(ok | flat)
        step = np.zeros(k, dtype=complex)
        step[move] = f[move] / (rise[move] / run[move])
        idx = np.flatnonzero(live)
        prev[idx], vals[idx] = zl, f
        lam[idx] = zl - step
        last_step[idx] = np.abs(step)
        done[idx[ok]] = True
        dead[idx[flat]] = True
    return prev, done, vals


def refine_root(delta, lam0: complex, tol: float = 1e-10) -> complex:
    """Polish one root by the secant iteration of ``_refine_many``.

    Converged means |Delta(lam)| <= tol * (1 + |lam|) and the final
    step at most the same bound, within 50 iterations; otherwise a
    refinement error carries the last iterate and Delta there.
    """
    lam0 = complex(lam0)
    if not np.isfinite(lam0.real) or not np.isfinite(lam0.imag):
        raise DomainError(f"starting point must be finite, got {lam0}")
    roots, ok, vals = _refine_many(delta, [lam0], tol)
    lam = complex(roots[0])
    if not ok[0]:
        raise RefinementError(
            f"no convergence from {lam0} after 50 iterations",
            last=lam,
            last_value=complex(vals[0]),
        )
    return lam


def _is_new(lam, roots):
    return all(abs(lam - r) >= _SAME * (1.0 + abs(r)) for r in roots)


class _ContourTooClose(Exception):
    """Internal: a sample of edge ``edge`` sits within root tolerance of zero."""

    def __init__(self, edge: int):
        super().__init__(edge)
        self.edge = edge


def _phase_too_coarse(ratio):
    return np.abs(np.angle(ratio)) >= 0.5 * np.pi


def _log_too_coarse(ratio):
    return np.abs(np.log(ratio)) > _MOMENT_STEP


class _Net:
    """Delta sampled on the edges of vertical cells cut from one rectangle.

    ``xs`` are the cells' walls, left to right, and [y0, y1] their
    imaginary range.  Edge 2k is the bottom side of cell k and edge
    2k + 1 its top side, both left to right; edge 2n + k is the wall at
    xs[k], bottom to top.  Neighbouring cells share their wall's samples,
    and every corner is evaluated once.
    """

    def __init__(self, delta, xs, y0, y1):
        self.delta, self.xs, self.y0, self.y1 = delta, xs, y0, y1
        n = self.n = len(xs) - 1
        corners = np.concatenate([np.asarray(xs) + 1j * y0, np.asarray(xs) + 1j * y1])
        ends = [(k + side * (n + 1), k + 1 + side * (n + 1)) for k in range(n) for side in (0, 1)]
        ends += [(k, k + n + 1) for k in range(n + 1)]
        step = _EDGE_STEP * (y1 - y0)
        inner = []
        for a, b in ends:
            za, zb = corners[a], corners[b]
            m = max(_MIN_INTERVALS, int(np.ceil(abs(zb - za) / step)))
            inner.append(za + (zb - za) * (np.arange(1, m) / m))
        owner = [2 * n + np.arange(2 * n + 2) % (n + 1)]
        owner += [np.full(p.size, e) for e, p in enumerate(inner)]
        v = self._eval(np.concatenate([corners, *inner]), np.concatenate(owner))
        vc = v[: corners.size]
        vi = np.split(v[corners.size :], np.cumsum([p.size for p in inner])[:-1])
        self.z = [np.concatenate([[corners[a]], p, [corners[b]]]) for (a, b), p in zip(ends, inner)]
        self.v = [np.concatenate([[vc[a]], q, [vc[b]]]) for (a, b), q in zip(ends, vi)]

    def _eval(self, z, owner):
        v = np.asarray(self.delta(z), dtype=complex)
        close = np.flatnonzero(np.abs(v) <= _ON_CONTOUR * (1.0 + np.abs(z)))
        if close.size:
            raise _ContourTooClose(int(owner[close[0]]))
        return v

    def refine(self, edges, too_coarse):
        """Bisect the intervals of ``edges`` where ``too_coarse(v1 / v0)``.

        All edges are refined together, one Delta call per round, until
        no interval is too coarse.
        """
        while True:
            picks = [(e, np.flatnonzero(too_coarse(self.v[e][1:] / self.v[e][:-1]))) for e in edges]
            picks = [(e, i) for e, i in picks if i.size]
            if not picks:
                return
            mids = [0.5 * (self.z[e][i] + self.z[e][i + 1]) for e, i in picks]
            if sum(z.size for z in self.z) + sum(m.size for m in mids) > _BUDGET:
                raise ContourError("contour sampling budget exhausted")
            owner = np.concatenate([np.full(i.size, e) for e, i in picks])
            vals = self._eval(np.concatenate(mids), owner)
            at = 0
            for (e, i), m in zip(picks, mids):
                self.z[e] = np.insert(self.z[e], i + 1, m)
                self.v[e] = np.insert(self.v[e], i + 1, vals[at : at + i.size])
                at += i.size

    def cell_edges(self, k):
        """Cell k's boundary, counterclockwise, as (edge, direction) pairs."""
        n = self.n
        return ((2 * k, 1), (2 * n + k + 1, 1), (2 * k + 1, -1), (2 * n + k, -1))

    def counts(self):
        phase = [float(np.sum(np.angle(v[1:] / v[:-1]))) for v in self.v]
        out = []
        for k in range(self.n):
            turns = sum(d * phase[e] for e, d in self.cell_edges(k)) / _TWO_PI
            count = int(np.rint(turns))
            if abs(turns - count) > 0.25:
                raise ContourError(f"accumulated phase {turns:.3f} turns is not an integer")
            out.append(count)
        return out

    def moments(self, k, order):
        """(center, scale, s), s[m] = (1/2 pi i) oint ((z - center) / scale)^m dlog Delta.

        Stieltjes sums over the samples of cell k's boundary: the power
        is taken at the middle of each interval, dlog Delta is the exact
        log(v1 / v0) of its ends.
        """
        z = np.concatenate([self.z[e][::d][1:] for e, d in self.cell_edges(k)])
        v = np.concatenate([self.v[e][::d][1:] for e, d in self.cell_edges(k)])
        z, v = np.concatenate([z[-1:], z]), np.concatenate([v[-1:], v])
        xs = self.xs
        center = complex(0.5 * (xs[k] + xs[k + 1]), 0.5 * (self.y0 + self.y1))
        scale = 0.5 * max(xs[k + 1] - xs[k], self.y1 - self.y0)
        zm = (0.5 * (z[:-1] + z[1:]) - center) / scale
        dlog = np.log(v[1:] / v[:-1])
        return center, scale, np.vander(zm, order, increasing=True).T @ dlog / (2j * np.pi)


@dataclass(frozen=True)
class CellCounts:
    """Root counts of the vertical cells of one rectangle.

    Cell k is [walls[k], walls[k + 1]] x [im[0], im[1]] and holds
    counts[k] roots with multiplicity.  moments[k] is None or, for a
    cell holding more roots than it was told of, (center, scale, s)
    with s[m] = (1/2 pi i) oint ((z - center) / scale)^m dlog Delta
    for m < 2 counts[k].
    """

    walls: tuple
    im: tuple
    counts: tuple
    moments: tuple


def _sample_cells(delta, xs, y0, y1, known):
    net = _Net(delta, xs, y0, y1)
    net.refine(range(len(net.z)), _phase_too_coarse)
    counts = net.counts()

    def short(k):
        inside = sum(xs[k] <= r.real < xs[k + 1] and y0 <= r.imag <= y1 for r in known)
        return counts[k] > inside

    dense = []
    while True:
        todo = [k for k in range(net.n) if k not in dense and short(k)]
        if not todo:
            break
        net.refine(sorted({e for k in todo for e, _ in net.cell_edges(k)}), _log_too_coarse)
        dense += todo
        counts = net.counts()
    moments = tuple(
        net.moments(k, 2 * counts[k]) if k in dense and short(k) else None for k in range(net.n)
    )
    return CellCounts(tuple(xs), (y0, y1), tuple(counts), moments)


def count_roots(delta, rectangle, cuts=(), known=()) -> CellCounts:
    """Roots (with multiplicity) inside a rectangle, by winding number.

    ``rectangle`` is a (lower-left, upper-right) pair of complex
    corners.  The phase is accumulated over an adaptively refined
    sampling where every increment stays below pi/2.  A sample too
    close to a zero of Delta moves the edge it lies on outward, a wall
    by 1% of the narrower cell beside it and the top and bottom by a 1%
    dilation of the imaginary range, up to five times, after which a
    contour error is raised.

    The rectangle is split into vertical cells at ``cuts`` (real parts
    strictly inside it, none by default) and the counts are returned as
    a ``CellCounts``; all cells come from one sampling in which
    neighbours share their wall.  A cell holding more roots than
    ``known`` places in it (roots within 1e-6 relative of each other
    counted once) is sampled more densely and carries its moments.
    """
    lo, hi = complex(rectangle[0]), complex(rectangle[1])
    if not (hi.real > lo.real and hi.imag > lo.imag):
        raise DomainError("rectangle corners must be ordered lower-left, upper-right")
    xs = [lo.real, *sorted(float(c) for c in cuts), hi.real]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("cuts must lie strictly inside the rectangle")
    y0, y1 = lo.imag, hi.imag
    distinct = []
    for r in known:
        if _is_new(complex(r), distinct):
            distinct.append(complex(r))
    n = len(xs) - 1
    for _ in range(6):
        try:
            return _sample_cells(delta, xs, y0, y1, distinct)
        except _ContourTooClose as hit:
            if hit.edge < 2 * n:
                mid, half = 0.5 * (y0 + y1), 0.505 * (y1 - y0)
                y0, y1 = mid - half, mid + half
            else:
                k = hit.edge - 2 * n
                near = float(np.diff(xs)[max(k - 1, 0) : k + 1].min())
                xs[k] += 0.01 * near if k == n else -0.01 * near
    raise ContourError("a root stayed on the contour through five moves")


def _root_order(roots):
    """(Re, Im) order with real parts compared to a relative tolerance.

    Roots whose real parts agree to within the tolerance form one group
    ordered by imaginary part, so a conjugate pair keeps a stable order
    no matter which member's Re came out a few ulps smaller.
    """
    roots = sorted(roots, key=lambda lam: lam.real)
    out = []
    i = 0
    while i < len(roots):
        k = i + 1
        while (
            k < len(roots)
            and roots[k].real - roots[k - 1].real <= _RE_TIE * (1.0 + abs(roots[k].real))
        ):
            k += 1
        out.extend(sorted(roots[i:k], key=lambda lam: lam.imag))
        i = k
    return out


def _hankel_roots(moments, known, count):
    """The roots a contour holds besides ``known``, from its moments.

    Deflated by the known roots (each counted once), the moments are the
    power sums of the missing ones, and those are the eigenvalues of the
    pencil of the power sums' Hankel matrices, as many distinct ones as
    the first matrix has numerical rank.  Eigenvalues beyond twice the
    contour's scale are noise and are dropped.
    """
    center, scale, s = moments
    d = count - len(known)
    if d < 1:
        return []
    zk = (np.asarray(known, dtype=complex) - center) / scale
    p = s[: 2 * d] - np.vander(zk, 2 * d, increasing=True).sum(axis=0)
    idx = np.add.outer(np.arange(d), np.arange(d))
    h0, h1 = p[idx], p[idx + 1]
    try:
        sv = np.linalg.svd(h0, compute_uv=False)
        r = int(np.sum(sv > 1e-6 * sv[0]))
        ev = np.linalg.eigvals(np.linalg.solve(h0[:r, :r], h1[:r, :r]))
    except np.linalg.LinAlgError:
        return []
    ev = ev[np.isfinite(ev) & (np.abs(ev) <= 2.0)]
    return [complex(center + scale * e) for e in ev]


_Cell = namedtuple("_Cell", "x0 x1 y0 y1 count moments")


class _Census:
    """The cells certified so far and the distinct roots located in them.

    ``values`` maps each root to Delta there, as the polish left it.
    """

    def __init__(self, delta, tol):
        self.delta, self.tol = delta, tol
        self.cells = []
        self.lefts = []
        self.roots = []
        self.values = {}

    def add(self, result: CellCounts):
        y0, y1 = result.im
        walls = result.walls
        for x0, x1, count, mom in zip(walls, walls[1:], result.counts, result.moments):
            self.cells.append(_Cell(x0, x1, y0, y1, count, mom))
        self.cells.sort(key=lambda c: c.x0)
        self.lefts = [c.x0 for c in self.cells]

    def cell_of(self, lam):
        # the cells are sorted and disjoint in Re, so only the last one
        # starting at or left of lam can hold it
        k = bisect_right(self.lefts, lam.real) - 1
        if k >= 0:
            c = self.cells[k]
            if lam.real < c.x1 and c.y0 <= lam.imag <= c.y1:
                return k
        return None

    def inside(self, k):
        return [r for r in self.roots if self.cell_of(r) == k]

    def nearest(self, lam):
        return min(self.roots, key=lambda r: abs(r - lam))

    def polish(self, guesses, max_iter: int = 50):
        """The secant polish from ``guesses``: (landing points, converged flags, Delta there)."""
        return _refine_many(self.delta, guesses, self.tol, max_iter)

    def take(self, landed, ok, vals) -> int:
        """Add the converged roots of a polish that are new and lie in a cell; returns how many.

        A root within 1% (relative) of a known one is new only if a
        contour could pass between the two: |Delta| at their midpoint
        must exceed 100 times the level at which a contour sample counts
        as a root.  Closer roots form one cluster (the polish leaves a
        multiple root only to the residual tolerance), and a count
        around it reads its size.
        """
        added = 0
        for lam, good, value in zip(landed, ok, vals):
            lam = complex(lam)
            if not good or not _is_new(lam, self.roots) or self.cell_of(lam) is None:
                continue
            if self.roots:
                mid = 0.5 * (lam + self.nearest(lam))
                if abs(mid - lam) < 0.005 * (1.0 + abs(mid)):
                    v = np.asarray(self.delta(np.array([mid])), dtype=complex)[0]
                    if abs(v) <= 100.0 * _ON_CONTOUR * (1.0 + abs(mid)):
                        continue
            self.roots.append(lam)
            self.values[lam] = complex(value)
            added += 1
        return added


def _locate(census):
    """Polish what the cells' moments point at until a round finds no new root."""
    for _ in range(sum(c.count for c in census.cells) + 1):
        pointers = []
        for k, c in enumerate(census.cells):
            if c.moments is not None:
                pointers += _hankel_roots(c.moments, census.inside(k), c.count)
        if not census.take(*census.polish(pointers)):
            return


def _square(census, k, r):
    """Count and moments of a square centred on root r of cell k, clear of the other roots."""
    c = census.cells[k]
    half = 0.25 * min(c.x1 - c.x0, c.y1 - c.y0)
    for q in census.roots:
        if q != r:
            half = min(half, 0.4 * abs(q - r))
    corner = half * (1.0 + 1.0j)
    return count_roots(census.delta, (r - corner, r + corner), known=[r])


def _multiplicities(census):
    """The located roots of every cell, each listed with its multiplicity.

    A cell whose count equals its located roots holds them all simple.
    Otherwise each root gets a square centred on it and clear of the
    other known roots.  Deflated by the root, the square's moments point
    at any root hiding close by (a pair too close for the cell's moments
    to separate); such a root is added and the squares drawn again.
    When every pointer polishes back onto its root, the square's count
    is that root's multiplicity.  A cell whose count still differs from
    its roots raises an incompleteness error.
    """
    mult = {}
    for k, c in enumerate(census.cells):
        for _ in range(max(c.count, 0)):
            inside = census.inside(k)
            if len(inside) >= c.count:
                break
            squares = [_square(census, k, r) for r in inside]
            pointers = [
                _hankel_roots(sq.moments[0], [r], sq.counts[0]) if sq.moments[0] is not None else []
                for r, sq in zip(inside, squares)
            ]
            landed, ok, vals = census.polish([p for ps in pointers for p in ps])
            if census.take(landed, ok, vals):
                continue
            at = 0
            for r, sq, ps in zip(inside, squares, pointers):
                back = all(
                    good and census.nearest(complex(x)) == r
                    for x, good in zip(landed[at : at + len(ps)], ok[at : at + len(ps)])
                )
                at += len(ps)
                if sq.counts[0] <= 1 or (ps and back):
                    mult[r] = sq.counts[0]
            break
    listed = []
    for k, c in enumerate(census.cells):
        roots = [r for r in census.inside(k) for _ in range(mult.get(r, 1))]
        if len(roots) != c.count:
            raise IncompleteSpectrumError(
                f"winding count {c.count} vs {len(roots)} located roots in "
                f"[{c.x0:.3f}, {c.x1:.3f}] x [{c.y0:.3f}, {c.y1:.3f}]i"
            )
        listed += roots
    return listed


def compute_spectrum(
    delta,
    nu: int,
    j: int,
    n_max: int,
    tol: float = 1e-10,
    im_window: float = 10.0,
) -> Spectrum:
    """The eigenvalues in the first n_max cells, each cell winding-certified.

    The rectangle [left margin, midpoint beyond seed n_max] x
    [-im_window, im_window] is cut into n_max cells at the midpoints of
    the seeds of ``initial_guesses``, and every cell's roots are counted
    from one contour sampling.  The secant polish refines every seed for
    at most 12 steps; where a cell's count exceeds the roots found in it, the
    moments of its contour samples locate the missing ones (see the
    module docstring).
    A root within 1 of the floor adds a cell of width 5 below it, up to
    three times.  Multiplicities come from counts on small squares
    around the roots, and a cell whose count still differs from its
    roots raises an incompleteness error rather than returning a
    spectrum with holes.  Each entry's residual is |Delta| at the point
    where its polish stopped.  ``window`` and ``im_window`` of the result
    are the rectangle's right edge and half-height after any move off a
    root.
    """
    if n_max < 1:
        raise PreconditionError(f"need n_max >= 1, got {n_max}")
    law = [g.real for g in initial_guesses(nu, j, n_max + 1)]
    re_hi = 0.5 * (law[-2] + law[-1])
    # The margin below the first seed is a fixed number, not a fraction
    # of the first gap: the low eigenvalues shift by an amount of order
    # one (set by the potential's mean) that does not scale with the
    # seed spacing.
    re_lo = law[0] - max(1.5 * (law[1] - law[0]), 5.0)
    cuts = [0.5 * (a + b) for a, b in zip(law[:-2], law[1:-1])]

    census = _Census(delta, tol)
    polished = census.polish(law[:-1], _SEED_STEPS)
    seeds = [complex(x) for x, good in zip(*polished[:2]) if good]
    rect = (complex(re_lo, -im_window), complex(re_hi, im_window))
    census.add(count_roots(delta, rect, cuts=cuts, known=seeds))
    census.take(*polished)
    for extension in range(4):
        _locate(census)
        floor = census.cells[0]
        if extension == 3 or all(r.real >= floor.x0 + 1.0 for r in census.roots):
            break
        # a root hugging the floor suggests the lowest eigenvalue may lie below
        below = (complex(floor.x0 - 5.0, floor.y0), complex(floor.x0, floor.y1))
        census.add(count_roots(delta, below, known=census.roots))

    listed = _root_order(_multiplicities(census))
    entries = tuple(
        SpectrumEntry(n=k + 1, lam=lam, residual=abs(census.values[lam]))
        for k, lam in enumerate(listed)
    )
    top = census.cells[-1]
    return Spectrum(
        entries=entries,
        window=top.x1,
        im_window=top.y1,
        certified_count=sum(c.count for c in census.cells),
    )


def compare(s1: Spectrum, s2: Spectrum) -> float:
    """Largest relative gap between two spectra, matched by sort order."""
    if len(s1.entries) != len(s2.entries):
        raise PreconditionError(
            f"entry counts differ: {len(s1.entries)} vs {len(s2.entries)}"
        )
    worst = 0.0
    for e1, e2 in zip(s1.entries, s2.entries):
        worst = max(worst, abs(e1.lam - e2.lam) / (1.0 + abs(e1.lam)))
    return worst
