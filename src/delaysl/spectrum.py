"""Spectra as certified root sets of characteristic functions.

A spectrum here is the ordered list of the zeros of an entire function
inside a rectangle [floor, window] x [-im_window, im_window], each
polished by the secant iteration and listed with its multiplicity.  The
rectangle is cut into vertical cells at the midpoints of the
leading-order law (n^2 or (n - 1/2)^2), and one sampling of the cell
edges, each wall shared by the two cells it separates, counts the roots
of every cell by the argument principle.  What is sampled is not Delta
but Delta / Delta_0, Delta_0 the characteristic function of the zero
potential (cos rho pi, sin(rho pi) / rho or -rho sin rho pi, rho =
sqrt lambda), whose zeros are the law.  The ratio is 1 + O(1/rho) and
turns slowly, so few samples certify its phase, and Delta winds around
a cell as often as the ratio does plus the zeros of Delta_0 inside.
The secant polish from the law's seeds finds most roots.  In a cell
whose count exceeds the roots found there, the same samples give the
moments

    s_k = (1/2 pi i) oint z^k dlog Delta

as Stieltjes sums (Delves & Lyness, Math. Comp. 21, 1967): the sums of
dlog of the ratio, plus the k-th powers of the zeros of Delta_0 in the
cell.  Deflated by the known roots they are the power sums of the
missing ones, and those are the eigenvalues of a pencil of two Hankel
matrices of the sums (Kravanja & Van Barel, LNM 1727, 2000); the secant
polishes them.

The moments are taken in two rungs.  The first reads them off the
samples that certify the count, whose phase steps stay below pi/2, and
polishes their pointers for as few steps as the seeds get.  Most
missing roots are found there.  Only a cell still short of its count
has its edges sampled further, no farther apart than Delta's own
samples start and until |log(v1 / v0)| between neighbour samples is
small, and the second rung polishes the pointers of its retaken moments
to convergence.  The polish, the test of a sample against a root and
``count_roots`` all take Delta itself.  A multiplicity is read only
from a count on a small square around its root.  If a cell's count and
its roots still disagree, the computation refuses to report.

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
# secant steps for the law's seeds and for the pointers of the first
# moments; a guess still wandering after them is dropped, and the moments
# of its cell locate the root it missed
_SEED_STEPS = 12

# Contour sampling.  An edge of Delta starts with samples at most
# _EDGE_STEP times its rectangle's height apart, and at least
# _MIN_INTERVALS intervals; an edge of Delta / Delta_0 starts with
# _MIN_INTERVALS intervals.  An interval is bisected while its phase step
# reaches pi/2.  In a cell that the first moments leave short of roots,
# an interval is split into equal ones no longer than _EDGE_STEP times
# the height, and into |log(v1 / v0)| / _MOMENT_STEP ones at least, until
# no |log(v1 / v0)| exceeds _MOMENT_STEP.
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


@dataclass(frozen=True)
class _Free:
    """Delta_0, the characteristic function of the zero potential for (nu, j).

    Called on an array of lambda it returns cos(rho pi) when nu != j,
    sin(rho pi) / rho when nu = j = 0 and -rho sin(rho pi) when
    nu = j = 1, rho = sqrt(lambda).  It takes numpy on rho alone, not the
    closed forms, so a route it divides stays independent of them.
    ``zeros(count)`` lists its first ``count`` zeros, all real and simple:
    (n - 1/2)^2 when nu != j, and n^2 from n = 1 for nu = j = 0 and from
    n = 0 for nu = j = 1.
    """

    nu: int
    j: int

    def __call__(self, lam):
        rho = np.sqrt(np.asarray(lam, dtype=complex))
        if self.nu != self.j:
            return np.cos(np.pi * rho)
        if self.nu == 0:
            return np.pi * np.sinc(rho)
        return -rho * np.sin(np.pi * rho)

    def zeros(self, count):
        n = np.arange(count, dtype=float)
        return (n + 0.5) ** 2 if self.nu != self.j else (n + 1.0 - self.nu) ** 2


def _in_box(z, box):
    lo, hi = box
    return (z.real >= lo.real) & (z.real <= hi.real) & (z.imag >= lo.imag) & (z.imag <= hi.imag)


def _refine_many(delta, guesses, tol, max_iter: int = 50, box=None):
    """Secant-polish a batch of guesses through batched evaluations.

    Returns (roots, converged, values) with one slot per guess: the last
    point at which Delta was evaluated, whether it converged there, and
    Delta there.  The first step of a guess takes the slope from a
    forward difference with step 1e-6 * (1 + |guess|); every later step
    costs one point and takes it through the guess's previous iterate.
    A guess has converged when both |Delta| and the last step are below
    tol * (1 + |lambda|); one whose Delta did not change over its last
    step (a zero slope), or was not finite at either end of it, is given
    up, so a guess where Delta is not finite costs its first two points.
    With a ``box`` (lower-left, upper-right corners) a guess is also
    given up as soon as it lies outside the box, before Delta is taken
    there; one that starts outside keeps its guess and a nan value.
    """
    lam = np.asarray(guesses, dtype=complex).copy()
    m = lam.size
    prev = lam.copy()
    vals = np.full(m, np.nan, dtype=complex)
    last_step = np.zeros(m)
    done = np.zeros(m, dtype=bool)
    dead = np.zeros(m, dtype=bool) if box is None else ~_in_box(lam, box)
    for it in range(max_iter):
        live = ~(done | dead)
        if not live.any():
            break
        zl = lam[live]
        k = zl.size
        if it == 0:
            h = 1e-6 * (1.0 + np.abs(zl))
            got = np.asarray(delta(np.concatenate([zl, zl + h])), dtype=complex)
            f, top, bottom, run = got[:k], got[k:], got[:k], h
        else:
            f = np.asarray(delta(zl), dtype=complex)
            top, bottom, run = f, vals[live], zl - prev[live]
        lost = ~(np.isfinite(top) & np.isfinite(bottom))
        rise = np.subtract(top, bottom, out=np.zeros(k, dtype=complex), where=~lost)
        scale = tol * (1.0 + np.abs(zl))
        ok = (np.abs(f) <= scale) & (last_step[live] <= scale)
        flat = ((rise == 0.0) | lost) & ~ok
        move = ~(ok | flat)
        step = np.zeros(k, dtype=complex)
        step[move] = f[move] / (rise[move] / run[move])
        idx = np.flatnonzero(live)
        prev[idx], vals[idx] = zl, f
        lam[idx] = zl - step
        last_step[idx] = np.abs(step)
        done[idx[ok]] = True
        dead[idx[flat]] = True
        if box is not None:
            dead[idx[move & ~_in_box(lam[idx], box)]] = True
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


def _phase_pieces(z, v, step):
    """Two pieces for an interval across which the phase turns by pi/2 or more, else one."""
    return 1 + (np.abs(np.angle(v[1:] / v[:-1])) >= 0.5 * np.pi)


def _moment_pieces(z, v, step):
    """Equal pieces no longer than ``step``, and at least |log(v1 / v0)| / _MOMENT_STEP of them."""
    # the slack keeps an interval already cut to ``step`` from reading a rounding longer
    spaced = np.ceil(np.abs(np.diff(z)) / step - 1e-9)
    return np.maximum(spaced, np.ceil(np.abs(np.log(v[1:] / v[:-1])) / _MOMENT_STEP))


class _Net:
    """Delta, or Delta / Delta_0 with ``free``, sampled on the edges of vertical cells.

    ``xs`` are the walls of the cells cut from one rectangle, left to
    right, and [y0, y1] their imaginary range.  Edge 2k is the bottom
    side of cell k and edge 2k + 1 its top side, both left to right; edge
    2n + k is the wall at xs[k], bottom to top.  Neighbouring cells share
    their wall's samples, and every corner is evaluated once.  A sample
    hits a root when |Delta| itself is small.  On the ratio (``free`` a
    ``_Free``), the zeros of Delta_0 inside a cell are added back to its
    count and to its moments, so both are those of Delta: by the argument
    principle Delta winds as often as the ratio plus the zeros of Delta_0
    it encloses.  The ratio is 1 + O(1/rho) and turns slowly, so its
    edges start from _MIN_INTERVALS intervals.
    """

    def __init__(self, delta, xs, y0, y1, free=None):
        self.delta, self.xs, self.y0, self.y1, self.free = delta, xs, y0, y1, free
        n = self.n = len(xs) - 1
        corners = np.concatenate([np.asarray(xs) + 1j * y0, np.asarray(xs) + 1j * y1])
        ends = [(k + side * (n + 1), k + 1 + side * (n + 1)) for k in range(n) for side in (0, 1)]
        ends += [(k, k + n + 1) for k in range(n + 1)]
        self.step = _EDGE_STEP * (y1 - y0)
        inner = []
        for a, b in ends:
            za, zb = corners[a], corners[b]
            m = _MIN_INTERVALS
            if free is None:
                m = max(m, int(np.ceil(abs(zb - za) / self.step)))
            inner.append(za + (zb - za) * (np.arange(1, m) / m))
        zeros = np.zeros(0)
        if free is not None and y0 < 0.0 < y1:
            # enough zeros that the last lies beyond the rectangle
            zeros = free.zeros(int(np.sqrt(max(xs[-1], 0.0))) + 2)
        self.zeros = [zeros[(zeros > xs[k]) & (zeros < xs[k + 1])] for k in range(n)]
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
        return v if self.free is None else v / self.free(z)

    def refine(self, edges, pieces):
        """Split each interval of ``edges`` into ``pieces(z, v, step)`` equal ones.

        ``step`` is _EDGE_STEP times the height.  All edges are refined
        together, one Delta call per round, until every interval is left
        in one piece.
        """
        edges = list(edges)
        while True:
            ends = np.cumsum([self.z[e].size for e in edges])
            z = np.concatenate([self.z[e] for e in edges])
            v = np.concatenate([self.v[e] for e in edges])
            p = pieces(z, v, self.step).astype(int)
            p[ends[:-1] - 1] = 1  # the gaps from one edge to the next
            i = np.flatnonzero(p > 1)
            if not i.size:
                return
            k = p[i] - 1
            at = np.repeat(i, k)
            t = np.arange(at.size) - np.repeat(np.cumsum(k) - k, k) + 1.0
            new = (z[at] * (p[at] - t) + z[at + 1] * t) / p[at]
            if sum(z.size for z in self.z) + new.size > _BUDGET:
                raise ContourError("contour sampling budget exhausted")
            which = np.searchsorted(ends, at, side="right")
            vals = self._eval(new, np.asarray(edges)[which])
            ends = ends + np.cumsum(np.bincount(which, minlength=len(edges)))
            z, v = np.insert(z, at + 1, new), np.insert(v, at + 1, vals)
            for e, ze, ve in zip(edges, np.split(z, ends[:-1]), np.split(v, ends[:-1])):
                self.z[e], self.v[e] = ze, ve

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
            out.append(count + self.zeros[k].size)
        return out

    def moments(self, k, order):
        """(center, scale, s), s[m] = (1/2 pi i) oint ((z - center) / scale)^m dlog Delta.

        Stieltjes sums over the samples of cell k's boundary: the power
        is taken at the middle of each interval, dlog is the exact
        log(v1 / v0) of its ends.  On the ratio, the sums of the powers
        at the zeros of Delta_0 in the cell are added.
        """
        z = np.concatenate([self.z[e][::d][1:] for e, d in self.cell_edges(k)])
        v = np.concatenate([self.v[e][::d][1:] for e, d in self.cell_edges(k)])
        z, v = np.concatenate([z[-1:], z]), np.concatenate([v[-1:], v])
        xs = self.xs
        center = complex(0.5 * (xs[k] + xs[k + 1]), 0.5 * (self.y0 + self.y1))
        scale = 0.5 * max(xs[k + 1] - xs[k], self.y1 - self.y0)
        zm = (0.5 * (z[:-1] + z[1:]) - center) / scale
        dlog = np.log(v[1:] / v[:-1])
        s = np.vander(zm, order, increasing=True).T @ dlog / (2j * np.pi)
        z0 = (self.zeros[k] - center) / scale
        return center, scale, s + np.vander(z0, order, increasing=True).sum(axis=0)


@dataclass(frozen=True)
class CellCounts:
    """Root counts of the vertical cells of one rectangle.

    Cell k is [walls[k], walls[k + 1]] x [im[0], im[1]] and holds
    counts[k] roots with multiplicity.  moments[k] is None or, for a
    cell holding more roots than it was told of, (center, scale, s)
    with s[m] = (1/2 pi i) oint ((z - center) / scale)^m dlog Delta
    for m < 2 counts[k].  The moments come from the samples as they
    stood when the cells were read: the phase-certified ones on the
    first rung of ``compute_spectrum``, the densified ones after
    ``count_roots`` and on the second rung.
    """

    walls: tuple
    im: tuple
    counts: tuple
    moments: tuple


def _distinct(roots):
    """The roots with those within 1e-6 relative of an earlier one dropped."""
    out = []
    for r in roots:
        if _is_new(complex(r), out):
            out.append(complex(r))
    return out


class _Sampling:
    """The cells of one rectangle, counted on a phase-certified ``_Net`` that is kept.

    ``rectangle`` and ``cuts`` are as in ``count_roots``; with a ``_Free``
    as ``free`` the net samples Delta / Delta_0.  A sample too close to a
    zero of Delta moves the edge it lies on outward, a wall by 1% of the
    narrower cell beside it and the top and bottom by a 1% dilation of the
    imaginary range, and the rectangle is sampled afresh; the sixth such
    sample raises a contour error.
    """

    def __init__(self, delta, rectangle, cuts=(), free=None):
        lo, hi = complex(rectangle[0]), complex(rectangle[1])
        if not (hi.real > lo.real and hi.imag > lo.imag):
            raise DomainError("rectangle corners must be ordered lower-left, upper-right")
        self.xs = [lo.real, *sorted(float(c) for c in cuts), hi.real]
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise DomainError("cuts must lie strictly inside the rectangle")
        self.delta, self.y0, self.y1, self.free = delta, lo.imag, hi.imag, free
        self.net, self.moves = None, 0
        self._clear(lambda: None)

    def _clear(self, work):
        """Run ``work`` on the net, sampling the rectangle afresh off any root a sample hits."""
        n = len(self.xs) - 1
        while True:
            try:
                if self.net is None:
                    net = _Net(self.delta, self.xs, self.y0, self.y1, self.free)
                    net.refine(range(len(net.z)), _phase_pieces)
                    self.net, self.counts = net, net.counts()
                return work()
            except _ContourTooClose as hit:
                self.net = None
                self.moves += 1
                if self.moves == 6:
                    raise ContourError("a root stayed on the contour through five moves") from None
                if hit.edge < 2 * n:
                    mid, half = 0.5 * (self.y0 + self.y1), 0.505 * (self.y1 - self.y0)
                    self.y0, self.y1 = mid - half, mid + half
                else:
                    k = hit.edge - 2 * n
                    near = float(np.diff(self.xs)[max(k - 1, 0) : k + 1].min())
                    self.xs[k] += 0.01 * near if k == n else -0.01 * near

    def _short(self, known):
        """The cells holding more roots than the distinct ``known`` place in them."""
        xs, y0, y1 = self.xs, self.y0, self.y1
        return [
            k
            for k, count in enumerate(self.counts)
            if count > sum(xs[k] <= r.real < xs[k + 1] and y0 <= r.imag <= y1 for r in known)
        ]

    def densify(self, known):
        """Refine the edges of every short cell for its moments.

        Intervals are split into equal ones no longer than _EDGE_STEP
        times the height, and then until |log(v1 / v0)| <= _MOMENT_STEP,
        an interval into |log(v1 / v0)| / _MOMENT_STEP pieces at once.
        The spacing bound matters on the ratio: its phase-certified
        samples lie far apart where it turns slowly, and moments from so
        few can point at the real axis.  All short cells are refined
        together; the counts are read again after each refinement, and a
        cell that this leaves short is refined in the next one.
        """

        def work():
            dense = set()
            while True:
                todo = [k for k in self._short(known) if k not in dense]
                if not todo:
                    return
                edges = sorted({e for k in todo for e, _ in self.net.cell_edges(k)})
                self.net.refine(edges, _moment_pieces)
                dense.update(todo)
                self.counts = self.net.counts()

        self._clear(work)

    def cells(self, known) -> CellCounts:
        """The counts, and the moments of every short cell from the samples as they stand."""
        short = self._short(known)
        moments = tuple(
            self.net.moments(k, 2 * count) if k in short else None
            for k, count in enumerate(self.counts)
        )
        return CellCounts(tuple(self.xs), (self.y0, self.y1), tuple(self.counts), moments)


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
    counted once) is sampled more densely, as on the second rung of
    ``compute_spectrum``, and carries the moments of the dense samples.
    """
    sampling = _Sampling(delta, rectangle, cuts)
    known = _distinct(known)
    sampling.densify(known)
    return sampling.cells(known)


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

    The cells come in parts, one ``CellCounts`` per sampled rectangle.
    ``values`` maps each root to Delta there, as the polish left it.  A
    polish gives up any guess outside ``box`` (see ``_refine_many``).
    """

    def __init__(self, delta, tol, box=None):
        self.delta, self.tol, self.box = delta, tol, box
        self.parts = []
        self.cells = []
        self.lefts = []
        self.roots = []
        self.values = {}

    def add(self, result: CellCounts):
        self.parts.append(result)
        self._index()

    def revise(self, result: CellCounts):
        """Replace the cells of the part added last."""
        self.parts[-1] = result
        self._index()

    def _index(self):
        self.cells = sorted(
            (
                _Cell(x0, x1, *part.im, count, mom)
                for part in self.parts
                for x0, x1, count, mom in zip(part.walls, part.walls[1:], part.counts, part.moments)
            ),
            key=lambda c: c.x0,
        )
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
        return _refine_many(self.delta, guesses, self.tol, max_iter, self.box)

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


def _locate(census, max_iter: int = 50):
    """Polish what the cells' moments point at until a round finds no new root.

    Each pointer gets at most ``max_iter`` secant steps.  A cell whose
    located roots are the same as in the last round points at the same
    guesses, which would land where they landed, so it is skipped.
    """
    tried = {}
    for _ in range(sum(c.count for c in census.cells) + 1):
        pointers = []
        for k, c in enumerate(census.cells):
            if c.moments is None:
                continue
            inside = census.inside(k)
            if tried.get(k) != inside:
                tried[k] = inside
                pointers += _hankel_roots(c.moments, inside, c.count)
        if not census.take(*census.polish(pointers, max_iter)):
            return


def _resolve(census, sampling):
    """Locate the roots of the rectangle added last, in two rungs.

    The first takes the moments of the phase-certified samples (the
    census holds them already) and polishes their pointers for at most
    _SEED_STEPS steps.  Only the cells still short of their counts are
    then densified; their moments are retaken and their pointers
    polished to convergence.
    """
    _locate(census, _SEED_STEPS)
    sampling.densify(census.roots)
    census.revise(sampling.cells(census.roots))
    _locate(census)


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
    from one contour sampling of Delta / Delta_0 (Delta_0 that of the
    zero potential for (nu, j)) whose phase steps stay below pi/2; the
    zeros of Delta_0 in a cell are added to its count and to its
    moments.  The secant polish refines every seed for at most 12 steps.
    Where a cell's count exceeds the roots found in it, the moments of
    those samples point at the missing ones, and each pointer gets at
    most 12 steps too.  Only a cell still short after that is sampled
    densely, and the pointers of its new moments are polished to
    convergence (the two rungs of the module docstring).  Every polish,
    and the test that moves an edge off a root, takes Delta itself.
    Every polish gives up a
    guess that leaves the rectangle widened to hold the floor
    extensions: Re in [floor - 20 - width, 2 * right edge], |Im| within
    twice im_window.  A root within 1 of the floor adds a cell of width
    5 below it, up to three times, located in the same two rungs.
    Multiplicities come from counts on small squares
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

    # a polish gives up a guess that leaves this box: it holds the three
    # floor extensions (15 below re_lo) with room to spare, and far left
    # of it the direct route's Delta overflows
    box = (
        complex(re_lo - 20.0 - (re_hi - re_lo), -2.0 * im_window),
        complex(2.0 * re_hi, 2.0 * im_window),
    )
    census = _Census(delta, tol, box)
    polished = census.polish(law[:-1], _SEED_STEPS)
    seeds = _distinct(x for x, good in zip(*polished[:2]) if good)
    free = _Free(nu, j)
    rectangle = (complex(re_lo, -im_window), complex(re_hi, im_window))
    sampling = _Sampling(delta, rectangle, cuts, free)
    census.add(sampling.cells(seeds))
    census.take(*polished)
    for extension in range(4):
        _resolve(census, sampling)
        floor = census.cells[0]
        if extension == 3 or all(r.real >= floor.x0 + 1.0 for r in census.roots):
            break
        # a root hugging the floor suggests the lowest eigenvalue may lie below
        below = (complex(floor.x0 - 5.0, floor.y0), complex(floor.x0, floor.y1))
        sampling = _Sampling(delta, below, free=free)
        census.add(sampling.cells(census.roots))

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
