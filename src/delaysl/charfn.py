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
resampling of w is involved.  The cell sums of a chunk of points are
real matrix products whose rows are the (point, sign) pairs, fed by
short tables of exponentials joined by products.  Near lambda = 0,
where the 1/rho and 1/lam factors of the kernels would cancel, a
Maclaurin series in lambda built from exact polynomial moments of w
takes over, chosen per point from |lambda| alone.  Every operation acts
on one point's own values, or is a product in which the point's rows
sit among two or more rows, so a value is bit-identical alone and in
any batch.

The support checks on q are ``gridfn._require_zero``'s, which the direct
route's set-up also applies to (0, a), once per potential; the Maclaurin
moments take their nodes from the shared ``gridfn._gauss`` rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .delay_solver import PI, DelaySetup, _p_on_pieces, endpoint_values
from .errors import DomainError, GridMismatchError, PreconditionError
from .gridfn import (
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    cumulative,
    integrate,
    _cell_coefficients,
    _gauss,
    _require_zero,
)
# ckernel and skernel stay bound here: perfbench's tracer patches them in this namespace
from .kernels import ckernel, kernel_pair, skernel  # noqa: F401

__all__ = ["CharData", "build_w", "delta_closed", "delta_direct"]


def _validate_confined(q: PiecewiseFunction, a: float) -> None:
    if not a < PI / 3.0:
        raise PreconditionError(f"confined closed forms need a < pi/3, got a = {a}")
    if q.hi < 3.0 * a - 1e-9 * (1.0 + 3.0 * a):
        raise PreconditionError("potential grid must extend to 3a")
    _require_zero(q, 3.0 * a, q.hi, "(3a, pi)")


@dataclass(frozen=True)
class CharData:
    """Everything the closed forms need about one boundary value problem.

    ``setup`` supplies the delay, the grid resolution and nu, the
    boundary condition order at 0; j is the order at pi.  omega is stored
    next to w because for nu = 1 the weight alone does not determine it.
    """

    setup: DelaySetup
    j: int
    omega: complex
    w: PiecewiseFunction
    # the tables of w for delta_closed, built on first use and shared by
    # the records of one weight (build_w's pair, dataclasses.replace)
    _rule: "_WeightRule" = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        a = self.setup.a
        if not a < PI / 3.0:
            raise DomainError(f"confined closed forms need a < pi/3, got a = {a}")
        if self.j not in (0, 1):
            raise DomainError(f"boundary index j must be 0 or 1, got {self.j}")
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
        rule = self._rule
        if rule is None or rule.w is not self.w or rule.a != a:
            object.__setattr__(self, "_rule", _WeightRule(self.w, a))

    @property
    def nu(self) -> int:
        return self.setup.nu

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
            int(raw["j"]),
            complex(raw["omega"][0], raw["omega"][1]),
            assemble_segments(xs, vs),
        )


# ---------------------------------------------------------------------------
# weight construction


def build_w(q: PiecewiseFunction, setup: DelaySetup) -> tuple[CharData, CharData]:
    """Weight data for both endpoint conditions j = 0, 1.

    The potential must vanish outside (a, 3a) and its grid must break at
    a, 3a/2, 5a/2 and 3a so segments never straddle the correction
    window.  The correction is computed on the lattice of spacing
    a/4096, so every breakpoint of q must be a multiple of it
    (GridMismatchError otherwise).  Both returned records share one
    weight function, one omega and one set of tables for
    ``delta_closed``, built on first use; only j differs.
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
    first = CharData(setup, 0, omega, PiecewiseFunction(segs))
    return first, replace(first, j=1)


# ---------------------------------------------------------------------------
# evaluation


def delta_closed(data: CharData, lam):
    """Characteristic function values at spectral points (scalar or array).

    Each branch is a combination of ckernel/skernel values and one
    integral of w against a kernel (``_WeightRule.integrals``): the
    nu != j branches take skernel(lam, pi + a - 2x), nu = j = 1 takes
    ckernel(lam, pi + a - 2x), and nu = j = 0 takes the product
    skernel(lam, pi - x) skernel(lam, x - a), a form free of the
    removable 1/lambda of the textbook expression that stays accurate
    through lambda = 0.  The kernels at pi and pi - a come from one
    ``kernel_pair`` evaluation.  The integrals are exact for w's own
    interpolant, and every operation is elementwise in lambda or a matrix
    product in which a point's rows sit among two rows or more, so a
    point's value is the same alone and in any batch.
    """
    lam = np.asarray(lam, dtype=complex)
    shape = lam.shape
    lamf = lam.ravel()
    a = data.setup.a
    omega = data.omega
    # ckernel and skernel at pi and pi - a, from one evaluation
    (c_pi, c_span), (s_pi, s_span) = (k.T for k in kernel_pair(lamf[:, None], [PI, PI - a]))
    rule = data._rule
    if data.nu != data.j:
        sign = 1.0 if data.j == 0 else -1.0
        vals = c_pi + 0.5 * omega * s_span + 0.5 * sign * rule.integrals(lamf, "s")
    elif data.nu == 1:
        vals = -lamf * s_pi + 0.5 * omega * c_span + 0.5 * rule.integrals(lamf, "c")
    else:
        vals = s_pi + rule.integrals(lamf, "ss", c_span)
    return vals.reshape(shape)[()]


# ---------------------------------------------------------------------------
# the weight integrals

_BLOCK = 128  # cells per block of an exponential sum
_FINE = 8  # the power row r^i of a block is r^(_FINE J) r^j, j < _FINE
# the largest array of a chunk of points, under glibc's 128 KiB mmap threshold
_CHUNK_BYTES = 1 << 16
_MOMENT_TERMS = 20  # Taylor terms of M_m(zeta) for |zeta| < 1
# switch to the Maclaurin series in lam when |lam| (pi - a)^2 drops below this
SERIES_THRESHOLD = 1.0
_SERIES_TERMS = 12  # term k is below (|lam| (pi - a)^2)^k / (2k)! times the integral of |w|
_GAUSS_NODES = 14  # exact to degree 27: w's cubic times a series term, on each cell

# _TAYLOR[k, m] = 1 / (k! (m + k + 1)), the Taylor coefficients of M_m
_TAYLOR = np.array(
    [[1.0 / (math.factorial(k) * (m + k + 1)) for m in range(4)] for k in range(_MOMENT_TERMS)]
)


def _real_form(table: np.ndarray) -> np.ndarray:
    """The real (2k, 2n) matrix that multiplies (re, im) pairs as ``table`` (k, n) does."""
    real = np.empty((2 * table.shape[0], 2 * table.shape[1]))
    real[0::2, 0::2], real[1::2, 1::2] = table.real, table.real
    real[0::2, 1::2], real[1::2, 0::2] = table.imag, -table.imag
    return real


# for |zeta| >= 1, M_m(zeta) = e^zeta sum_k _FAR[k, m] zeta^-(k+1) - _FAR_END[m] zeta^-(m+1),
# the forward recurrence M_m = (e^zeta - m M_(m-1)) / zeta unrolled
_FAR = np.array(
    [
        [(-1) ** k * math.factorial(m) / math.factorial(m - k) if k <= m else 0.0 for m in range(4)]
        for k in range(4)
    ]
)
_FAR_END = np.array([(-1) ** m * math.factorial(m) for m in range(4)], dtype=float)


class _Moments:
    """M_m(c u), the integral of xi^m e^(c u xi) over (0, 1), for m = 0..3 and fixed scales c.

    Called with a 1-D array of points u, it returns shape (points, scales,
    4).  zeta = c u with |zeta| < 1 takes the Taylor series sum_k zeta^k /
    (k! (m + k + 1)) to _MOMENT_TERMS terms; otherwise the recurrence
    M_m = (e^zeta - m M_(m-1)) / zeta, unrolled (``_FAR``), which loses at
    most a factor 3!/|zeta|^3 there.  Each branch is one real product of
    rows of powers of the points, u^k (k < _MOMENT_TERMS) or u^-(k+1) (k
    < 4), with a table that carries the powers of every scale; a branch
    no value takes is skipped.
    """

    def __init__(self, scales):
        self.scales = np.asarray(scales, dtype=float)
        k = np.arange(_MOMENT_TERMS)[:, None, None]
        c = self.scales[:, None]
        self.taylor = _real_form((c**k * _TAYLOR[:, None, :]).reshape(_MOMENT_TERMS, -1))
        inv = c ** -np.arange(1.0, 5.0)[:, None, None]  # c^-(k+1), (k, scale, 1)
        far = np.concatenate([inv * _FAR[:, None, :], inv * np.diag(_FAR_END)[:, None, :]], -1)
        self.far = _real_form(far.reshape(4, -1))

    def __call__(self, u):
        zeta = u[:, None] * self.scales
        near = np.abs(zeta) < 1.0
        count = np.count_nonzero(near)
        if count:
            taylor = _power_product(u, 0, _MOMENT_TERMS, self.taylor).reshape(zeta.shape + (4,))
            if count == near.size:
                return taylor
        with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 is always near
            far = _power_product(1.0 / u, 1, 4, self.far).reshape(zeta.shape + (8,))
            far = np.exp(zeta)[..., None] * far[..., :4] - far[..., 4:]
        return np.where(near[..., None], taylor, far) if count else far


def _power_product(u, first, terms, table):
    """The rows u^(first + k), k < terms, one per point of u, times the real form ``table``.

    The product has two rows at least, as a one-row product rounds
    differently from the same row among others.
    """
    n, ones = u.size, 1 - first  # the leading columns u^0
    rows = np.ones((max(n, 2), terms), dtype=complex)
    np.cumprod(np.broadcast_to(u[:, None], (n, terms - ones)), 1, out=rows[:n, ones:])
    return (rows.view(float) @ table).view(complex)[:n]


class _Group(NamedTuple):
    """The cells of w of one spacing h, in blocks of one segment each."""

    fine: slice  # the short table's columns r^j, r = e^(-2 i rho h)
    coarse: slice  # and r^(fine J)
    phases: slice  # and e^(i rho (pi + a - 2X)), X the start of each block
    table: np.ndarray  # the real form of [i, (m, b)] = h p_m of cell i of block b
    points: int  # points per chunk


class _Tables(NamedTuple):
    steps: np.ndarray  # the exponents t of the short table e^(i rho t)
    groups: list
    moments: _Moments  # M_m(-2 s i rho h) for s = +1, then s = -1, for each group
    total: complex  # the integral of w


class _WeightRule:
    """Integrals of w's interpolant against the kernels of ``delta_closed``.

    With y = pi + a - 2x, every kernel is a combination of e^(+i rho y)
    and e^(-i rho y).  On a cell [x_c, x_c + h] w is the polynomial
    sum_m p_m xi^m of ``gridfn._cell_coefficients``, so

        integral of w(x) e^(s i rho y) over the cell
            = h e^(s i rho (pi + a - 2 x_c)) sum_m p_m M_m(-2 s i rho h),

    exactly.  Cells of one spacing form a group, cut into blocks of at
    most _BLOCK cells of one segment; in a block starting at X,
    e^(-2 s i rho x_c) = e^(-2 s i rho X) r^i with r = e^(-2 s i rho h).
    The rows of a chunk of points are the (point, sign) pairs.  For each
    group one real product of the chunk's power rows r^i with a table of
    the blocks' coefficients gives every block's four sums; these are
    contracted with the block phases e^(s i rho (pi + a - 2X)), and then
    with the group's four moments M_m.  The power rows and the phases
    come from one short table of exponentials per point, the rows as
    products r^(_FINE J) r^j.  The 1/rho of skernel and the 1/lam of the
    product form are applied after the sums.  Where they would cancel,
    |lam| (pi - a)^2 < SERIES_THRESHOLD, the integrals come from their
    Maclaurin series in lam instead, whose coefficients are exact
    polynomial moments of w (Gauss-Legendre on each cell).  The choice
    depends on each point alone, and every product has two rows or more,
    so a point's value does not depend on its batch.

    Both sets of tables are built on first use.  The records of one
    weight share one rule (``build_w``).
    """

    def __init__(self, w: PiecewiseFunction, a: float):
        self.w = w
        self.a = a
        self.phi = PI + a
        self.span = PI - a  # the largest |y|, and (pi - x) + (x - a)
        self._maclaurin = {}

    @cached_property
    def _cells(self):
        return [(seg, _cell_coefficients(seg.samples)) for seg in self.w.segments]

    @cached_property
    def _tables(self) -> "_Tables":
        """The short table's exponents, the groups, their moments and the integral of w.

        A block where w is zero adds nothing and is left out, and so is a
        group left without blocks.
        """
        groups = {}  # spacing -> [(segment, cell coefficients)]
        for seg, coef in self._cells:
            h = next((g for g in groups if abs(g - seg.spacing) <= 1e-12 * g), seg.spacing)
            groups.setdefault(h, []).append((seg, coef))
        steps, parts, spacings = [np.empty(0)], [], []
        total = 0.0
        for h, members in groups.items():
            size = min(_BLOCK, max(coef.shape[0] for _, coef in members))
            fine = min(_FINE, size)
            coarse = -(-size // fine)
            blocks, starts = [], []
            for seg, coef in members:
                count = -(-coef.shape[0] // size)
                padded = np.zeros((count * size, 4), dtype=complex)
                padded[: coef.shape[0]] = h * coef
                live = np.any(padded.reshape(count, -1) != 0.0, axis=1)
                blocks.append(padded.reshape(count, size, 4)[live])
                starts.append((seg.interval.lo + size * seg.spacing * np.arange(count))[live])
                total += np.sum(padded @ (1.0 / np.arange(1, 5)))
            cells = np.concatenate(blocks)
            if not cells.size:
                continue
            table = np.zeros((coarse * fine, 4, cells.shape[0]), dtype=complex)
            table[:size] = cells.transpose(1, 2, 0)
            cols = []
            for part in (
                -2.0 * h * np.arange(fine),
                -2.0 * h * fine * np.arange(coarse),
                self.phi - 2.0 * np.concatenate(starts),
            ):
                first = sum(p.size for p in steps)
                cols.append(slice(first, first + part.size))
                steps.append(part)
            # a chunk's power rows and block sums (4 per block), two complex
            # rows of each per point, stay within _CHUNK_BYTES
            points = max(1, _CHUNK_BYTES // (32 * max(coarse * fine, 4 * len(cells))))
            parts.append(_Group(*cols, _real_form(table.reshape(coarse * fine, -1)), points))
            spacings.append(h)
        # zeta = -2 s i rho h: the scales of i rho, first s = +1, then s = -1
        scales = -2.0 * np.array(spacings)
        moments = _Moments(np.concatenate([scales, -scales]))
        return _Tables(np.concatenate(steps), parts, moments, complex(total))

    def integrals(self, lam: np.ndarray, kind: str, c_span=None) -> np.ndarray:
        """The integral of w(x) K(lam, x) over (a, 3a) at each point of a 1-D lam.

        K is ckernel(lam, y) for kind "c", skernel(lam, y) for "s" (y =
        pi + a - 2x) and skernel(lam, pi - x) skernel(lam, x - a) for
        "ss", which also needs c_span = ckernel(lam, pi - a).
        """
        out = np.empty(lam.shape, dtype=complex)
        small = np.abs(lam) * self.span**2 < SERIES_THRESHOLD
        count = np.count_nonzero(small)
        if count:
            coeffs = self._series_coefficients(kind)
            ls = lam[small]
            acc = np.zeros(ls.shape, dtype=complex)
            for c in coeffs[::-1]:
                acc = acc * (-ls) + c
            out[small] = acc
        if count < lam.size:
            far = ~small
            lf = lam[far]
            rho = np.sqrt(lf)
            t = self._sums(rho)
            cos_part = 0.5 * (t[:, 0] + t[:, 1])
            if kind == "c":
                out[far] = cos_part
            elif kind == "s":
                out[far] = (t[:, 0] - t[:, 1]) / (2j * rho)
            else:
                # sin(rho (pi - x)) sin(rho (x - a)) = (cos(rho y) - cos(rho (pi - a))) / 2
                out[far] = (cos_part - c_span[far] * self._tables.total) / (2.0 * lf)
        return out

    def _sums(self, rho):
        """The integrals of w(x) e^(s i rho y), s = +1, -1, one row per point of rho."""
        steps, groups, moments, _ = self._tables
        n = rho.size
        if not groups:
            return np.zeros((n, 2), dtype=complex)
        # the short table, one row per (point, sign): e^(i rho t), then
        # e^(-i rho t) = 1 / e^(i rho t)
        short = np.empty((n, 2, steps.size), dtype=complex)
        np.exp((1j * rho)[:, None] * steps, out=short[:, 0])
        np.reciprocal(short[:, 0], out=short[:, 1])
        rows = short.reshape(2 * n, -1)
        # sums[row, group, m]: the group's block sums, contracted with the phases
        sums = np.empty((2 * n, len(groups), 4), dtype=complex)
        for g, group in enumerate(groups):
            coarse_rows = rows[:, group.coarse, None]
            fine_rows = rows[:, None, group.fine]
            phase_rows, out = rows[:, group.phases, None], sums[:, g, :, None]
            size = 2 * min(n, group.points)
            powers = np.empty((size, coarse_rows.shape[1], fine_rows.shape[2]), complex)
            flat = powers.reshape(size, -1).view(float)
            blocks = np.empty((size, group.table.shape[1]))
            block_sums = blocks.view(complex).reshape(size, 4, -1)
            for lo in range(0, 2 * n, size):
                hi = min(lo + size, 2 * n)
                k = hi - lo
                np.multiply(coarse_rows[lo:hi], fine_rows[lo:hi], out=powers[:k])
                np.matmul(flat[:k], group.table, out=blocks[:k])
                np.matmul(block_sums[:k], phase_rows[lo:hi], out=out[lo:hi])
        mom = moments(1j * rho).reshape(n, 2, -1, 4)
        return np.sum((sums.reshape(mom.shape) * mom).reshape(n, 2, -1), axis=-1)

    @cached_property
    def _gauss_points(self):
        """Gauss-Legendre nodes on every cell, and their weights times w."""
        xi, wt = _gauss(_GAUSS_NODES)
        xi, wt = 0.5 * (1.0 + xi), 0.5 * wt  # on [0, 1]
        xs, ws = [], []
        for seg, coef in self._cells:
            left = seg.nodes()[:-1]
            xs.append((left[:, None] + seg.spacing * xi).ravel())
            ws.append((seg.spacing * wt * (coef @ xi[None, :] ** np.arange(4)[:, None])).ravel())
        return np.concatenate(xs), np.concatenate(ws)

    def _series_coefficients(self, kind):
        """G_n with the integral equal to sum_n (-lam)^n G_n, n < _SERIES_TERMS.

        The kernels' Maclaurin terms in -lam are y^(2n)/(2n)! (kind "c"),
        y^(2n+1)/(2n+1)! ("s") and, for the product form (ckernel(lam, y)
        - ckernel(lam, L))/(2 lam) with L = pi - a, (L^(2n+2) - y^(2n+2))
        / (2 (2n+2)!) = 2 (pi - x)(x - a) sum_(i <= n) y^(2i) L^(2(n-i)) /
        (2n+2)!, as (pi - x)(x - a) = (L^2 - y^2) / 4.  So each G_n comes
        from the moments mu_i = integral of w f y^(2i), f = 1, y or 2 (pi -
        x)(x - a), with no cancelling term.
        """
        if kind not in self._maclaurin:
            x, wx = self._gauss_points
            y = self.phi - 2.0 * x
            y2 = y * y
            if kind == "ss":
                power = 2.0 * (PI - x) * (x - self.a)
            else:
                power = y if kind == "s" else np.ones_like(y)
            wr, wi = wx.real.copy(), wx.imag.copy()
            mu = np.empty(_SERIES_TERMS, dtype=complex)
            for i in range(_SERIES_TERMS):
                if i:
                    power *= y2
                mu[i] = complex(power @ wr, power @ wi)
            n = np.arange(_SERIES_TERMS)
            if kind == "ss":
                lift = np.tril(self.span ** (2.0 * np.maximum(n[:, None] - n, 0)))
                coeffs = (lift @ mu) / [math.factorial(2 * k + 2) for k in n]
            else:
                odd = 1 if kind == "s" else 0
                coeffs = mu / [math.factorial(2 * k + odd) for k in n]
            self._maclaurin[kind] = coeffs
        return self._maclaurin[kind]


def delta_direct(q: PiecewiseFunction, setup: DelaySetup, j: int, lam):
    """The same characteristic values from the stepping solver.

    Works for any delay in (0, pi) and any potential vanishing on
    (0, a), which the set-up of ``endpoint_values`` checks once per
    potential; no confinement to (a, 3a) is assumed.  Potentials sampled
    on a shorter range are zero-extended to pi.
    """
    if j not in (0, 1):
        raise DomainError(f"j must be 0 or 1, got {j}")
    ys, yps = endpoint_values(q, setup, 1 - setup.nu, lam)
    return (ys if j == 0 else yps)[()]
