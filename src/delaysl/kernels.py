"""Entire trigonometric kernels of the spectral parameter, and integrals against them.

``ckernel(lam, x) = cos(rho x)`` and ``skernel(lam, x) = sin(rho x)/rho``
with ``rho**2 = lam`` are entire in lam (only even powers of rho occur),
so the branch of the square root cannot matter.  Near lam = 0 both are
computed from their Maclaurin series in lam to avoid 0/0 noise.

Integrals of a sampled f(t) against a kernel at y = phi - 2t have one
implementation, the Filon-type rule ``_WeightRule``: ``charfn``'s closed
forms take the weight w through it, ``delay_solver.y2_closed`` the
triangle kernel P(x, .).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gridfn import _cell_coefficients, _gauss

__all__ = ["ckernel", "skernel", "kernel_pair"]

# switch to the series when |lam| * x^2 drops below this
SERIES_THRESHOLD = 1e-3
_SERIES_TERMS = 8


def _sk_from_rho(rho, x):
    z = rho * x
    if np.count_nonzero(rho) == np.size(rho):
        return np.sin(z) / rho
    out = np.empty(z.shape, dtype=complex)
    nz = np.broadcast_to(rho != 0, z.shape)
    out[nz] = np.sin(z[nz]) / np.broadcast_to(rho, z.shape)[nz]
    out[~nz] = np.broadcast_to(x, z.shape)[~nz]
    return out


def _c_series(lam, x):
    # sum_k (-lam)^k x^(2k) / (2k)!
    acc = np.zeros(lam.shape, dtype=complex)
    t = -lam * x**2
    term = np.ones_like(acc)
    for k in range(_SERIES_TERMS):
        if k > 0:
            term = term * t / (2 * k * (2 * k - 1))
        acc += term
    return acc


def _s_series(lam, x):
    # x * sum_k (-lam x^2)^k / (2k+1)!
    acc = np.zeros(lam.shape, dtype=complex)
    t = -lam * x**2
    term = np.ones_like(acc)
    for k in range(_SERIES_TERMS):
        if k > 0:
            term = term * t / (2 * k * (2 * k + 1))
        acc += term
    return acc * x


def _evaluate(lam, x):
    """(ckernel, skernel) at broadcast (lam, x), from one series mask and one square root.

    The closed forms are taken at every point and the series replace
    them where |lam| x^2 < SERIES_THRESHOLD, so a call whose points all
    lie on one side of the switch gathers and scatters nothing.
    """
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=float)
    small = np.abs(lam) * x**2 < SERIES_THRESHOLD
    count = np.count_nonzero(small)
    if count == small.size:
        shape = small.shape
        lam, x = np.broadcast_to(lam, shape), np.broadcast_to(x, shape)
        return _c_series(lam, x)[()], _s_series(lam, x)[()]
    rho = np.sqrt(lam)
    c, s = np.cos(rho * x), _sk_from_rho(rho, x)
    if count:
        ls = np.broadcast_to(lam, small.shape)[small]
        xs = np.broadcast_to(x, small.shape)[small]
        c[small], s[small] = _c_series(ls, xs), _s_series(ls, xs)
    return c[()], s[()]


def ckernel(lam, x):
    """cos(rho x) as an entire function of lam = rho**2."""
    return _evaluate(lam, x)[0]


def skernel(lam, x):
    """sin(rho x)/rho as an entire function of lam = rho**2."""
    return _evaluate(lam, x)[1]


def kernel_pair(lam, x):
    """(ckernel(lam, x), skernel(lam, x)), bit for bit, from one shared evaluation."""
    return _evaluate(lam, x)


# ---------------------------------------------------------------------------
# integrals against the kernels

_BLOCK = 128  # cells per block of an exponential sum
_FINE = 8  # the power row r^i of a block is r^(_FINE J) r^j, j < _FINE
# the largest array of a chunk of points or of cells, under glibc's 128 KiB
# mmap threshold
_CHUNK_BYTES = 1 << 16
_MOMENT_TERMS = 20  # Taylor terms of M_m(zeta) for |zeta| < 1
# switch to the Maclaurin series in lam when |lam| L^2 drops below this, L the bound on |y|
RULE_SERIES_THRESHOLD = 1.0
_RULE_SERIES_TERMS = 12  # term k is below (|lam| L^2)^k / (2k)! times the integral of |f|
_GAUSS_NODES = 14  # exact to degree 27: f's cubic times a series term, on each cell
# k! as floats: from 21! on, ints would make every Maclaurin coefficient an object
_FACTORIALS = np.array([math.factorial(k) for k in range(2 * _RULE_SERIES_TERMS + 1)], dtype=float)

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
    """The cells of f of one spacing h, in blocks of one segment each."""

    fine: slice  # the short table's columns r^j, r = e^(-2 i rho h)
    coarse: slice  # and r^(fine J)
    phases: slice  # and e^(i rho (phi - 2X)), X the start of each block
    table: np.ndarray  # the real form of [i, (m, b)] = h p_m of cell i of block b
    points: int  # points per chunk


class _Tables(NamedTuple):
    steps: np.ndarray  # the exponents t of the short table e^(i rho t)
    groups: list
    moments: _Moments  # M_m(-2 s i rho h) for s = +1, then s = -1, for each group
    total: complex  # the integral of f


class _WeightRule:
    """Integrals of a sampled f's interpolant against the kernels at y = phi - 2t.

    A Filon-type product rule (Filon, Proc. R. Soc. Edinb. 49, 1928;
    Iserles & Norsett, Proc. R. Soc. A 461, 2005), with every kernel a
    combination of e^(+i rho y) and e^(-i rho y).  On a cell [t_c, t_c +
    h] f is the cubic sum_m p_m xi^m of ``gridfn._cell_coefficients``, so

        integral of f(t) e^(s i rho y) over the cell
            = h e^(s i rho (phi - 2 t_c)) sum_m p_m M_m(-2 s i rho h),

    exactly.  Cells of one spacing form a group, cut into blocks of at
    most _BLOCK cells of one segment; in a block starting at X,
    e^(-2 s i rho t_c) = e^(-2 s i rho X) r^i with r = e^(-2 s i rho h).
    The rows of a chunk of points are the (point, sign) pairs.  For each
    group one real product of the chunk's power rows r^i with a table of
    the blocks' coefficients gives every block's four sums; these are
    contracted with the block phases e^(s i rho (phi - 2X)), and then
    with the group's four moments M_m.  The power rows and the phases
    come from one short table of exponentials per point, the rows as
    products r^(_FINE J) r^j.  The 1/rho of skernel and the 1/lam of the
    product form are applied after the sums.  Where they would cancel,
    |lam| L^2 < RULE_SERIES_THRESHOLD with L = ``span`` the bound on |y|,
    the integrals come from their Maclaurin series in lam instead, whose
    coefficients are exact polynomial moments of f (Gauss-Legendre on
    each cell).  The choice depends on each point alone, and every
    product has two rows or more, so a point's value does not depend on
    its batch.  The cost per point does not grow with |lam|.  Both sets
    of tables are built on first use.
    """

    def __init__(self, f, phi: float, span: float):
        self.f = f
        self.phi = phi
        self.span = span
        self._maclaurin = {}

    @cached_property
    def _cells(self):
        return [(seg, _cell_coefficients(seg.samples)) for seg in self.f.segments]

    @cached_property
    def _tables(self) -> "_Tables":
        """The short table's exponents, the groups, their moments and the integral of f.

        A block where f is zero adds nothing and is left out, and so is a
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
        """The integral of f(t) K(lam, t) over f's domain at each point of a 1-D lam.

        K is ckernel(lam, y) for kind "c", skernel(lam, y) for "s" (y =
        phi - 2t) and skernel(lam, (L + y)/2) skernel(lam, (L - y)/2) for
        "ss", which also needs c_span = ckernel(lam, L), L = ``span``.
        """
        return self.integrals_of(lam, (kind,), c_span)[0]

    def integrals_of(self, lam: np.ndarray, kinds, c_span=None) -> list:
        """``integrals`` for each of ``kinds``, in order, from one pass over the sums."""
        outs = [np.empty(lam.shape, dtype=complex) for _ in kinds]
        small = np.abs(lam) * self.span**2 < RULE_SERIES_THRESHOLD
        count = np.count_nonzero(small)
        if count:
            ls = lam[small]
            for kind, out in zip(kinds, outs):
                acc = np.zeros(ls.shape, dtype=complex)
                for c in self._series_coefficients(kind)[::-1]:
                    acc = acc * (-ls) + c
                out[small] = acc
        if count < lam.size:
            far = ~small
            lf = lam[far]
            rho = np.sqrt(lf)
            t = self._sums(rho)
            cos_part = 0.5 * (t[:, 0] + t[:, 1])
            for kind, out in zip(kinds, outs):
                if kind == "c":
                    out[far] = cos_part
                elif kind == "s":
                    out[far] = (t[:, 0] - t[:, 1]) / (2j * rho)
                else:
                    # sin(rho (L + y)/2) sin(rho (L - y)/2) = (cos(rho y) - cos(rho L)) / 2
                    out[far] = (cos_part - c_span[far] * self._tables.total) / (2.0 * lf)
        return outs

    def _sums(self, rho):
        """The integrals of f(t) e^(s i rho y), s = +1, -1, one row per point of rho."""
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

    def _gauss_chunks(self):
        """Gauss-Legendre nodes on the cells of f, and their weights times f, chunk by chunk.

        A chunk holds the cells of one segment whose complex weights fit
        in _CHUNK_BYTES; nothing is kept between calls.
        """
        xi, wt = _gauss(_GAUSS_NODES)
        xi, wt = 0.5 * (1.0 + xi), 0.5 * wt  # on [0, 1]
        basis = xi[None, :] ** np.arange(4)[:, None]
        cells = _CHUNK_BYTES // (16 * _GAUSS_NODES)
        for seg, coef in self._cells:
            left = seg.nodes()[:-1]
            for c0 in range(0, left.size, cells):
                part = slice(c0, c0 + cells)
                yield (
                    (left[part, None] + seg.spacing * xi).ravel(),
                    (seg.spacing * wt * (coef[part] @ basis)).ravel(),
                )

    def _series_coefficients(self, kind):
        """G_n with the integral equal to sum_n (-lam)^n G_n, n < _RULE_SERIES_TERMS.

        The kernels' Maclaurin terms in -lam are y^(2n)/(2n)! (kind "c"),
        y^(2n+1)/(2n+1)! ("s") and, for the product form (ckernel(lam, y)
        - ckernel(lam, L))/(2 lam), (L^(2n+2) - y^(2n+2)) / (2 (2n+2)!) =
        (L + y)(L - y)/2 sum_(i <= n) y^(2i) L^(2(n-i)) / (2n+2)!.  So each
        G_n comes from the moments mu_i = integral of f g y^(2i), g = 1, y
        or (L + y)(L - y)/2, with no cancelling term.
        """
        if kind not in self._maclaurin:
            mu, order = self._series_moments(kind)
            # part by part, as complex / int does: numpy's complex / real is a reciprocal product
            coeffs = np.empty(mu.shape, dtype=complex)
            coeffs.real, coeffs.imag = mu.real / _FACTORIALS[order], mu.imag / _FACTORIALS[order]
            self._maclaurin[kind] = coeffs
        return self._maclaurin[kind]

    def _series_moments(self, kind):
        """(m, k): G_n of ``_series_coefficients`` is m[n] / k[n]!.

        The moments are summed over the chunks of ``_gauss_chunks``.
        """
        mu = np.zeros(_RULE_SERIES_TERMS, dtype=complex)
        for t, wt in self._gauss_chunks():
            y = self.phi - 2.0 * t
            y2 = y * y
            if kind == "ss":
                power = 0.5 * (self.span + y) * (self.span - y)
            else:
                power = y if kind == "s" else np.ones_like(y)
            wr, wi = wt.real.copy(), wt.imag.copy()
            for i in range(_RULE_SERIES_TERMS):
                if i:
                    power *= y2
                mu[i] += complex(power @ wr, power @ wi)
        n = np.arange(_RULE_SERIES_TERMS)
        if kind == "ss":
            lift = np.tril(self.span ** (2.0 * np.maximum(n[:, None] - n, 0)))
            return lift @ mu, 2 * n + 2
        return mu, 2 * n + (1 if kind == "s" else 0)


