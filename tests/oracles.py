"""Reference routes that the tests hold the package against.

None of these is used by the package itself; each shares as little
numerics with the route it checks as it can.

* ``solve_direct``: method of steps with classical RK4, returning the
  whole solution as a trace.  The potential is zero below the delay, so
  the solution on [0, a] is a trigonometric kernel; past that the
  delayed argument always refers to already computed history.  The
  march stores values on a half-step grid so that every RK4 stage
  abscissa of the delayed term lands on a stored node, and it restarts
  at every breakpoint of q so that no step integrates across a jump.
  It shares no quadrature with the block solver of ``endpoint_values``
  or with the series, and is their independent oracle.

* ``series_sum``: the successive-approximation series of
  ``delay_solver._series_terms`` summed through its last term that
  survives on (0, pi).

* ``p_kernel``: the triangle kernel P(x, t) at one point by its own
  kink-aware quadrature (``delay_solver._p_values``), against which the
  lattice route of ``p_function`` and ``build_w`` is checked.

* ``delta_literal``: the nu = j = 0 characteristic function in its
  textbook form with the removable 1/lambda, against the
  cancellation-free product form of ``delta_closed``.

* ``piecewise_values``: ``PiecewiseFunction.values`` as one masked
  ``SampledSegment.values`` call per segment, without its on-node and
  one-segment paths.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from delaysl import kernels
from delaysl.charfn import CharData
from delaysl.delay_solver import (
    PI,
    DelaySetup,
    SolutionTrace,
    _p_values,
    _series_terms,
    grid_breakpoints,
)
from delaysl.errors import DomainError
from delaysl.gridfn import (
    Interval,
    PiecewiseFunction,
    SampledSegment,
    _cubic,
    _require_zero,
    _sided_values,
    cumulative,
)

# ---------------------------------------------------------------------------
# the march


def _kernel_trace(nu, lam, x):
    """Kernel pair on [0, a], one row per point of lam with its own initial type nu.

    (cos, -lam sin/rho) where nu = 0 and (sin/rho, cos) where nu = 1.
    """
    lam = np.asarray(lam, dtype=complex)[:, None]
    c, s = kernels.kernel_pair(lam, np.asarray(x, dtype=float)[None, :])
    zero = np.broadcast_to(np.asarray(nu) == 0, lam.shape[:1])[:, None]
    return np.where(zero, c, s), np.where(zero, -lam * s, c)


def _rk4(lam, y, p, f1, f2, f4, step):
    """One RK4 step of y'' = f - lam y from (y, y') = (y, p), of size ``step``.

    f1, f2 and f4 are the forcing q(t) y(t - a) at the step's start, middle and end.
    """
    half = 0.5 * step
    k1y = p
    k1p = f1 - lam * y
    k2y = p + half * k1p
    k2p = f2 - lam * (y + half * k1y)
    k3y = p + half * k2p
    k3p = f2 - lam * (y + half * k2y)
    k4y = p + step * k3p
    k4p = f4 - lam * (y + step * k3y)
    sixth = step / 6.0
    return y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y), p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)


class _March:
    """One method-of-steps integration for a batch of spectral points.

    ``init_nu`` is the initial type, one for all points or one per point.
    """

    def __init__(self, q: PiecewiseFunction, setup: DelaySetup, init_nu, lam):
        _require_zero(q, 0.0, setup.a, "(0, a)")
        self.setup = setup
        self.q = q
        self.lam = np.asarray(lam, dtype=complex).ravel()
        a = setup.a
        m = setup.steps
        self.m = m
        self.h = a / m
        self.dx = 0.5 * self.h
        self.n_full = int(math.floor(PI / self.h + 1e-9))
        self.rem = PI - self.n_full * self.h
        if self.rem < 1e-9 * self.h:
            self.rem = 0.0
        n_nodes = 2 * self.n_full + 1
        self.x_half = self.dx * np.arange(n_nodes)
        nlam = self.lam.shape[0]
        self.Y = np.empty((nlam, n_nodes), dtype=complex)
        self.Yp = np.empty((nlam, n_nodes), dtype=complex)

        # both limits of the potential on the half grid, so no stage ever
        # reads the wrong side of a jump
        self.q_left, self.q_right = _sided_values(q, self.x_half)

        self._run(init_nu)

    def _run_bounds(self) -> list[int]:
        """h-node indices of the run boundaries: a, q breakpoints, grid end."""
        idx = {self.m, self.n_full}
        for b in self.q.breakpoints():
            i = int(round(b / self.h))
            if self.m < i < self.n_full:
                idx.add(i)
        return sorted(idx)

    def _hist(self, x: float) -> np.ndarray:
        """History value at an off-grid point, interpolated within its run when it has 4 nodes."""
        u = x / self.dx
        k = bisect.bisect_right(self._piece_idx, math.floor(u))
        lo = self._piece_idx[k - 1]
        hi = self._piece_idx[k] if k < len(self._piece_idx) else self.Y.shape[1] - 1
        if hi - lo < 3:
            lo, hi = 0, self.Y.shape[1] - 1
        return _cubic(self.Y[:, lo : hi + 1], u - lo)

    def _half_step(self, x0: float, step: float, j_from: int):
        """One RK4 step of arbitrary size with interpolated history.

        Returns (y, yp) at x0 + step; ``j_from`` is the half-grid column of x0.
        """
        xs = (x0, x0 + 0.5 * step, x0 + step)
        qv = self.q.values(np.array(xs))
        if j_from < len(self.q_right):
            qv[0] = self.q_right[j_from]
        f = []
        for qk, xk in zip(qv, xs):
            t = xk - self.setup.a
            u = t / self.dx
            i = int(round(u))
            if abs(u - i) < 1e-9 and i >= 0:
                f.append(qk * self.Y[:, i])
            elif t < 0.0:
                f.append(qk * np.zeros(self.lam.shape, dtype=complex))
            else:
                f.append(qk * self._hist(t))
        return _rk4(self.lam, self.Y[:, j_from], self.Yp[:, j_from], *f, step)

    def _rk4_run(self, j_start: int, n_steps: int, qa, qb, qc) -> None:
        """March ``n_steps`` RK4 steps of size h, writing half-grid columns.

        Step s starts at column ``j = j_start + 2 s`` and writes column
        j + 2; the delayed argument lives 2m columns back.  qa/qb/qc hold
        the potential at the left/middle/right stage abscissae of each step.
        """
        Y, Yp, lam, h = self.Y, self.Yp, self.lam, self.h
        off = 2 * self.m
        for s in range(n_steps):
            j = j_start + 2 * s
            f = (qa[s] * Y[:, j - off], qb[s] * Y[:, j + 1 - off], qc[s] * Y[:, j + 2 - off])
            Y[:, j + 2], Yp[:, j + 2] = _rk4(lam, Y[:, j], Yp[:, j], *f, h)

    def _run(self, init_nu) -> None:
        m = self.m
        # exact kernel fill on [0, a], both parities
        kz = 2 * m + 1
        self.Y[:, :kz], self.Yp[:, :kz] = _kernel_trace(init_nu, self.lam, self.x_half[:kz])
        bounds = self._run_bounds()
        self._piece_idx = [0] + [2 * b for b in bounds]
        for n_a, n_b in zip(bounds[:-1], bounds[1:]):
            steps = n_b - n_a
            # full-grid pass
            qa = self.q_right[2 * n_a : 2 * n_b : 2]
            qb = self.q_right[2 * n_a + 1 : 2 * n_b : 2]
            qc = self.q_left[2 * n_a + 2 : 2 * n_b + 2 : 2]
            self._rk4_run(2 * n_a, steps, qa, qb, qc)
            # launch the half-offset pass with one half step, then march it
            j = 2 * n_a + 1
            self.Y[:, j], self.Yp[:, j] = self._half_step(n_a * self.h, 0.5 * self.h, j - 1)
            if steps >= 2:
                qa = self.q_right[2 * n_a + 1 : 2 * n_b - 1 : 2]
                qb = self.q_right[2 * n_a + 2 : 2 * n_b - 1 : 2]
                qc = self.q_right[2 * n_a + 3 : 2 * n_b : 2]
                self._rk4_run(2 * n_a + 1, steps - 1, qa, qb, qc)
        if self.rem > 0.0:
            self.y_end, self.yp_end = self._half_step(
                self.n_full * self.h, self.rem, 2 * self.n_full
            )
        else:
            self.y_end = self.Y[:, -1].copy()
            self.yp_end = self.Yp[:, -1].copy()

    def traces(self, batch_index: int) -> tuple[PiecewiseFunction, PiecewiseFunction]:
        setup = self.setup
        nseg = setup.segment_nodes
        bps = grid_breakpoints(setup.a, 0.0, PI)
        stride = setup.steps // (nseg - 1)
        rowy = self.Y[batch_index]
        rowp = self.Yp[batch_index]
        segs_y, segs_p = [], []
        half_len = 0.5 * setup.a
        for b0, b1 in zip(bps[:-1], bps[1:]):
            iv = Interval(float(b0), float(b1))
            i0 = int(round(b0 / self.dx))
            aligned = (
                abs(i0 * self.dx - b0) <= 1e-9
                and abs((b1 - b0) - half_len) <= 1e-9
                and i0 + stride * (nseg - 1) < rowy.shape[0] + 1
            )
            if aligned:
                sl = slice(i0, i0 + stride * (nseg - 1) + 1, stride)
                segs_y.append(SampledSegment(iv, rowy[sl]))
                segs_p.append(SampledSegment(iv, rowp[sl]))
            else:
                # the stored row interpolated, and the exact end values at pi
                u = np.linspace(iv.lo, iv.hi, nseg) / self.dx
                vy, vp = _cubic(rowy, u), _cubic(rowp, u)
                if abs(iv.hi - PI) <= 1e-12:
                    vy[-1], vp[-1] = self.y_end[batch_index], self.yp_end[batch_index]
                segs_y.append(SampledSegment(iv, vy))
                segs_p.append(SampledSegment(iv, vp))
        return PiecewiseFunction(segs_y), PiecewiseFunction(segs_p)


def solve_direct(q: PiecewiseFunction, setup: DelaySetup, lam: complex) -> SolutionTrace:
    """Integrate the initial value problem with initial type setup.nu.

    nu = 0 starts from (y, y') = (1, 0); nu = 1 from (0, 1).
    """
    march = _March(q, setup, setup.nu, [lam])
    y, yp = march.traces(0)
    return SolutionTrace(y, yp, complex(march.y_end[0]), complex(march.yp_end[0]))


# ---------------------------------------------------------------------------
# the series


def series_sum(q: PiecewiseFunction, setup: DelaySetup, lam: complex) -> SolutionTrace:
    """Sum of the series through its last term that survives on (0, pi).

    Each term cancels for lam << 0 (see ``delay_solver._series_terms``):
    on ``_stepped_delay(0.5)`` of the tests at lam = -20 the sum is 6e-8
    to 1.6e-6 off the refined RK4 march in relative terms, against 1e-11
    at lam = -4, so far left of 0 the march, not the series, is the oracle.
    """
    terms = itertools.islice(_series_terms(q, setup, lam), setup.levels + 1)
    total = next(terms)
    for term in terms:
        total = SolutionTrace(
            total.y + term.y,
            total.yprime + term.yprime,
            total.y_end + term.y_end,
            total.yp_end + term.yp_end,
        )
    return total


# ---------------------------------------------------------------------------
# the triangle kernel, point by point


def p_kernel(q: PiecewiseFunction, setup: DelaySetup, x: float, t: float) -> complex:
    """Triangle kernel of the second series term, at one (x, t).

    Defined for 3a/2 <= t <= x - a/2 with x <= pi; identically zero on
    the upper edge t = x - a/2.
    """
    a = setup.a
    if not (1.5 * a - 1e-12 <= t <= x - 0.5 * a + 1e-12) or x > PI + 1e-12:
        raise DomainError(f"(x, t) = ({x}, {t}) outside the kernel triangle")
    om = cumulative(q, a)
    return complex(_p_values(q, setup, om, x, np.array([t]))[0])


# ---------------------------------------------------------------------------
# the literal diagonal characteristic function


def delta_literal(data: CharData, lam):
    """The nu = j = 0 characteristic function in its textbook form.

    skernel(lam, pi) - omega ckernel(lam, pi - a) / (2 lam) + (integral of
    w(x) ckernel(lam, pi + a - 2x)) / (2 lam): the removable 1/lambda
    makes it singular at lambda = 0, so small |lambda| is refused.
    """
    if (data.nu, data.j) != (0, 0):
        raise DomainError("the literal form only exists for nu = j = 0")
    lam = np.asarray(lam, dtype=complex)
    lamf = lam.ravel()
    if np.any(np.abs(lamf) < 1e-6):
        raise DomainError("the literal diagonal form is singular near lambda = 0")
    (_, c_span), (s_pi, _) = (
        k.T for k in kernels.kernel_pair(lamf[:, None], [PI, PI - data.setup.a])
    )
    vals = s_pi - 0.5 * data.omega * c_span / lamf + 0.5 * data._rule.integrals(lamf, "c") / lamf
    return vals.reshape(lam.shape)[()]


# ---------------------------------------------------------------------------
# evaluation


def piecewise_values(f: PiecewiseFunction, x) -> np.ndarray:
    """f at points, one masked segment call per segment; a breakpoint reads the right segment."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xf = np.atleast_1d(x).astype(float)
    slack = 1e-12 * (1.0 + max(abs(f.lo), abs(f.hi)))
    if np.any(xf < f.lo - slack) or np.any(xf > f.hi + slack):
        bad = xf[(xf < f.lo - slack) | (xf > f.hi + slack)][0]
        raise DomainError(f"{bad} outside [{f.lo}, {f.hi}]")
    idx = np.searchsorted(f._bounds, xf, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), len(f.segments) - 1)
    out = np.empty(xf.shape, dtype=complex)
    for k, seg in enumerate(f.segments):
        sel = idx == k
        if np.any(sel):
            out[sel] = seg.values(xf[sel])
    return out[0] if scalar else out
