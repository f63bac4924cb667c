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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .delay_solver import (
    PI,
    DelaySetup,
    _p_on_pieces,
    _p_values,
    endpoint_values,
    grid_breakpoints,
)
from .errors import DomainError, GridMismatchError, PreconditionError
from .gridfn import (
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    cumulative,
    integrate,
    piecewise_quad,
    sample_function,
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
            DelaySetup(a=float(raw["a"]), nu=int(raw["nu"])),
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

    The nu = j = 0 case defaults to a cancellation-free product form
    that stays accurate through lambda = 0.  ``literal=True`` switches it
    to the textbook expression carrying a removable 1/lambda; that path
    exists for cross-validation only and refuses small |lambda|.
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
    rho_max = float(np.max(np.abs(np.sqrt(lamf)))) if lamf.size else 1.0
    spacing = min(a / 512.0, 0.0126 / (26.0 + 2.0 * rho_max))
    bps = np.concatenate([[data.w.lo], data.w.breakpoints(), [data.w.hi]])
    xs, wts, wv = piecewise_quad(data.w, bps, spacing)
    weighted = wts * wv
    out = np.empty(lamf.shape, dtype=complex)
    # The lambda-by-node products below are the hot spot; a big Newton
    # batch against a fine rule would allocate gigabytes at once, so we
    # cap each slab at about a million entries.  The values are the
    # same, only the peak footprint changes.
    chunk = max(1, (1 << 20) // max(xs.size, 1))
    for start in range(0, lamf.size, chunk):
        lc = lamf[start : start + chunk]
        col = lc[:, None]
        if not diag:
            sign = 1.0 if data.j == 0 else -1.0
            vals = (
                ckernel(lc, PI)
                + 0.5 * omega * skernel(lc, PI - a)
                + 0.5 * sign * (skernel(col, PI - 2.0 * xs + a) @ weighted)
            )
        elif data.nu == 1:
            vals = (
                -lc * skernel(lc, PI)
                + 0.5 * omega * ckernel(lc, PI - a)
                + 0.5 * (ckernel(col, PI - 2.0 * xs + a) @ weighted)
            )
        elif literal:
            vals = (
                skernel(lc, PI)
                - 0.5 * omega * ckernel(lc, PI - a) / lc
                + 0.5 * (ckernel(col, PI - 2.0 * xs + a) @ weighted) / lc
            )
        else:
            vals = skernel(lc, PI) + (skernel(col, PI - xs) * skernel(col, xs - a)) @ weighted
        out[start : start + chunk] = vals
    return out.reshape(shape)[()]


def delta_direct(q: PiecewiseFunction, setup: DelaySetup, j: int, lam):
    """The same characteristic values from the stepping solver.

    Works for any delay in (0, pi) and any potential vanishing on
    (0, a); no confinement to (a, 3a) is assumed.  Potentials sampled on
    a shorter range are zero-extended to pi.
    """
    if j not in (0, 1):
        raise DomainError(f"j must be 0 or 1, got {j}")
    _require_zero(q, 0.0, setup.a, "(0, a)")
    qq = _padded_to_pi(q, setup)
    ys, yps = endpoint_values(qq, setup, 1 - setup.nu, lam)
    return (ys if j == 0 else yps)[()]


def _padded_to_pi(q: PiecewiseFunction, setup: DelaySetup) -> PiecewiseFunction:
    snap = 1e-9 * (1.0 + PI)
    if q.lo > snap:
        raise DomainError("potential grid must start at 0")
    if q.hi >= PI - snap:
        return q
    tail = sample_function(
        lambda x: np.zeros_like(x, dtype=complex),
        grid_breakpoints(setup.a, q.hi, PI),
        setup.segment_nodes,
    )
    return PiecewiseFunction(list(q.segments) + list(tail.segments))
