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

Every closed form needs one integral of w against a kernel at y = pi +
a - 2x, taken by the Filon-type rule ``kernels._WeightRule`` on (w, pi
+ a, pi - a), which ``delay_solver.y2_closed`` shares; a value is the
same alone and in any batch.

The support checks on q are ``gridfn._require_zero``'s, which the direct
route's set-up also applies to (0, a), once per potential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .delay_solver import PI, DelaySetup, _p_on_pieces, endpoint_values
from .errors import DomainError, GridMismatchError, PreconditionError
from .gridfn import (
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    cumulative,
    integrate,
    _require_zero,
)
# ckernel and skernel are not called here, but stay bound: perfbench's tracer
# test checks that their wrappers reach this namespace
from .kernels import ckernel, kernel_pair, skernel, _WeightRule  # noqa: F401

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
        if rule is None or rule.f is not self.w or rule.phi != PI + a:
            object.__setattr__(self, "_rule", _WeightRule(self.w, PI + a, PI - a))

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
