"""One-parameter families of potentials sharing both spectra.

A seed triple (h, eta, e) with M_h e = eta e generates, for every
complex coefficient alpha and boundary index nu, a potential supported
on (3a/2, 3a).  Rescaling the kernel to h_nu = (-1)^nu h / eta turns
the eigen-relation into M_{h_nu} e = (-1)^nu e, and the four branches
below are arranged so that the weight function entering the
characteristic functions does not depend on alpha.  For nu = 1 the
constant omega is a separate invariant and stays put only when e has
zero mean; build_member warns when that condition fails, because such
members are a deliberate negative control.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .charfn import build_w
from .delay_solver import PI, DelaySetup
from .errors import ConsistencyError, DomainError, GridMismatchError, PreconditionError
from .fredholm import FredholmOperator, apply, zero_mean
from .gridfn import (
    Interval,
    PiecewiseFunction,
    SampledSegment,
    cumulative,
    integrate,
    simpson_rule,
)

__all__ = [
    "FamilyMember",
    "build_member",
    "w_of_member",
    "omega_of_member",
    "bridge_integral",
]

_BRIDGE_NODES = 513


def _restrict(f: PiecewiseFunction, lo: float, hi: float) -> PiecewiseFunction:
    """The sub-function made of f's segments covering exactly [lo, hi]."""
    snap = 1e-9 * (1.0 + abs(hi))
    segs = [
        s
        for s in f.segments
        if s.interval.lo >= lo - snap and s.interval.hi <= hi + snap
    ]
    if (
        not segs
        or abs(segs[0].interval.lo - lo) > snap
        or abs(segs[-1].interval.hi - hi) > snap
    ):
        raise GridMismatchError(f"no segment cover for [{lo}, {hi}]")
    return PiecewiseFunction(segs)


def _branch_matches(q, factor, ref, lo, hi):
    """Node-wise check that q equals factor * ref between lo and hi."""
    snap = 1e-9 * (1.0 + hi)
    scale = float(np.max(np.abs(ref.all_samples()))) + 1.0
    tol = 1e-12 * (1.0 + abs(factor)) * scale
    for seg in q.segments:
        if seg.interval.lo >= lo - snap and seg.interval.hi <= hi + snap:
            want = factor * ref.values(seg.nodes())
            if np.max(np.abs(seg.samples - want)) > tol:
                return False
    return True


@dataclass(frozen=True)
class FamilyMember:
    """One member potential together with the seed data that built it.

    ``q`` lives on [0, pi] and vanishes identically outside
    (3a/2, 3a): the zero stretches are constructed as exact zero
    segments, never approximated.  Inside the support, q equals
    alpha * enu on (3a/2, 2a), the coupling branch on (2a, 5a/2), and
    hnu on (5a/2, 3a).
    """

    alpha: complex
    nu: int
    a: float
    q: PiecewiseFunction
    hnu: PiecewiseFunction
    enu: PiecewiseFunction

    def __post_init__(self):
        if self.nu not in (0, 1):
            raise DomainError(f"nu must be 0 or 1, got {self.nu}")
        a = self.a
        if not 0.0 < a < PI / 3.0:
            raise DomainError(f"need a in (0, pi/3), got {a}")
        snap = 1e-9 * (1.0 + PI)
        if abs(self.q.lo) > snap or abs(self.q.hi - PI) > snap:
            raise DomainError("member potential must span [0, pi]")
        for seg in self.q.segments:
            inside = seg.interval.lo >= 1.5 * a - snap and seg.interval.hi <= 3.0 * a + snap
            if not inside and np.any(seg.samples != 0.0):
                raise DomainError("member potential must vanish outside (3a/2, 3a)")
        if not _branch_matches(self.q, self.alpha, self.enu, 1.5 * a, 2.0 * a):
            raise DomainError("potential does not equal alpha * enu on (3a/2, 2a)")
        if not _branch_matches(self.q, 1.0, self.hnu, 2.5 * a, 3.0 * a):
            raise DomainError("potential does not equal hnu on (5a/2, 3a)")


def build_member(
    h: PiecewiseFunction,
    eta: float,
    e: PiecewiseFunction,
    nu: int,
    alpha: complex,
    a: float,
    *,
    check_pair: bool = True,
) -> FamilyMember:
    """Assemble the four-branch potential for one (alpha, nu).

    The branches, from the left: zero up to 3a/2; alpha * e; then
    -alpha K_{h_nu}(x + a/2) * int_{3a/2}^{x - a/2} e(t) dt, where
    K_{h_nu} is the tail integral of the rescaled kernel; then h_nu
    itself up to 3a; zero beyond.  The coupling branch is sampled on
    513 nodes with both factors read off precomputed antiderivatives.

    (eta, e) must be an actual eigenpair of the operator built from h;
    a residual above 1e-6 of e's size is rejected.  Passing
    ``check_pair=False`` skips that gate so deliberately broken seeds
    can be assembled for negative controls; everything such a member
    claims about itself still holds, it just loses the invariance
    properties an eigenpair buys.
    """
    if not 0.0 < a < PI / 3.0:
        raise PreconditionError(f"need a in (0, pi/3), got {a}")
    if nu not in (0, 1):
        raise PreconditionError(f"nu must be 0 or 1, got {nu}")
    eta = float(eta)
    if eta == 0.0:
        raise PreconditionError("eta must be a nonzero eigenvalue")
    alpha = complex(alpha)
    snap = 1e-9 * (1.0 + 2.0 * a)
    if abs(e.lo - 1.5 * a) > snap or abs(e.hi - 2.0 * a) > snap:
        raise PreconditionError(
            f"eigenfunction must span [3a/2, 2a], got [{e.lo}, {e.hi}]"
        )
    if check_pair:
        op = FredholmOperator(a, h)
        image = apply(op, e)
        escale = float(np.max(np.abs(e.all_samples())))
        gap = np.max(np.abs(image.all_samples() - eta * e.values(image.nodes())))
        if gap > 1e-6 * escale:
            raise PreconditionError(
                f"(eta, e) is not an eigenpair: residual {gap / escale:.3e} of e's size"
            )
    if nu == 1 and not zero_mean(e):
        warnings.warn(
            "eigenfunction has nonzero mean; omega will vary with alpha",
            stacklevel=2,
        )

    scale = (1.0 if nu == 0 else -1.0) / eta
    hnu = h.map_samples(lambda s, x: s * scale)
    tail = FredholmOperator(a, hnu)
    cume = cumulative(e, 1.5 * a)
    xs = np.linspace(e.hi, hnu.lo, _BRIDGE_NODES)
    bridge = -alpha * tail.kernel_values(xs + 0.5 * a) * cume.values(
        np.clip(xs - 0.5 * a, cume.lo, cume.hi)
    )

    segs = [
        SampledSegment(Interval(0.0, a), np.zeros(3)),
        SampledSegment(Interval(a, e.lo), np.zeros(3)),
    ]
    segs.extend(SampledSegment(s.interval, alpha * s.samples) for s in e.segments)
    segs.append(SampledSegment(Interval(e.hi, hnu.lo), bridge))
    segs.extend(hnu.segments)
    segs.append(SampledSegment(Interval(hnu.hi, PI), np.zeros(3)))
    q = PiecewiseFunction(segs)
    return FamilyMember(alpha=alpha, nu=nu, a=a, q=q, hnu=hnu, enu=e)


def w_of_member(member: FamilyMember) -> PiecewiseFunction:
    """Weight function of the member, computed by two formulas.

    The general construction integrates the correction kernel against
    the full potential.  Because every member vanishes on (a, 3a/2),
    the correction also collapses to a short form written directly in
    terms of the operator built from q's own top branch:

        w = q - (-1)^nu M_q q              on (3a/2, 2a)
        w = q + K_q(x + a/2) * int q       on (2a, 5a/2)

    and w = q elsewhere.  Both routes are evaluated and compared at
    every interior node; disagreement beyond 1e-8 of w's size means a
    bug in one of them, so it raises rather than returns.  The general
    result is the one returned.  The comparison checks each formula
    against the other, not the quadrature: both run their nested
    integrals through the lattice rule
    ``gridfn.lattice_product_integrals``, which is checked against a
    midpoint oracle, against the pointwise
    ``gridfn.shifted_product_integrals`` and, through ``apply``, against
    the Nystrom matrix.
    """
    a = member.a
    setup = DelaySetup(a=a, nu=member.nu)
    data0, _ = build_w(member.q, setup)
    w = data0.w

    top = _restrict(member.q, 2.5 * a, 3.0 * a)
    mid = _restrict(member.q, 1.5 * a, 2.0 * a)
    opq = FredholmOperator(a, top)
    mq = apply(opq, mid)
    cumq = cumulative(mid, 1.5 * a)
    sign = 1.0 if member.nu == 0 else -1.0

    worst = 0.0
    for seg in w.segments:
        xs = seg.nodes()[1:-1]
        if xs.size == 0:
            continue
        lo = seg.interval.lo
        if lo >= 2.5 * a - 1e-12:
            expect = member.q.values(xs)
        elif lo >= 2.0 * a - 1e-12:
            expect = member.q.values(xs) + opq.kernel_values(xs + 0.5 * a) * cumq.values(
                np.clip(xs - 0.5 * a, cumq.lo, cumq.hi)
            )
        elif lo >= 1.5 * a - 1e-12:
            expect = member.q.values(xs) - sign * mq.values(xs)
        else:
            expect = np.zeros(xs.size, dtype=complex)
        worst = max(worst, float(np.max(np.abs(seg.values(xs) - expect))))

    wscale = 1.0 + float(np.max(np.abs(w.all_samples())))
    if worst > 1e-8 * wscale:
        raise ConsistencyError(
            f"weight mismatch {worst:.3e} between the general and short forms"
        )
    return w


def omega_of_member(member: FamilyMember) -> complex:
    """Integral of the member potential over (a, pi)."""
    return complex(integrate(member.q, member.a, PI))


def bridge_integral(member: FamilyMember) -> complex:
    """Head-on double quadrature of the coupling branch's profile.

    Integrates K_{h_nu}(x + a/2) * int_{3a/2}^{x - a/2} e(t) dt over
    (2a, 5a/2), with no change of variables anywhere: the inner factor
    is an antiderivative of e, the outer one the tail integral of
    h_nu, and the product goes through plain composite quadrature.
    For a genuine eigenpair seed this equals (-1)^nu times the
    integral of e, so it vanishes whenever e has zero mean; that
    cancellation is what keeps omega alpha-independent.  Seeds built
    with ``check_pair=False`` satisfy no such identity.
    """
    a = member.a
    tail = FredholmOperator(a, member.hnu)
    cume = cumulative(member.enu, 1.5 * a)
    xs, ws = simpson_rule([2.0 * a, 2.5 * a], a / 2048.0)
    vals = tail.kernel_values(xs + 0.5 * a) * cume.values(
        np.clip(xs - 0.5 * a, cume.lo, cume.hi)
    )
    return complex(np.dot(ws, vals))
