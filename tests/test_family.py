"""Potential family assembly and its alpha-invariance properties."""

import dataclasses

import numpy as np
import pytest

from delaysl import (
    DomainError,
    PreconditionError,
    bridge_integral,
    build_member,
    build_w,
    integrate,
    omega_of_member,
    sample_function,
    w_of_member,
)
from delaysl.cli import RunConfig, _seed_pair
from delaysl.delay_solver import DelaySetup

A = np.pi / 4
ALPHAS = (0.0, 1.0, -2.0, 2.0 + 3.0j)


def _seed(nu):
    return _seed_pair(RunConfig(a=A, nu=nu))


def _member(nu, alpha, **kw):
    h, eta, e = _seed(nu)
    return build_member(h, eta, e, nu=nu, alpha=alpha, a=A, **kw)


def _shifted_member(nu, alpha, shift=0.5):
    h, eta, e = _seed(nu)
    bad = e.shift_values(shift)
    with pytest.warns(UserWarning) if nu == 1 else _nullcontext():
        return build_member(h, eta, bad, nu=nu, alpha=alpha, a=A, check_pair=False)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def test_build_member_validation():
    h, eta, e = _seed(1)
    with pytest.raises(PreconditionError):
        build_member(h, eta, e, nu=1, alpha=0.0, a=1.2)
    with pytest.raises(PreconditionError):
        build_member(h, eta, e, nu=2, alpha=0.0, a=A)
    with pytest.raises(PreconditionError):
        build_member(h, 0.0, e, nu=1, alpha=0.0, a=A)
    off_span = sample_function(np.cos, [0.0, 1.0], 65)
    with pytest.raises(PreconditionError):
        build_member(h, eta, off_span, nu=1, alpha=0.0, a=A)


def test_tampered_seed_is_rejected_unless_unchecked():
    h, eta, e = _seed(1)
    crooked = h.map_samples(lambda s, x: 1.01 * s)
    with pytest.raises(PreconditionError):
        build_member(crooked, eta, e, nu=1, alpha=1.0, a=A)
    member = build_member(crooked, eta, e, nu=1, alpha=1.0, a=A, check_pair=False)
    assert member.alpha == 1.0


def test_zero_alpha_member_is_the_bare_kernel_density():
    for nu in (0, 1):
        member = _member(nu, 0.0)
        x_low = np.linspace(A + 0.01, 5 * A / 2 - 0.01, 50)
        assert np.max(np.abs(member.q(x_low))) == 0.0
        x_top = np.linspace(5 * A / 2 + 0.01, 3 * A - 0.01, 50)
        assert np.max(np.abs(member.q(x_top) - member.hnu(x_top))) < 1e-12


def test_member_potential_values():
    member = _member(1, 1.0)
    # on (3a/2, 2a) the potential is alpha times the eigenfunction
    assert member.q(7 * A / 4) == pytest.approx(-1.0, abs=1e-12)
    assert member.q(3 * A / 2) == pytest.approx(2.0, abs=1e-12)
    member2 = _member(1, 2.0 - 1.0j)
    assert member2.q(7 * A / 4) == pytest.approx(-(2.0 - 1.0j), abs=1e-12)


def test_member_rejects_inconsistent_edits():
    member = _member(1, 1.0)
    with pytest.raises(DomainError):
        dataclasses.replace(member, alpha=2.0)


def test_omega_is_alpha_invariant():
    for nu in (0, 1):
        base = omega_of_member(_member(nu, 0.0))
        for alpha in ALPHAS[1:]:
            omega = omega_of_member(_member(nu, alpha))
            assert abs(omega - base) < 1e-9 * (1 + abs(base))


def test_bridge_integral_vanishes_for_genuine_seeds():
    for nu in (0, 1):
        assert abs(bridge_integral(_member(nu, 1.0))) < 1e-8


def test_shifted_seed_shifts_omega_by_the_predicted_amount():
    shifted0 = _shifted_member(1, 0.0)
    shifted1 = _shifted_member(1, 1.0)
    base, moved = omega_of_member(shifted0), omega_of_member(shifted1)
    assert abs(moved - base) > 1e-3
    mean = integrate(shifted1.enu, 3 * A / 2, 2 * A)
    predicted = mean - bridge_integral(shifted1)
    assert abs((moved - base) - predicted) < 1e-9


def test_weight_is_alpha_invariant_and_collapses():
    ws = {}
    for alpha in (0.0, 2.0 + 3.0j):
        member = _member(1, alpha)
        ws[alpha] = w_of_member(member)
    scale = np.max(np.abs(ws[0.0].all_samples()))
    gap = np.max(np.abs(ws[0.0].all_samples() - ws[2.0 + 3.0j].all_samples()))
    assert gap < 1e-8 * scale
    w = ws[2.0 + 3.0j]
    member = _member(1, 2.0 + 3.0j)
    x_low = np.linspace(A + 0.01, 5 * A / 2 - 0.01, 50)
    assert np.max(np.abs(w(x_low))) < 1e-8 * scale
    x_top = np.linspace(5 * A / 2 + 0.01, 3 * A - 0.01, 50)
    assert np.max(np.abs(w(x_top) - member.hnu(x_top))) < 1e-8 * scale


def test_weight_route_matches_general_construction():
    member = _member(0, 1.0)
    w = w_of_member(member)
    data0, _ = build_w(member.q, DelaySetup(a=A, nu=0))
    xs = np.linspace(A + 0.01, 3 * A - 0.01, 80)
    scale = 1.0 + np.max(np.abs(w(xs)))
    assert np.max(np.abs(w(xs) - data0.w(xs))) < 1e-8 * scale
