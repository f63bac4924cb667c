"""Method-of-steps solver, series terms, and the closed-form second term."""

import numpy as np
import pytest

from delaysl import (
    DelaySetup,
    DomainError,
    Interval,
    PiecewiseFunction,
    PreconditionError,
    SampledSegment,
    build_w,
    ckernel,
    cumulative,
    endpoint_values,
    grid_breakpoints,
    integrate,
    p_function,
    p_kernel,
    q_correction,
    sample_function,
    series_sum,
    series_term,
    simpson_rule,
    skernel,
    solve_direct,
    y1_closed,
    y1_closed_prime,
    y2_closed,
    y2_closed_prime,
)
from delaysl.delay_solver import _March

A = np.pi / 4


def _bump(x):
    """Smooth potential supported on (a, 3a), continuous at both ends."""
    inside = (x > A) & (x < 3 * A)
    return np.where(inside, np.sin(np.pi * (x - A) / (2 * A)) ** 2, 0.0)


def _confined(nodes=65):
    return sample_function(_bump, grid_breakpoints(A, 0.0, np.pi), nodes)


def _zero(nodes=65):
    return sample_function(lambda x: np.zeros_like(x), grid_breakpoints(A, 0.0, np.pi), nodes)


def _setup(nu, nodes=65, steps=0):
    return DelaySetup(a=A, nu=nu, segment_nodes=nodes, steps_per_delay=steps)


def _kernel_pair(nu, lam, x):
    if nu == 0:
        return ckernel(lam, x), -lam * skernel(lam, x)
    return skernel(lam, x), ckernel(lam, x)


def test_setup_validation():
    for bad in (0.0, -1.0, np.pi):
        with pytest.raises(DomainError):
            DelaySetup(a=bad, nu=0)
    with pytest.raises(DomainError):
        DelaySetup(a=A, nu=2)
    with pytest.raises(DomainError):
        DelaySetup(a=A, nu=0, segment_nodes=4)
    with pytest.raises(DomainError):
        DelaySetup(a=A, nu=0, segment_nodes=1)
    with pytest.raises(DomainError):
        DelaySetup(a=A, nu=0, steps_per_delay=-1)


def test_setup_resolved_quantities():
    assert DelaySetup(a=A, nu=0).levels == 3
    assert DelaySetup(a=np.pi / 3.5, nu=0).levels == 3
    assert DelaySetup(a=np.pi / 10, nu=0).levels == 9
    # steps round up to a multiple of segment_nodes - 1
    assert DelaySetup(a=A, nu=0, segment_nodes=65, steps_per_delay=100).steps == 128
    assert DelaySetup(a=A, nu=0, segment_nodes=513).steps == 1024


def test_grid_breakpoints_are_half_delay_multiples():
    pts = grid_breakpoints(A, 0.0, np.pi)
    assert np.allclose(pts, np.arange(9) * np.pi / 8, atol=1e-12)
    pts = grid_breakpoints(A, 0.1, 1.0)
    assert np.allclose(pts, [0.1, np.pi / 8, np.pi / 4, 1.0], atol=1e-12)
    with pytest.raises(DomainError):
        grid_breakpoints(A, 1.0, 1.0)


def test_free_solutions_are_the_kernels():
    q = _zero()
    for nu in (0, 1):
        for lam in (7.3, -2.0, 3.0 + 2.0j):
            trace = solve_direct(q, _setup(nu), lam)
            x = trace.y.nodes()
            want_y, want_yp = _kernel_pair(nu, lam, x)
            assert np.max(np.abs(trace.y.all_samples() - want_y)) < 1e-10
            assert np.max(np.abs(trace.yprime.all_samples() - want_yp)) < 1e-9 * (1 + abs(lam))
            end_y, end_yp = _kernel_pair(nu, lam, np.pi)
            assert abs(trace.y_end - end_y) < 1e-10
            assert abs(trace.yp_end - end_yp) < 1e-9 * (1 + abs(lam))


def test_solution_is_undelayed_before_the_potential_starts():
    q = _confined()
    lam = 14.0
    for nu in (0, 1):
        trace = solve_direct(q, _setup(nu), lam)
        x = np.concatenate([trace.y.segments[0].nodes(), trace.y.segments[1].nodes()])
        want, _ = _kernel_pair(nu, lam, x)
        assert np.max(np.abs(trace.y(x) - want)) < 1e-10
        # between nodes only the interpolation floor remains
        x = np.linspace(0.0, A, 40)
        want, _ = _kernel_pair(nu, lam, x)
        assert np.max(np.abs(trace.y(x) - want)) < 1e-7


def test_series_support_ladder():
    q = _confined()
    setup = _setup(1)
    lam = 20.0
    for k in (1, 2, 3):
        term = series_term(q, setup, k, lam)
        x = np.linspace(0.0, k * A - 1e-9, 60)
        assert np.max(np.abs(term.y(x))) < 1e-12
    assert np.max(np.abs(series_term(q, setup, 1, lam).y.all_samples())) > 1e-4
    # four shifts of the delay exhaust (0, pi) at a = pi/4
    dead = series_term(q, setup, 4, lam)
    assert np.max(np.abs(dead.y.all_samples())) == 0.0
    with pytest.raises(DomainError):
        series_term(q, setup, -1, lam)


def test_series_sum_matches_direct_solver():
    rng = np.random.default_rng(41)
    breaks = grid_breakpoints(A, 0.0, np.pi)
    segs = []
    for k, (lo, hi) in enumerate(zip(breaks[:-1], breaks[1:])):
        level = 0.0 if k < 2 else rng.uniform(-2.0, 2.0)
        segs.append(SampledSegment(Interval(lo, hi), np.full(129, level)))
    q = PiecewiseFunction(segs)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        for lam in (-4.0, 1.0, 100.0):
            direct = solve_direct(q, setup, lam)
            summed = series_sum(q, setup, lam)
            scale = 1.0 + np.max(np.abs(direct.y.all_samples()))
            gap = np.max(np.abs(direct.y.all_samples() - summed.y.all_samples()))
            assert gap < 1e-7 * scale
            assert abs(direct.y_end - summed.y_end) < 1e-7 * scale
            assert abs(direct.yp_end - summed.yp_end) < 1e-7 * scale * (1 + abs(lam) ** 0.5)


def test_first_term_closed_form_matches_quadrature():
    q = _confined(nodes=129)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        lams = [9.0, 150.0, 2.0 + 1.0j]
        if nu == 1:
            lams.append(1.2e-3)  # just above the series fallback threshold
        for lam in lams:
            closed = y1_closed(q, setup, lam)
            quad = series_term(q, setup, 1, lam)
            scale = 1.0 + np.max(np.abs(quad.y.all_samples()))
            assert np.max(np.abs(closed.y.all_samples() - quad.y.all_samples())) < 1e-8 * scale
            assert np.max(np.abs(closed.yprime.all_samples() - quad.yprime.all_samples())) < 1e-7 * scale


def test_first_term_prime_matches_finite_differences():
    q = _confined(nodes=129)
    h = 1e-5
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        lam = 30.0
        yfun = y1_closed(q, setup, lam).y
        pfun = y1_closed_prime(q, setup, lam)
        xs = np.array([A + 0.05, 2.1, 2.9])
        fd = (yfun(xs + h) - yfun(xs - h)) / (2.0 * h)
        assert np.max(np.abs(pfun(xs) - fd)) < 1e-6


def test_first_term_vanishes_without_potential():
    q = _zero()
    for nu in (0, 1):
        closed = y1_closed(q, _setup(nu), 25.0)
        assert np.max(np.abs(closed.y.all_samples())) < 1e-14


def _omega_one(q, x):
    """Independent route to the nested integral of q against its own tail."""
    omega = cumulative(q, A)
    pts = [2 * A] + [b for b in q.breakpoints() if 2 * A < b < x] + [x]
    xs, ws = simpson_rule(pts, 1e-3)
    return ws @ (q(xs) * omega(xs - A))


def test_p_kernel_boundary_identities():
    q = _confined(nodes=129)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        for x in (2 * A + 0.3, 2.6, np.pi):
            assert abs(p_kernel(q, setup, x, x - A / 2)) < 1e-12
            want = (-1.0) ** nu * _omega_one(q, x)
            assert abs(p_kernel(q, setup, x, 1.5 * A) - want) < 1e-8 * (1 + abs(want))


def test_p_kernel_domain_checks():
    q = _confined()
    setup = _setup(0)
    assert p_kernel(_zero(), setup, 2.8, 1.8) == 0.0
    with pytest.raises(DomainError):
        p_kernel(q, setup, 2.8, 1.5 * A - 0.01)
    with pytest.raises(DomainError):
        p_kernel(q, setup, 2.8, 2.8 - A / 2 + 0.01)
    with pytest.raises(DomainError):
        p_kernel(q, setup, np.pi + 0.05, np.pi - 0.2)


def test_p_function_agrees_with_pointwise_kernel():
    q = _confined(nodes=129)
    setup = _setup(1, nodes=129)
    x = 2.8
    pfn = p_function(q, setup, x)
    ts = np.linspace(1.5 * A + 0.01, x - A / 2 - 0.01, 7)
    for t in ts:
        assert abs(pfn(t) - p_kernel(q, setup, x, t)) < 1e-9
    assert p_function(q, setup, 2 * A - 0.01) is None


def _stepped(nodes=129):
    """The bump plus a different constant on each a/2 of (a, 3a), so q jumps there.

    The jumps are large enough that cubic interpolation across one of
    P's kinks misses by more than 1e-9.
    """
    bps = grid_breakpoints(A, 0.0, np.pi)
    steps = {1.0: 3.0, 1.5: -2.0, 2.0: 5.0, 2.5: 1.0}
    segs = []
    for lo, hi in zip(bps[:-1], bps[1:]):
        x = np.linspace(lo, hi, nodes)
        segs.append(SampledSegment(Interval(lo, hi), _bump(x) + steps.get(round(lo / A, 6), 0.0)))
    return PiecewiseFunction(segs)


def test_p_function_matches_the_pointwise_kernel_across_its_kinks():
    # For x in (5a/2, 3a) P(x, .) kinks at x - a, off the lattice, by the
    # jump of q at 3a/2.  x = 3a - 1.2 delta leaves a piece 1.2 delta long,
    # too short to interpolate in, which goes through the pointwise route.
    q = _stepped()
    delta = A / 4096
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        for x in (2.6 * A, 2.83 * A, 3 * A - 1.2 * delta):
            pfn = p_function(q, setup, x)
            lengths = [seg.interval.length for seg in pfn.segments]
            assert (min(lengths) < 4 * delta) == (x > 2.9 * A)
            for seg in pfn.segments:
                for t in np.linspace(seg.interval.lo, seg.interval.hi, 5):
                    want = p_kernel(q, setup, x, t)
                    assert abs(seg.values(t) - want) < 1e-9


def test_weight_correction_matches_the_pointwise_correction():
    q = _stepped()
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        w = build_w(q, setup)[0].w
        for x in (1.5 * A + 48 * A / 4096, 2 * A, 2 * A + 112 * A / 4096, 2.5 * A - 16 * A / 4096):
            want = q_correction(q, setup, x)
            assert abs(w(x) - q(x) - want) < 1e-9 * (1 + abs(want))


def test_second_term_closed_form_matches_quadrature():
    q = _confined(nodes=129)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        x = 2.7
        pfn = p_function(q, setup, x)
        for lam in (9.0, 150.0, 2.0 + 1.0j):
            quad = series_term(q, setup, 2, lam)
            want = quad.y(x)
            have = y2_closed(q, setup, lam, x, pfn=pfn)
            assert abs(have - want) < 1e-7 * (1 + abs(want))
            want_p = quad.yprime(x)
            have_p = y2_closed_prime(q, setup, lam, x, pfn=pfn)
            assert abs(have_p - want_p) < 1e-6 * (1 + abs(want_p))


def test_second_term_domain_and_trivial_cases():
    setup = _setup(0)
    assert y2_closed(_zero(), setup, 10.0, 2.9) == 0.0
    with pytest.raises(DomainError):
        y2_closed(_confined(), setup, 10.0, 2 * A - 0.05)


def test_three_term_sum_closes_the_oracle_triangle():
    q = _confined(nodes=129)
    xs = (2 * A + 0.2, 3.0)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        pfns = {x: p_function(q, setup, x) for x in xs}
        for lam in (380.0, 5.0 + 4.0j):
            direct = solve_direct(q, setup, lam)
            summed = series_sum(q, setup, lam)
            y1t = y1_closed(q, setup, lam)
            for x in xs:
                y0, _ = _kernel_pair(nu, lam, x)
                closed = y0 + y1t.y(x) + y2_closed(q, setup, lam, x, pfn=pfns[x])
                scale = 1.0 + abs(direct.y(x))
                assert abs(direct.y(x) - summed.y(x)) < 1e-7 * scale
                assert abs(direct.y(x) - closed) < 1e-7 * scale


def test_interior_second_differences_recover_the_equation():
    q = _confined(nodes=129)
    lam = 15.0
    res = []
    for nodes in (129, 257):
        setup = _setup(0, nodes=nodes, steps=2048)
        trace = solve_direct(q, setup, lam)
        worst = 0.0
        for k in (4, 5):  # segments covering (2a, 3a)
            seg = trace.y.segments[k]
            hist = trace.y.segments[k - 2]
            x = seg.nodes()
            h = x[1] - x[0]
            d2 = (seg.samples[:-2] - 2 * seg.samples[1:-1] + seg.samples[2:]) / h**2
            rhs = q(x[1:-1]) * hist.samples[1:-1] - lam * seg.samples[1:-1]
            worst = max(worst, np.max(np.abs(d2 - rhs)))
        res.append(worst)
    assert res[0] / res[1] > 3.2


def test_endpoint_values_batch_and_initial_type():
    # identities, bit for bit: only init_nu selects the initial values,
    # and a point's value does not depend on the batch it comes in (at
    # a = 0.7 through the partial last cell too)
    lam = np.array([4.0, 90.0, 2.0 + 3.0j, 0.0, 1e-6, -40.0, 4000.0])
    for q, a in ((_confined(), A), (_stepped_delay(0.7, nodes=65), 0.7)):
        setups = [DelaySetup(a=a, nu=nu, segment_nodes=65) for nu in (0, 1)]
        ys, yps = endpoint_values(q, setups[0], 1, lam)
        ys1, yps1 = endpoint_values(q, setups[1], 1, lam)
        assert np.array_equal(ys, ys1) and np.array_equal(yps, yps1)
        for k, l in enumerate(lam):
            y, yp = endpoint_values(q, setups[0], 1, l)
            assert y == ys[k] and yp == yps[k]


def _stepped_delay(a, jumps=(), nodes=129):
    """The bump on (a, 3a) plus a constant jumping at every a/2 of (a, pi).

    ``jumps`` adds breakpoints, where q jumps by 4 more.
    """
    bps = np.sort(np.concatenate([grid_breakpoints(a, 0.0, np.pi), jumps]))
    segs = []
    for lo, hi in zip(bps[:-1], bps[1:]):
        x = np.linspace(lo, hi, nodes)
        inside = (x > a) & (x < 3 * a)
        level = 0.0 if lo < a else (-1.0) ** round(2 * lo / a) * (1.0 + lo)
        level += 4.0 * sum(lo >= b for b in jumps)
        bump = np.where(inside, np.sin(np.pi * (x - a) / (2 * a)) ** 2, 0.0)
        segs.append(SampledSegment(Interval(lo, hi), bump + level))
    return PiecewiseFunction(segs)


def _refined_rk4(q, a, init_nu, lam):
    """The RK4 march at a step of at most pi/16384 (4096 steps per delay at a = pi/4)."""
    steps = int(np.ceil(a / (np.pi / 16384)))
    setup = DelaySetup(a=a, nu=0, segment_nodes=129, steps_per_delay=steps)
    march = _March(q, setup, init_nu, lam)
    return march.y_end, march.yp_end


@pytest.mark.parametrize("a", [A, 0.7, 1.7])
def test_block_solver_matches_refined_rk4(a):
    # a = 0.7 and 1.7 put pi off the node grid.  At a = pi/4 a second
    # potential also jumps at two nodes that are no multiples of a/2, the
    # second one node past the first's kink of y(t - a), which leaves a
    # piece of one cell.
    lam = np.array([-40.0, -20.0, 0.0, 1e-6, 3.0 + 10.0j, 100.0 - 10.0j, 425.0])
    setup = DelaySetup(a=a, nu=0, segment_nodes=129)
    potentials = [_stepped_delay(a)]
    if a == A:
        h = a / setup.steps
        potentials.append(_stepped_delay(a, jumps=(1.5 * a + 37 * h, 2.5 * a + 38 * h)))
    for q in potentials:
        for nu in (0, 1):
            y, yp = endpoint_values(q, setup, nu, lam)
            want_y, want_yp = _refined_rk4(q, a, nu, lam)
            assert np.max(np.abs(y - want_y) / np.abs(want_y)) <= 1e-9
            assert np.max(np.abs(yp - want_yp) / np.abs(want_yp)) <= 1e-8


def test_block_solver_without_potential_gives_the_kernels():
    lam = np.array([-40.0, 0.0, 1e-6, 7.3, 3.0 + 2.0j, 425.0])
    for a in (A, 0.7):
        q = sample_function(lambda x: np.zeros_like(x), grid_breakpoints(a, 0.0, np.pi), 65)
        setup = DelaySetup(a=a, nu=0, segment_nodes=65)
        for nu in (0, 1):
            y, yp = endpoint_values(q, setup, nu, lam)
            want_y, want_yp = _kernel_pair(nu, lam, np.pi)
            assert np.max(np.abs(y - want_y) / (1.0 + np.abs(want_y))) < 1e-13
            assert np.max(np.abs(yp - want_yp) / (1.0 + np.abs(want_yp))) < 1e-13
    # the partial last cell interpolates y(t - a) on 4 nodes of a block
    with pytest.raises(DomainError):
        endpoint_values(_zero(), DelaySetup(a=A, nu=0, segment_nodes=3, steps_per_delay=2), 0, 1.0)


def test_support_violation_is_rejected():
    grid = grid_breakpoints(A, 0.0, np.pi)
    q = sample_function(np.cos, grid, 65)
    with pytest.raises(PreconditionError):
        solve_direct(q, _setup(0), 5.0)
