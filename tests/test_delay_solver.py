"""Method-of-steps solver, series terms, and the closed-form second term."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    kernel_pair,
    sample_function,
    simpson_rule,
    skernel,
    y1_closed,
    y2_closed,
)
from delaysl import delay_solver, kernels
from delaysl.delay_solver import _Blocks, _kernel_tables, _short_tables, p_function, series_term
from delaysl.kernels import SERIES_THRESHOLD
from oracles import _March, p_kernel, series_sum, solve_direct

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
        assert np.max(np.abs(trace.y.values(x) - want)) < 1e-10
        # between nodes only the interpolation floor remains
        x = np.linspace(0.0, A, 40)
        want, _ = _kernel_pair(nu, lam, x)
        assert np.max(np.abs(trace.y.values(x) - want)) < 1e-7


def test_series_support_ladder():
    q = _confined()
    setup = _setup(1)
    lam = 20.0
    for k in (1, 2, 3):
        term = series_term(q, setup, k, lam)
        x = np.linspace(0.0, k * A - 1e-9, 60)
        assert np.max(np.abs(term.y.values(x))) < 1e-12
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
        closed = y1_closed(q, setup, lam)
        yfun, pfun = closed.y, closed.yprime
        xs = np.array([A + 0.05, 2.1, 2.9])
        fd = (yfun.values(xs + h) - yfun.values(xs - h)) / (2.0 * h)
        assert np.max(np.abs(pfun.values(xs) - fd)) < 1e-6


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
    return ws @ (q.values(xs) * omega.values(xs - A))


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
        assert abs(pfn.values(t) - p_kernel(q, setup, x, t)) < 1e-9
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
            want = p_kernel(q, _setup(1 - nu, nodes=129), 3 * A, x)
            assert abs(w.values(x) - q.values(x) - want) < 1e-9 * (1 + abs(want))


def test_second_term_closed_form_matches_quadrature():
    q = _confined(nodes=129)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        x = 2.7
        lams = np.array([9.0, 150.0, 2.0 + 1.0j])
        for lam, have, have_p in zip(lams, *y2_closed(q, setup, lams, x)):
            quad = series_term(q, setup, 2, lam)
            want = quad.y.values(x)
            assert abs(have - want) < 1e-7 * (1 + abs(want))
            want_p = quad.yprime.values(x)
            assert abs(have_p - want_p) < 1e-6 * (1 + abs(want_p))


def test_second_term_domain_and_trivial_cases():
    setup = _setup(0)
    assert y2_closed(_zero(), setup, 10.0, 2.9) == (0.0, 0.0)
    with pytest.raises(DomainError):
        y2_closed(_confined(), setup, 10.0, 2 * A - 0.05)


def test_second_term_does_not_depend_on_the_batch():
    q = _confined(nodes=129)
    x = 2.7
    edge = 1.0 / (x - 2 * A) ** 2  # the rule's series switch for y = x + a - 2t
    lams = np.array(
        [0.0, 5e-4, 2e-3, 0.5 * edge, edge * (1 - 1e-3), -edge * (1 + 1e-3), 10 + 5j, 4000.0]
    )
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        batch = y2_closed(q, setup, lams, x)
        for k, lam in enumerate(lams):
            alone = y2_closed(q, setup, lam, x)
            assert batch[0][k] == alone[0] and batch[1][k] == alone[1], (nu, lam)
        assert np.array_equal(y2_closed(q, setup, lams[::-1], x)[0], batch[0][::-1])


def test_inner_correlation_is_kept_for_the_same_potential_delay_and_x(monkeypatch):
    # P's inner lattice correlation does not depend on nu, and the last
    # one is kept: the other nu at the same q, a and x reuses it, and a
    # second potential, a changed a or x computes its own; every value is
    # what a cleared cache gives, bit for bit
    lams = np.array([2.0, 10 + 5j, 380.0])
    q1, q2 = _confined(nodes=129), _stepped()
    runs = [(q1, A, 2.7, 0), (q1, A, 2.7, 1), (q2, A, 2.7, 1), (q1, A / 2, 2.7, 1)]
    runs += [(q1, A, 2.7, 1), (q1, A, 2.6, 1), (q1, A, 2.7, 0)]
    real = delay_solver.lattice_product_integrals
    calls = []
    monkeypatch.setattr(
        delay_solver,
        "lattice_product_integrals",
        lambda *args: calls.append(1) or real(*args),
    )

    def second_term(q, a, x, nu):
        return y2_closed(q, DelaySetup(a=a, nu=nu, segment_nodes=129), lams, x)

    delay_solver._inner_lattice.cache_clear()
    seen = [second_term(*run) for run in runs]
    assert len(calls) == len(runs) - 1
    for run, (y, yp) in zip(runs, seen):
        delay_solver._inner_lattice.cache_clear()
        want_y, want_yp = second_term(*run)
        assert np.array_equal(y, want_y) and np.array_equal(yp, want_yp)
    # each change of q, a or x moves the values of the same nu
    for k in (2, 3, 5):
        assert not np.any(seen[k][0] == seen[1][0])
    kept = delay_solver._inner_lattice(q1, A, 2.7, 10, 20)
    assert not kept.flags.writeable
    assert delay_solver._inner_lattice(q1, A, 2.7, 10, 20) is kept
    assert not np.array_equal(delay_solver._inner_lattice(q1, A / 2, 2.7, 10, 20), kept)
    assert not np.array_equal(delay_solver._inner_lattice(q2, A, 2.7, 10, 20), kept)


def _simpson_second_term(q, setup, lams, x):
    """(y2, y2') by composite Simpson at step a/16384 on the same P(x, .).

    Every cell of P's samples gets its own panels, so no panel straddles
    a break of the cubic interpolant.
    """
    s_int = c_int = 0.0
    for seg in p_function(q, setup, x).segments:
        ts, ws = simpson_rule(seg.nodes(), A / 16384)
        pv = seg.values(ts)
        c, s = kernel_pair(lams[:, None], x - 2.0 * ts + A)
        s_int, c_int = s_int + (pv * s) @ ws, c_int + (pv * c) @ ws
    if setup.nu == 0:
        return 0.5 * s_int, 0.5 * c_int
    return 0.5 * c_int / lams, -0.5 * s_int


def test_second_term_matches_a_fine_simpson_rule():
    # x = 3a - 1.2 delta leaves P(x, .) a 5-sample piece (see the kink test above)
    q = _stepped()
    delta = A / 4096
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        lams = np.array([0.0, 0.05, 2.0, -30.0, 10 + 5j, 380.0, 4000.0])[nu:]
        for x in (2.7, 3 * A - 1.2 * delta):
            have = y2_closed(q, setup, lams, x)
            for got, want in zip(have, _simpson_second_term(q, setup, lams, x)):
                assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (nu, x)


def test_three_term_sum_closes_the_oracle_triangle():
    q = _confined(nodes=129)
    xs = (2 * A + 0.2, 3.0)
    for nu in (0, 1):
        setup = _setup(nu, nodes=129)
        lams = np.array([380.0, 5.0 + 4.0j])
        y2s = {x: y2_closed(q, setup, lams, x)[0] for x in xs}
        for i, lam in enumerate(lams):
            direct = solve_direct(q, setup, lam)
            summed = series_sum(q, setup, lam)
            y1t = y1_closed(q, setup, lam)
            for x in xs:
                y0, _ = _kernel_pair(nu, lam, x)
                closed = y0 + y1t.y.values(x) + y2s[x][i]
                scale = 1.0 + abs(direct.y.values(x))
                assert abs(direct.y.values(x) - summed.y.values(x)) < 1e-7 * scale
                assert abs(direct.y.values(x) - closed) < 1e-7 * scale


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
            rhs = q.values(x[1:-1]) * hist.samples[1:-1] - lam * seg.samples[1:-1]
            worst = max(worst, np.max(np.abs(d2 - rhs)))
        res.append(worst)
    assert res[0] / res[1] > 3.2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_endpoint_values_batch_and_initial_type():
    # identities, bit for bit: only init_nu selects the initial values,
    # and a point's value does not depend on the batch it comes in (at
    # a = 0.7 through the partial last cell too); the 22 points span at
    # least three passes of the block solver at either delay, and a slice
    # of them starts and ends inside passes
    lam = np.concatenate(
        [
            [4.0, 90.0, 2.0 + 3.0j, 0.0, 1e-6, -40.0, 4000.0, -1e-7 + 2e-7j, 1e-3],
            np.linspace(-30.0, 420.0, 7) + 1j * np.linspace(-10.0, 10.0, 7),
            [7.3 - 9.0j, -2000.0, 500.0 + 10.0j, 0.25, 16.0, -3.0 - 1.0j],
        ]
    )
    for q, a in ((_confined(), A), (_stepped_delay(0.7, nodes=65), 0.7)):
        setups = [DelaySetup(a=a, nu=nu, segment_nodes=65) for nu in (0, 1)]
        ys, yps = endpoint_values(q, setups[0], 1, lam)
        ys1, yps1 = endpoint_values(q, setups[1], 1, lam)
        assert np.array_equal(ys, ys1) and np.array_equal(yps, yps1)
        assert 2 * delay_solver._PASS_SIZE < lam.size * (setups[0].steps + 1)
        for k, l in enumerate(lam):
            y, yp = endpoint_values(q, setups[0], 1, l)
            assert y == ys[k] and yp == yps[k]
        part = endpoint_values(q, setups[0], 1, lam[5:17])
        assert np.array_equal(part[0], ys[5:17]) and np.array_equal(part[1], yps[5:17])


def _one_cell_piece(a, nodes=65):
    """``_stepped_delay`` with two off-grid jumps, the second leaving a piece of one cell."""
    h = a / DelaySetup(a=a, nu=0, segment_nodes=nodes).steps
    return _stepped_delay(a, jumps=(1.5 * a + 37 * h, 2.5 * a + 38 * h), nodes=nodes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [A, 0.7])
def test_kernels_are_evaluated_once_per_chunk(monkeypatch, a):
    # 600 points are three chunks of many passes each; a chunk makes one
    # kernel_pair call per short table and one for the Simpson points,
    # those of the one-cell piece at a = pi/4 and of the partial last
    # cell at a = 0.7
    q = _one_cell_piece(a) if a == A else _stepped_delay(a, nodes=65)
    setup = DelaySetup(a=a, nu=0, segment_nodes=65)
    blocks = delay_solver._blocks_for(q, setup)
    assert blocks.simpson_pts.size > 0
    assert blocks.chunk <= delay_solver._PASS_SIZE // (blocks.m // 32 + 1)
    calls = []
    kernel_pair = kernels.kernel_pair
    monkeypatch.setattr(kernels, "kernel_pair", lambda *args: calls.append(1) or kernel_pair(*args))
    endpoint_values(q, setup, 0, np.linspace(-40.0, 425.0, 600) + 2.0j)
    chunks = -(-600 // blocks.chunk)
    assert chunks == 3 and 600 > 60 * blocks.rows
    assert len(calls) == 3 * chunks


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [A, 0.7])
def test_values_do_not_depend_on_the_chunks(a):
    # one-point calls around every chunk boundary, and batches that
    # straddle or shift the boundaries, give the batched values bit for
    # bit (at a = 0.7 through the partial last cell too)
    q = _one_cell_piece(a) if a == A else _stepped_delay(a, nodes=65)
    setup = DelaySetup(a=a, nu=0, segment_nodes=65)
    rng = np.random.default_rng(7)
    lam = rng.uniform(-40.0, 430.0, 600) + 1j * rng.uniform(-10.0, 10.0, 600)
    lam[::50] = lam[::50].real  # real points too
    ys, yps = endpoint_values(q, setup, 1, lam)
    chunk = delay_solver._blocks_for(q, setup).chunk
    assert lam.size > 2 * chunk
    for edge in range(chunk, lam.size, chunk):
        around = slice(edge - 3, edge + 3)
        for k in range(edge - 3, edge + 3):
            y, yp = endpoint_values(q, setup, 1, lam[k])
            assert y == ys[k] and yp == yps[k]
        part = endpoint_values(q, setup, 1, lam[around])
        assert np.array_equal(part[0], ys[around]) and np.array_equal(part[1], yps[around])
    shifted = endpoint_values(q, setup, 1, lam[5:])
    assert np.array_equal(shifted[0], ys[5:]) and np.array_equal(shifted[1], yps[5:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_set_up_follows_the_potential_and_the_grid():
    # the kept set-up is reused only for the same potential and an equal
    # setup; every call returns what a fresh set-up gives, bit for bit
    lam = np.array([-40.0, 0.0, 3.0 + 2.0j, 90.0, 425.0])
    q1, q2 = _confined(), _stepped_delay(A, nodes=65)
    coarse = DelaySetup(a=A, nu=0, segment_nodes=65)
    fine = DelaySetup(a=A, nu=0, segment_nodes=65, steps_per_delay=1100)

    def fresh(q, setup):
        delay_solver._blocks_for.cache_clear()
        return endpoint_values(q, setup, 0, lam)

    runs = [(q1, coarse), (q2, coarse), (q1, coarse), (q1, fine), (q1, coarse)]
    seen = [endpoint_values(q, setup, 0, lam) for q, setup in runs]
    for (q, setup), (y, yp) in zip(runs, seen):
        want_y, want_yp = fresh(q, setup)
        assert np.array_equal(y, want_y) and np.array_equal(yp, want_yp)
    assert not np.array_equal(seen[0][0], seen[1][0])
    assert not np.array_equal(seen[0][0], seen[3][0])
    assert np.array_equal(seen[0][0], seen[2][0])
    # an equal setup built anew hits the kept set-up
    kept = delay_solver._blocks_for(q1, coarse)
    assert delay_solver._blocks_for(q1, DelaySetup(a=A, nu=0, segment_nodes=65)) is kept
    assert delay_solver._blocks_for(_confined(), coarse) is not kept


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


def _gapped(a, nodes=129):
    """Levels jumping at every a/2 plus a bump on (3a/2, 5a/2), zero elsewhere.

    Every family member vanishes on (a, 3a/2) and (3a, pi) like this, so
    the block solver meets whole pieces without forcing; the gap
    (5a/2, 3a) ends a block that starts with forcing.
    """
    bps = grid_breakpoints(a, 0.0, np.pi)
    segs = []
    for lo, hi in zip(bps[:-1], bps[1:]):
        x = np.linspace(lo, hi, nodes)
        if 1.5 * a - 1e-9 <= lo < 2.5 * a - 1e-9:
            vals = (-1.0) ** round(2 * lo / a) * (1.0 + lo) + np.sin(np.pi * x / a) ** 2
        else:
            vals = np.zeros_like(x)
        segs.append(SampledSegment(Interval(lo, hi), vals))
    return PiecewiseFunction(segs)


def _holed(a, nodes=129):
    """``_stepped_delay`` with the block [2a, 3a] cut out."""
    segs = []
    for seg in _stepped_delay(a, nodes=nodes).segments:
        cut = 2 * a - 1e-9 <= seg.interval.lo < 3 * a - 1e-9
        segs.append(SampledSegment(seg.interval, 0.0 * seg.samples if cut else seg.samples))
    return PiecewiseFunction(segs)


def _refined_rk4(q, a, lam):
    """The RK4 march at a step of at most pi/16384 (4096 steps per delay at a = pi/4).

    One march for both initial types: rows nu of the results are for
    init_nu = nu.
    """
    steps = int(np.ceil(a / (np.pi / 16384)))
    setup = DelaySetup(a=a, nu=0, segment_nodes=129, steps_per_delay=steps)
    march = _March(q, setup, np.repeat([0, 1], lam.size), np.tile(lam, 2))
    return march.y_end.reshape(2, -1), march.yp_end.reshape(2, -1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [A, A - 1e-6, 0.7, 1.7])
def test_block_solver_matches_refined_rk4(a):
    # a = 0.7 and 1.7 put pi off the node grid; at pi/4 - 1e-6 it lies
    # 4e-6 past the last whole block, so the last block is the partial
    # cell alone.  At a = pi/4 a further potential also jumps at two
    # nodes that are no multiples of a/2, the second one node past the
    # first's kink of y(t - a), which leaves a piece of one cell.  The
    # gapped potential leaves pieces without forcing, which the solver
    # skips.
    lam = np.array([-40.0, -20.0, 0.0, 1e-6, 3.0 + 10.0j, 100.0 - 10.0j, 425.0])
    setup = DelaySetup(a=a, nu=0, segment_nodes=129)
    gapped, holed = _gapped(a), _holed(a)
    potentials = [_stepped_delay(a), gapped]
    if a < 1.0:
        potentials.append(holed)
    if a == A:
        potentials.append(_one_cell_piece(a, nodes=129))
    for q in potentials:
        # the history is built before a block only when the block reads it:
        # not before the last block for the gapped potential (but at a =
        # 1.7, where that block is the first), and before the block after
        # the hole although the hole reads none
        reads = delay_solver._blocks_for(q, setup).reads
        if q is gapped and a < 1.0:
            assert reads[:2] == [True, True] and not reads[-1]
        elif q is holed:
            assert reads[1:3] == [False, True]
        else:
            assert all(reads)
        want_y, want_yp = _refined_rk4(q, a, lam)
        for nu in (0, 1):
            y, yp = endpoint_values(q, setup, nu, lam)
            assert np.max(np.abs(y - want_y[nu]) / np.abs(want_y[nu])) <= 1e-9
            assert np.max(np.abs(yp - want_yp[nu]) / np.abs(want_yp[nu])) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_march_traces_where_pi_is_off_the_half_delay_grid():
    # at a = 0.5 the last segment [3, pi] is shorter than a/2, so its
    # samples are the stored rows interpolated, ending on the exact end
    # values; the segments on [0, a] are the kernels, the ends match the
    # block solver as in the refined-RK4 test and the interpolated
    # segment matches the series on the same nodes
    a = 0.5
    q = _stepped_delay(a)
    lam = np.array([-4.0, 3.0 + 10.0j, 100.0])
    steps = int(np.ceil(a / (np.pi / 16384)))
    fine = DelaySetup(a=a, nu=0, segment_nodes=129, steps_per_delay=steps)
    march = _March(q, fine, np.repeat([0, 1], lam.size), np.tile(lam, 2))
    for nu in (0, 1):
        setup = DelaySetup(a=a, nu=nu, segment_nodes=129)
        want_y, want_yp = endpoint_values(q, setup, nu, lam)
        for k, l in enumerate(lam):
            row = nu * lam.size + k
            y, yp = march.traces(row)
            last, last_p = y.segments[-1], yp.segments[-1]
            assert last.interval.length < 0.3 * a
            head = [s.nodes() for s in y.segments[:2]]
            kern_y, kern_yp = _kernel_pair(nu, l, np.concatenate(head))
            head_y = np.concatenate([s.samples for s in y.segments[:2]])
            head_yp = np.concatenate([s.samples for s in yp.segments[:2]])
            assert np.max(np.abs(head_y - kern_y)) < 1e-10
            assert np.max(np.abs(head_yp - kern_yp)) < 1e-9 * (1 + abs(l))
            y_end, yp_end = march.y_end[row], march.yp_end[row]
            assert last.samples[-1] == y_end and last_p.samples[-1] == yp_end
            assert abs(y_end - want_y[k]) / abs(want_y[k]) <= 1e-9
            assert abs(yp_end - want_yp[k]) / abs(want_yp[k]) <= 1e-8
            summed = series_sum(q, setup, l)
            scale = 1.0 + np.max(np.abs(y.all_samples()))
            gap = np.max(np.abs(last.samples - summed.y.segments[-1].samples))
            gap_p = np.max(np.abs(last_p.samples - summed.yprime.segments[-1].samples))
            assert gap < 1e-7 * scale
            assert gap_p < 1e-7 * scale * (1 + abs(l) ** 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_skipped_pieces_are_the_ones_without_forcing():
    a = 0.7
    q = _gapped(a, nodes=65)
    blocks = _Blocks(q, DelaySetup(a=a, nu=0, segment_nodes=65))
    h = blocks.h
    for start, _, pieces in blocks.plan:
        for i0, i1, _, qv in pieces:
            mid = (start + 0.5 * (i0 + i1)) * h
            assert (qv is None) == (mid < 1.5 * a or mid > 2.5 * a)
    # neither the block [3a, 4a] nor [4a, pi] with its partial last cell reads y
    assert blocks.reads == [True, True, False, False]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_running_integrals_only_where_the_next_block_reads_y(monkeypatch):
    # at a = pi/4 the gapped potential, shaped like a family member,
    # leaves the block [3a, 4a] without forcing: nothing reads the
    # running integrals of [2a, 3a] but their values at its end, so that
    # block and the last one take weighted sums, and only the block
    # [a, 2a] runs the cell rule, twice per pass (C and S)
    q = _gapped(A, nodes=65)
    setup = DelaySetup(a=A, nu=0, segment_nodes=65)
    delay_solver._blocks_for.cache_clear()
    blocks = delay_solver._blocks_for(q, setup)
    assert blocks.reads == [True, True, False]
    assert [sums is not None for sums in blocks.sums] == [False, True, True]
    assert blocks.sums[-1] == []
    assert sum(cols is None and qv is not None for *_, cols, qv in blocks.plan[0][2]) == 1
    calls = []
    cell_integrals = delay_solver._cell_integrals
    monkeypatch.setattr(
        delay_solver,
        "_cell_integrals",
        lambda *args, **kw: calls.append(1) or cell_integrals(*args, **kw),
    )
    lam = np.linspace(-40.0, 425.0, 3 * blocks.rows) + 1.0j
    y, yp = endpoint_values(q, setup, 1, lam)
    assert len(calls) == 2 * 3
    # the weighted sums are the running integrals at the block's end
    blocks.sums[1] = None
    calls.clear()
    y_run, yp_run = endpoint_values(q, setup, 1, lam)
    assert len(calls) == 4 * 3
    assert np.max(np.abs(y_run - y) / np.abs(y)) <= 1e-13
    assert np.max(np.abs(yp_run - yp) / np.abs(yp)) <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_workspace_is_per_call():
    # calls of every batch size around a pass (7 or 8 points) and a chunk
    # (245 points at a = pi/4), interleaved over two potentials, two
    # delays and both initial types, give what a fresh set-up gives, bit
    # for bit; so do two threads calling on one kept set-up
    rng = np.random.default_rng(11)
    lam = rng.uniform(-40.0, 430.0, 246) + 1j * rng.uniform(-10.0, 10.0, 246)
    cases = [
        (q, DelaySetup(a=a, nu=0, segment_nodes=65))
        for a in (A, 0.7)
        for q in (_gapped(a, nodes=65), _stepped_delay(a, nodes=65))
    ]

    def fresh(q, setup, init_nu, points):
        delay_solver._blocks_for.cache_clear()
        return endpoint_values(q, setup, init_nu, points)

    for size in (1, 246, 7, 245, 8):
        for k, (q, setup) in enumerate(cases):
            init_nu = (size + k) % 2
            got = endpoint_values(q, setup, init_nu, lam[:size])
            want = fresh(q, setup, init_nu, lam[:size])
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    q, setup = cases[0]
    jobs = [(0, 246), (1, 7), (1, 245), (0, 8)]
    serial = [endpoint_values(q, setup, nu, lam[:size]) for nu, size in jobs]
    kept = delay_solver._blocks_for(q, setup)
    seen = {}

    def run(name, order):
        seen[name] = [(k, endpoint_values(q, setup, jobs[k][0], lam[: jobs[k][1]])) for k in order]

    threads = [
        threading.Thread(target=run, args=(name, order))
        for name, order in (("ahead", [0, 1, 2, 3] * 2), ("behind", [3, 2, 1, 0] * 2))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
        assert not t.is_alive()
    assert delay_solver._blocks_for(q, setup) is kept
    for results in seen.values():
        assert len(results) == 8
        for k, (y, yp) in results:
            assert np.array_equal(y, serial[k][0]) and np.array_equal(yp, serial[k][1])


def test_march_takes_an_initial_type_per_point():
    lam = np.array([-20.0, 0.0, 3.0 + 2.0j, 90.0])
    setup = _setup(0, steps=256)
    both = _March(_confined(), setup, np.repeat([0, 1], lam.size), np.tile(lam, 2))
    for nu in (0, 1):
        one = _March(_confined(), setup, nu, lam)
        for got, want in ((both.y_end, one.y_end), (both.yp_end, one.yp_end)):
            got = got[nu * lam.size : (nu + 1) * lam.size]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

_LAMBDAS = st.one_of(
    st.builds(complex, st.floats(-2000.0, 500.0), st.floats(-10.0, 10.0)),
    # |lam| x^2 crosses SERIES_THRESHOLD inside the tables
    st.builds(
        lambda r, t: r * SERIES_THRESHOLD * np.exp(1j * t),
        st.floats(1e-6, 100.0),
        st.floats(-np.pi, np.pi),
    ),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    lams=st.lists(_LAMBDAS, min_size=1, max_size=5),
    grid=st.sampled_from([(A, 1024), (A, 4), (A, 31), (A, 64), (0.7, 960), (1.7, 2304)]),
)
def test_kernel_tables_match_the_kernels(lams, grid):
    a, m = grid
    lam = np.array(lams, dtype=complex)
    x = (a / m) * np.arange(m + 1)
    C, S, *_ = work = np.empty((7, lam.size, m + 1), dtype=complex)
    _kernel_tables(lam, _short_tables(lam, a / m, m), C, S, work[2:])
    assert C.flags.c_contiguous and S.flags.c_contiguous
    want_c, want_s = kernel_pair(lam[:, None], x)
    envelope = np.exp(np.abs(np.sqrt(lam).imag)[:, None] * x)
    assert np.max(np.abs(C - want_c) / envelope) <= 1e-13
    assert np.max(np.abs(S - want_s) / envelope) <= 1e-13
    # the coarse offsets are the kernels themselves
    assert np.array_equal(C[:, ::32], want_c[:, ::32])
    assert np.array_equal(S[:, ::32], want_s[:, ::32])


def test_support_violation_is_rejected():
    grid = grid_breakpoints(A, 0.0, np.pi)
    q = sample_function(np.cos, grid, 65)
    with pytest.raises(PreconditionError):
        solve_direct(q, _setup(0), 5.0)
