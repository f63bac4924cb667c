"""Weight construction and the two routes to the characteristic functions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import (
    CharData,
    DelaySetup,
    DomainError,
    FredholmOperator,
    GridMismatchError,
    PiecewiseFunction,
    PreconditionError,
    apply,
    build_member,
    build_w,
    ckernel,
    cumulative,
    delta_closed,
    delta_direct,
    grid_breakpoints,
    integrate,
    piecewise_quad,
    sample_function,
    skernel,
)
from delaysl import delay_solver
from delaysl.cli import RunConfig, _seed_pair
from delaysl.gridfn import _cell_coefficients
from delaysl.kernels import RULE_SERIES_THRESHOLD, _Moments, _WeightRule
from oracles import delta_literal, p_kernel, series_sum

A = np.pi / 4


def _bump(x):
    inside = (x > A) & (x < 3 * A)
    return np.where(inside, np.sin(np.pi * (x - A) / (2 * A)) ** 2, 0.0)


def _grid_q(fn, nodes=129, lo=0.0, hi=np.pi):
    return sample_function(fn, grid_breakpoints(A, lo, hi), nodes)


def _setup(nu, nodes=129, steps=0):
    return DelaySetup(a=A, nu=nu, segment_nodes=nodes, steps_per_delay=steps)


def _zero_data(nu, j):
    w = sample_function(lambda x: np.zeros_like(x), grid_breakpoints(A, A, 3 * A), 65)
    return CharData(_setup(nu), j, 0.0, w)


def _correction(q, setup, x):
    """The weight's correction at x: the triangle kernel P(3a, x) of the opposite index."""
    return p_kernel(q, replace(setup, nu=1 - setup.nu), 3 * A, x)


def _correction_oracle(q, nu, x, n=4000):
    """Midpoint-rule rebuild of the correction using only tested pieces."""
    tail = cumulative(q, A)

    def seg_sum(lo, hi):
        pts = [lo] + [b for b in q.breakpoints() if lo < b < hi] + [hi]
        total = 0.0j
        for u, v in zip(pts[:-1], pts[1:]):
            t = np.linspace(u, v, n + 1)
            mid = 0.5 * (t[:-1] + t[1:])
            gap = tail.values(3 * A) - tail.values(x + mid - A / 2)
            total += (v - u) / n * np.sum(q.values(mid) * gap)
        return total

    first = integrate(q, x + A / 2, 3 * A) * integrate(q, A, x - A / 2)
    return first - (-1.0) ** nu * seg_sum(A, 7 * A / 2 - x)


def test_correction_matches_midpoint_oracle():
    q = _grid_q(_bump)
    for nu in (0, 1):
        setup = _setup(nu)
        for x in (1.3, 1.6, 1.9):
            want = _correction_oracle(q, nu, x)
            have = _correction(q, setup, x)
            assert abs(have - want) < 1e-6 * (1 + abs(want))


def test_correction_of_family_member_near_upper_edge():
    member = build_member(*_seed_pair(RunConfig(a=A, nu=1)), nu=1, alpha=1.0, a=A)
    q, setup = member.q, _setup(1)
    x = 5 * A / 2 - 0.01
    # the ranges collapse near the edge, so a coarse double sum is enough
    t = np.linspace(A, 7 * A / 2 - x, 101)
    tm = 0.5 * (t[:-1] + t[1:])
    inner = np.empty(tm.size, dtype=complex)
    for i, ti in enumerate(tm):
        s = np.linspace(x + ti - A / 2, 3 * A, 101)
        sm = 0.5 * (s[:-1] + s[1:])
        inner[i] = (s[1] - s[0]) * np.sum(q.values(sm))
    second = (t[1] - t[0]) * np.sum(q.values(tm) * inner)
    first = integrate(q, x + A / 2, 3 * A) * integrate(q, A, x - A / 2)
    want = first + second  # nu = 1 flips the sign of the double term
    have = _correction(q, setup, x)
    assert abs(have - want) < 1e-6 * (1 + abs(want))
    # the correction vanishes at the edge itself, keeping w continuous
    assert abs(_correction(q, setup, 5 * A / 2 - 1e-7)) < 1e-5


def test_correction_reduces_to_the_integral_operator():
    def top(x):
        inside = (x > 5 * A / 2) & (x < 3 * A)
        return np.where(inside, np.sin(np.pi * (x - 5 * A / 2) / (A / 2)) ** 2, 0.0)

    def mid(x):
        inside = (x > 3 * A / 2) & (x < 2 * A)
        return np.where(inside, np.cos(np.pi * (x - 3 * A / 2) / (A / 2)) + 1.0, 0.0)

    q = _grid_q(lambda x: top(x) + mid(x))
    op = FredholmOperator(A, sample_function(top, [5 * A / 2, 3 * A], 129))
    image = apply(op, sample_function(mid, [3 * A / 2, 2 * A], 129))
    xs = np.linspace(3 * A / 2 + 0.01, 2 * A - 0.01, 9)
    for nu in (0, 1):
        setup = _setup(nu)
        sign = -((-1.0) ** nu)
        for x in xs:
            assert abs(_correction(q, setup, x) - sign * image.values(x)) < 1e-7


def test_build_w_trivial_and_omega():
    qz = _grid_q(lambda x: np.zeros_like(x))
    d0, d1 = build_w(qz, _setup(0))
    assert d0.omega == 0.0
    assert np.max(np.abs(d0.w.all_samples())) == 0.0
    assert d0.j == 0 and d1.j == 1
    q = _grid_q(_bump)
    d0, _ = build_w(q, _setup(0))
    assert abs(integrate(d0.w, A, 3 * A) - d0.omega) < 1e-9
    assert abs(d0.omega - integrate(q, A, np.pi)) < 1e-12


def test_build_w_keeps_q_outside_the_correction_window():
    q = _grid_q(_bump)
    d0, _ = build_w(q, _setup(1))
    for x in np.linspace(A + 0.01, 3 * A / 2 - 0.01, 7):
        assert abs(d0.w.values(x) - q.values(x)) < 1e-12
    for x in np.linspace(5 * A / 2 + 0.01, 3 * A - 0.01, 7):
        assert abs(d0.w.values(x) - q.values(x)) < 1e-12
    # near-continuity across the upper edge of the window
    assert abs(d0.w.values(5 * A / 2 - 1e-6) - d0.w.values(5 * A / 2 + 1e-6)) < 1e-5


def test_build_w_validates_grid_and_support():
    coarse = sample_function(_bump, [0.0, A, 2 * A, 3 * A, np.pi], 65)
    with pytest.raises(GridMismatchError):
        build_w(coarse, _setup(0))
    sprawling = _grid_q(lambda x: np.where(x > A, 1.0, 0.0))
    with pytest.raises(PreconditionError):
        build_w(sprawling, _setup(0))


def test_chardata_gates():
    w = sample_function(lambda x: np.zeros_like(x), grid_breakpoints(A, A, 3 * A), 9)
    with pytest.raises(DomainError):
        CharData(DelaySetup(a=1.1, nu=0), 0, 0.0, sample_function(
            lambda x: np.zeros_like(x), grid_breakpoints(1.1, 1.1, 3.3), 9))
    with pytest.raises(DomainError):
        CharData(_setup(0), 2, 0.0, w)
    with pytest.raises(DomainError):
        CharData(_setup(0), 0, 0.3, w)  # omega must equal the integral of w
    CharData(_setup(1), 0, 0.3, w)  # but it is free data for nu = 1
    short = sample_function(lambda x: np.zeros_like(x), [A, 2 * A, 3 * A], 9)
    with pytest.raises(DomainError):
        CharData(_setup(0), 0, 0.0, short)


def test_trivial_characteristic_functions():
    lam = np.array([-9.0, 0.0, 2.0, 25.0, 3.0 + 4.0j])
    want = {
        (0, 0): skernel(lam, np.pi),
        (0, 1): ckernel(lam, np.pi),
        (1, 0): ckernel(lam, np.pi),
        (1, 1): -lam * skernel(lam, np.pi),
    }
    for (nu, j), vals in want.items():
        have = delta_closed(_zero_data(nu, j), lam)
        assert np.max(np.abs(have - vals)) < 1e-12


def test_stable_and_literal_diagonal_forms_agree():
    q = _grid_q(_bump)
    data, _ = build_w(q, _setup(0))
    mags = np.logspace(0.0, np.log10(400.0), 25)
    lam = np.concatenate([mags, -mags[:8], mags[:8] + 2.0j])
    stable = delta_closed(data, lam)
    literal = delta_literal(data, lam)
    assert np.max(np.abs(stable - literal) / (1.0 + np.abs(stable))) < 1e-9


def test_continuity_through_zero():
    q = _grid_q(_bump)
    for nu in (0, 1):
        for data in build_w(q, _setup(nu)):
            probe = delta_closed(data, np.array([-1e-6, 0.0, 1e-6]))
            assert abs(probe[0] + probe[2] - 2.0 * probe[1]) < 1e-8


def test_conjugation_symmetry():
    q = _grid_q(_bump)
    for nu in (0, 1):
        for data in build_w(q, _setup(nu)):
            for lam in (3.0 + 4.0j, -2.0 + 0.7j, 150.0 - 5.0j):
                left = delta_closed(data, np.conj(lam))
                right = np.conj(delta_closed(data, lam))
                assert abs(left - right) < 1e-12 * (1 + abs(left))


def test_batch_matches_scalar_evaluation():
    q = _grid_q(_bump)
    data, _ = build_w(q, _setup(1))
    lam = np.array([-5.0, 1.0, 42.0, 3.0 + 2.0j])
    batch = delta_closed(data, lam)
    for k, l in enumerate(lam):
        assert batch[k] == delta_closed(data, l)


def _switch():
    """The |lambda| at which delta_closed changes from its series to its sums."""
    return RULE_SERIES_THRESHOLD / (np.pi - A) ** 2


def test_values_do_not_depend_on_the_batch():
    q = _grid_q(_bump)
    edge = _switch()
    lam = np.array(
        [0.0, 1e-7, -1e-7, 10.0, 3.0 + 2.0j, -40.0, edge * (1 - 1e-3), -edge * (1 + 1e-3)]
    )
    for nu in (0, 1):
        for data in build_w(q, _setup(nu)):
            alone = np.array([delta_closed(data, l) for l in lam])
            first = delta_closed(data, np.append(lam, 4000.0))[:-1]
            last = delta_closed(data, np.concatenate([[4000.0], lam[::-1]]))[:0:-1]
            assert np.array_equal(first, alone) and np.array_equal(last, alone), (nu, data.j)


def _blocky_weight():
    """A weight with two spacings, several blocks per segment, a 3-node segment and a zero one."""
    pieces = [
        ((A, 1.5 * A), 3, lambda x: 1.0 - 0.5j * x),
        ((1.5 * A, 2 * A), 301, lambda x: np.cos(3.0 * x) + 0.2j * x**2),
        ((2 * A, 2.5 * A), 65, lambda x: np.zeros_like(x)),
        ((2.5 * A, 3 * A), 301, lambda x: np.exp(-x) * (2.0 - x)),
    ]
    segs = []
    for (lo, hi), n, fn in pieces:
        segs.extend(sample_function(fn, [lo, hi], n).segments)
    return PiecewiseFunction(segs)


def test_values_do_not_depend_on_the_batch_across_chunk_edges():
    w = _blocky_weight()
    total = integrate(w, A, 3 * A)
    chunk = min(group.points for group in _WeightRule(w, np.pi + A, np.pi - A)._tables.groups)
    assert chunk < 20
    edge = _switch()
    rng = np.random.default_rng(7)
    pool = rng.uniform(-2000.0, 4000.0, 2 * chunk + 2) + 1j * rng.uniform(-10.0, 10.0, 2 * chunk + 2)
    # series points among the oscillatory ones, in both chunks
    pool[[3, chunk + 1, 2 * chunk]] = [0.5 * edge, -0.3 * edge + 0.1j, 1e-3]
    for nu, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        data = CharData(_setup(nu), j, total if nu == 0 else total + 0.3, w)
        alone = np.array([delta_closed(data, lam) for lam in pool])
        for size in range(1, 2 * chunk + 2):
            for start in (0, 1):
                batch = delta_closed(data, pool[start : start + size])
                assert np.array_equal(batch, alone[start : start + size]), (nu, j, size)


def _per_cell_sums(w, lam):
    """(T+, T-, sum of |terms|): the integrals of w e^(+-i rho y), y = pi + a - 2x, cell by cell.

    Each cell is h e^(s i rho (pi + a - 2 x_c)) sum_m p_m M_m(-2 s i rho h),
    with one exp per cell and M_m from an 80-node Gauss-Legendre rule,
    exact to rounding for |2 rho h| <= 40.
    """
    t, wt = np.polynomial.legendre.leggauss(80)
    xi, wt = 0.5 * (t + 1.0), 0.5 * wt
    rho = np.sqrt(complex(lam))
    sums, size = [], 0.0
    for s in (1.0, -1.0):
        total = 0.0j
        for seg in w.segments:
            h = seg.spacing
            zeta = -2.0 * s * 1j * rho * h
            moments = (np.exp(zeta * xi) * wt) @ (xi[:, None] ** np.arange(4))
            cells = h * np.exp(s * 1j * rho * (np.pi + A - 2.0 * seg.nodes()[:-1]))
            terms = cells * (_cell_coefficients(seg.samples) @ moments)
            total += np.sum(terms)
            size += np.sum(np.abs(terms))
        sums.append(total)
    return sums[0], sums[1], size


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-2000.0, 4000.0), im=st.floats(-10.0, 10.0))
def test_weight_integrals_match_a_per_cell_sum(re, im):
    lam = complex(re, im)
    rho = np.sqrt(lam)
    for w in (_blocky_weight(), _oracle_data()):
        rule = _WeightRule(w, np.pi + A, np.pi - A)
        plus, minus, size = _per_cell_sums(w, lam)
        point = np.array([lam])
        c_span = ckernel(point, np.pi - A)
        total = integrate(w, A, 3 * A)
        have_c = rule.integrals(point, "c")[0]
        have_s = rule.integrals(point, "s")[0]
        have_ss = rule.integrals(point, "ss", c_span)[0]
        assert abs(have_c - 0.5 * (plus + minus)) <= 1e-13 * size
        assert abs(2j * rho * have_s - (plus - minus)) <= 1e-13 * size
        # the product form is (cos part - ckernel(lam, pi - a) * integral of w) / (2 lam)
        want = 0.5 * (plus + minus) - c_span[0] * total
        assert abs(2.0 * lam * have_ss - want) <= 1e-13 * (size + abs(c_span[0] * total))


def test_build_w_records_share_one_lazy_rule():
    q = _grid_q(_bump)
    d0, d1 = build_w(q, _setup(1))
    assert d0._rule is d1._rule
    assert "_tables" not in vars(d0._rule)  # built on first use
    delta_closed(d1, 5.0)
    assert "_tables" in vars(d0._rule)
    # a record of another weight gets its own rule
    w = PiecewiseFunction(d0.w.segments)
    other = replace(d0, w=w)
    assert other._rule is not d0._rule and other._rule.f is w


def test_cell_moments_hold_for_every_size():
    # Gauss-Legendre with 80 nodes is exact to rounding for |zeta| <= 40
    t, wt = np.polynomial.legendre.leggauss(80)
    xi, wt = 0.5 * (t + 1.0), 0.5 * wt
    mags = np.concatenate([[0.0], np.logspace(-4.0, np.log10(40.0), 40)])
    zeta = np.concatenate([mags * d for d in (1.0, -1.0, 1j, np.exp(0.7j), np.exp(2.5j))])
    # every scale c sees zeta = c u for the same u
    scales = np.array([2.0, -1.0, 0.5])
    have = _Moments(scales)(zeta / 2.0)
    assert have.shape == zeta.shape + (3, 4)
    for c, got in zip(scales, np.moveaxis(have, 1, 0)):
        z = c * zeta / 2.0
        want = (np.exp(z[:, None] * xi) * wt) @ (xi[:, None] ** np.arange(4))
        scale = np.maximum(1.0, np.exp(z.real))[:, None]
        assert np.max(np.abs(got - want) / scale) < 1e-14, c


def _oracle_data():
    """A weight on a 3-node segment and three finer ones, jumping at 5a/2."""
    pieces = [
        ((A, 1.5 * A), 3, lambda x: 1.0 + np.sin(3.0 * x)),
        ((1.5 * A, 2 * A), 9, lambda x: np.cos(2.0 * x) + 0.5j * x),
        ((2 * A, 2.5 * A), 17, lambda x: np.exp(-x) * (2.0 - x)),
        ((2.5 * A, 3 * A), 5, lambda x: -1.5 + x**2),
    ]
    segs = []
    for (lo, hi), n, fn in pieces:
        segs.extend(sample_function(fn, [lo, hi], n).segments)
    return PiecewiseFunction(segs)


def _oracle_delta(w, omega, nu, j, lam, literal=False):
    """delta_closed's formulas with a Simpson rule of spacing a/16384 for the w integrals."""
    bps = np.concatenate([[w.lo], w.breakpoints(), [w.hi]])
    x, wts, wv = piecewise_quad(w, bps, A / 16384)
    lam = np.asarray(lam, dtype=complex)
    col = lam[:, None]
    y = np.pi + A - 2.0 * x
    if nu != j:
        sign = 1.0 if j == 0 else -1.0
        return (
            ckernel(lam, np.pi)
            + 0.5 * omega * skernel(lam, np.pi - A)
            + 0.5 * sign * (skernel(col, y) @ (wts * wv))
        )
    if nu == 1:
        return (
            -lam * skernel(lam, np.pi)
            + 0.5 * omega * ckernel(lam, np.pi - A)
            + 0.5 * (ckernel(col, y) @ (wts * wv))
        )
    if literal:
        return (
            skernel(lam, np.pi)
            - 0.5 * omega * ckernel(lam, np.pi - A) / lam
            + 0.5 * (ckernel(col, y) @ (wts * wv)) / lam
        )
    return skernel(lam, np.pi) + (skernel(col, np.pi - x) * skernel(col, x - A)) @ (wts * wv)


def test_closed_forms_match_a_fine_nodal_rule():
    w = _oracle_data()
    total = integrate(w, A, 3 * A)
    lam = np.array([-40.0, -1e-7, 0.0, 1e-7, 3.0 + 10.0j, 425.0, 4000.0])
    for nu in (0, 1):
        for j in (0, 1):
            omega = total if nu == 0 else total + 0.3
            data = CharData(_setup(nu), j, omega, w)
            have = delta_closed(data, lam)
            want = _oracle_delta(w, omega, nu, j, lam)
            assert np.max(np.abs(have - want) / np.maximum(np.abs(want), 1.0)) < 1e-11, (nu, j)
            if nu == j == 0:
                big = lam[np.abs(lam) > 1.0]
                have = delta_literal(data, big)
                want = _oracle_delta(w, omega, 0, 0, big, literal=True)
                assert np.max(np.abs(have - want) / np.maximum(np.abs(want), 1.0)) < 1e-11
            # continuous where the series hands over to the exponential sums
            edge = _switch()
            for side in (1.0, -1.0, 1j):
                probe = delta_closed(data, side * edge * np.array([1 - 1e-6, 1.0, 1 + 1e-6]))
                assert abs(probe[0] + probe[2] - 2.0 * probe[1]) < 1e-8


def test_json_round_trip():
    q = _grid_q(_bump)
    data, _ = build_w(q, _setup(1))
    copy = CharData.from_json(data.to_json())
    assert copy.nu == data.nu == copy.setup.nu == 1 and copy.j == data.j
    assert abs(copy.omega - data.omega) < 1e-15
    assert copy.setup == data.setup
    lam = np.array([2.0, 60.0, 1.0 + 1.0j])
    gap = np.abs(delta_closed(copy, lam) - delta_closed(data, lam))
    assert np.max(gap) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 1.0),
    nodes=st.sampled_from([3, 5, 17]),
    nu=st.sampled_from([0, 1]),
    j=st.sampled_from([0, 1]),
    steps=st.integers(0, 4096),
    seed=st.integers(0, 2**32 - 1),
)
def test_json_round_trip_is_bit_exact(a, nodes, nu, j, steps, seed):
    # samples over 200 decades, signed zeros among them in both parts (set
    # part by part: 1j * -0.0 has imaginary part +0.0)
    rng = np.random.default_rng(seed)

    def draw(x):
        shape = (2,) + x.shape
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100.0, 100.0, shape)
        v[rng.random(v.shape) < 0.1] = -0.0
        v[0, 0] = v[1, -1] = -0.0
        z = np.empty(x.shape, dtype=complex)
        z.real, z.imag = v
        return z

    w = sample_function(draw, grid_breakpoints(a, a, 3 * a), nodes)
    omega = integrate(w, a, 3 * a) if nu == 0 else complex(*rng.standard_normal(2))
    setup = DelaySetup(a=a, nu=nu, segment_nodes=nodes, steps_per_delay=steps)
    data = CharData(setup, j, omega, w)
    text = data.to_json()
    copy = CharData.from_json(text)
    assert copy.to_json() == text
    assert copy.setup == data.setup
    assert (copy.nu, copy.setup.nu, copy.j) == (nu, nu, j)
    assert np.array(copy.omega).tobytes() == np.array(data.omega).tobytes()
    assert len(copy.w.segments) == len(w.segments)
    for got, want in zip(copy.w.segments, w.segments):
        assert (got.interval.lo, got.interval.hi) == (want.interval.lo, want.interval.hi)
        assert got.nodes().tobytes() == want.nodes().tobytes()
        assert got.samples.astype(complex).tobytes() == want.samples.astype(complex).tobytes()
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got.samples)), np.signbit(part(want.samples)))
    negative_zeros = [
        np.sum((part(seg.samples) == 0.0) & np.signbit(part(seg.samples)))
        for seg in w.segments
        for part in (np.real, np.imag)
    ]
    assert min(negative_zeros) >= 1


def test_direct_route_trivial_case():
    qz = _grid_q(lambda x: np.zeros_like(x))
    lam = np.array([1.0, 9.5, 80.0])
    have = delta_direct(qz, _setup(0), 0, lam)
    assert np.max(np.abs(have - skernel(lam, np.pi))) < 1e-9


def test_direct_route_matches_closed_forms():
    q = _grid_q(_bump)
    lam = np.array([-15.0, 0.0, 3.0, 120.0, 390.0, 8.0 + 5.0j])
    for nu in (0, 1):
        setup = _setup(nu, nodes=129, steps=512)
        datas = build_w(q, setup)
        for j, data in enumerate(datas):
            closed = delta_closed(data, lam)
            direct = delta_direct(q, setup, j, lam)
            gap = np.abs(closed - direct) / (1.0 + np.abs(closed))
            assert np.max(gap) < 1e-6


@pytest.mark.parametrize("a", [0.88, 0.9, 0.92])
def test_direct_route_reads_the_right_side_of_every_jump(a):
    # on these grids some nodes land one rounding below a breakpoint of q
    member = build_member(*_seed_pair(RunConfig(a=a, nu=0)), 0, 0.0, a)
    lam = np.array([1.0, 10.0, 50.0, 3.0 + 3.0j])
    for nodes in (257, 513):
        setup = DelaySetup(a=a, nu=0, segment_nodes=nodes, steps_per_delay=0)
        for j, data in enumerate(build_w(member.q, setup)):
            closed = delta_closed(data, lam)
            direct = delta_direct(member.q, setup, j, lam)
            assert np.max(np.abs(closed - direct) / (1.0 + np.abs(closed))) <= 1e-9


def test_direct_route_pads_short_grids():
    full = _grid_q(_bump)
    short = sample_function(_bump, grid_breakpoints(A, 0.0, 3 * A), 129)
    lam = np.array([4.0, 33.0])
    setup = _setup(0, nodes=129, steps=256)
    a = delta_direct(full, setup, 0, lam)
    b = delta_direct(short, setup, 0, lam)
    assert np.max(np.abs(a - b)) < 1e-12


def test_direct_route_pads_a_short_grid_once(monkeypatch):
    # the zero-extended potential is part of the kept block set-up, so
    # repeated calls with one short potential build it once
    short = sample_function(_bump, grid_breakpoints(A, 0.0, 3 * A), 129)
    setup = _setup(0, nodes=129, steps=256)
    built = []

    class Counted(delay_solver._Blocks):
        def __init__(self, q, setup):
            built.append(q)
            super().__init__(q, setup)

    monkeypatch.setattr(delay_solver, "_Blocks", Counted)
    delay_solver._blocks_for.cache_clear()
    first = delta_direct(short, setup, 0, 4.0)
    for _ in range(4):
        assert delta_direct(short, setup, 0, 4.0) == first
    assert built == [short]


def test_direct_route_validation():
    q = _grid_q(_bump)
    with pytest.raises(DomainError):
        delta_direct(q, _setup(0), 2, 5.0)
    loose = _grid_q(np.cos)
    with pytest.raises(PreconditionError):
        delta_direct(loose, _setup(0), 0, 5.0)


def test_direct_route_in_the_single_level_regime():
    # for a > pi/2 only one series correction survives, any tail support
    a = 1.7
    grid = grid_breakpoints(a, 0.0, np.pi)

    def tail(x):
        return np.where(x > a, np.sin(3.0 * (x - a)), 0.0)

    q = sample_function(tail, grid, 129)
    lam = np.array([2.0, 37.0, -6.0])
    for nu in (0, 1):
        setup = DelaySetup(a=a, nu=nu, segment_nodes=129, steps_per_delay=1024)
        flipped = DelaySetup(a=a, nu=1 - nu, segment_nodes=129, steps_per_delay=1024)
        for j in (0, 1):
            direct = delta_direct(q, setup, j, lam)
            for k, l in enumerate(lam):
                summed = series_sum(q, flipped, l)
                want = summed.yp_end if j else summed.y_end
                assert abs(direct[k] - want) < 1e-7 * (1 + abs(want))
