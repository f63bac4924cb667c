"""Grid containers, interpolation, and the composite quadrature rules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import (
    DomainError,
    GridMismatchError,
    Interval,
    PreconditionError,
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    ckernel,
    cumulative,
    integrate,
    piecewise_quad,
    read_csv,
    sample_function,
    simpson_rule,
    skernel,
    write_csv,
)
import delaysl
from delaysl.gridfn import (
    _cell_coefficients,
    _cell_integrals,
    _cell_weights,
    _cubic,
    _lagrange4,
    _on_steps,
    _sided_values,
    lattice_product_integrals,
    shifted_product_integrals,
)
from delaysl.kernels import _WeightRule
from oracles import piecewise_values


def _two_step() -> PiecewiseFunction:
    """Constant 0 on [0, 1], constant 1 on [1, 2]."""
    left = SampledSegment(Interval(0.0, 1.0), np.zeros(9))
    right = SampledSegment(Interval(1.0, 2.0), np.ones(9))
    return PiecewiseFunction([left, right])


def test_interval_rejects_bad_bounds():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, np.inf)


def test_segment_needs_odd_count_of_at_least_three():
    iv = Interval(0.0, 1.0)
    with pytest.raises(DomainError):
        SampledSegment(iv, np.zeros(4))
    with pytest.raises(DomainError):
        SampledSegment(iv, np.zeros(1))
    # three samples are kept as the five of their quadratic, the given
    # ones on the even nodes; a constant stays that constant, bit for bit
    seg = SampledSegment(iv, np.full(3, 0.1 - 0.7j))
    assert seg.count == 5 and seg.spacing == 0.25
    assert np.array_equal(seg.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(seg.samples, np.full(5, 0.1 - 0.7j))
    given = np.array([1.0, 2.0 + 1.0j, 0.5])
    seg = SampledSegment(iv, given)
    assert np.array_equal(seg.samples[::2], given)
    assert np.array_equal(seg.samples[1::2], [1.8125 + 0.75j, 1.5625 + 0.75j])


def test_a_segment_owns_its_samples():
    # a segment keeps a read-only copy: the caller's array stays
    # writable, and writes to it, or to the base of a view it passed,
    # leave the segment (and a function assembled from rows) unchanged
    iv = Interval(0.0, 1.0)
    given = np.linspace(0.0, 1.0, 9).astype(complex)
    seg = SampledSegment(iv, given)
    assert given.flags.writeable
    given[4] = 7.0
    base = np.tile(np.linspace(0.0, 1.0, 9).astype(complex), (2, 1))
    viewed = SampledSegment(iv, base[0])
    base[0, 4] = 7.0
    for kept in (seg, viewed):
        assert not kept.samples.flags.writeable
        assert kept.samples[4] == 0.5
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.25, 1.5, 1.75, 2.0])
    v = x.astype(complex)
    f = assemble_segments(x, v)
    v[:] = 7.0
    assert np.array_equal(f.all_samples(), x)


def test_values_reproduce_samples_at_nodes():
    f = sample_function(np.sin, [0.0, np.pi / 2, np.pi], 17)
    for seg in f.segments:
        assert np.array_equal(seg.values(seg.nodes()), seg.samples)
    assert f.values(np.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_values_exact_for_cubics_between_nodes():
    poly = lambda x: x**3 - 2.0 * x**2 + x
    f = sample_function(poly, [0.0, 1.0, 2.0], 9)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2.0, 40)
    assert np.max(np.abs(f.values(x) - poly(x))) < 1e-13


def test_cubic_bounds_its_stencils_as_a_clip_would():
    # the stencil indices are bounded by np.maximum and np.minimum; the
    # np.clip form is the reference, bit for bit, inside and past the ends
    def clipped(samples, u):
        n = samples.shape[-1]
        cell = np.clip(np.floor(u).astype(int), 0, n - 2)
        j0 = np.clip(cell - 1, 0, n - 4)
        w = _lagrange4(u - j0)
        return (
            samples[j0] * w[0]
            + samples[j0 + 1] * w[1]
            + samples[j0 + 2] * w[2]
            + samples[j0 + 3] * w[3]
        )

    for f in (_F, _G, _LF, _LG):
        for seg in f.segments:
            u = np.linspace(-0.5, seg.count - 0.5, 2001)
            assert np.array_equal(_cubic(seg.samples, u), clipped(seg.samples, u))


def test_breakpoint_evaluation_takes_the_right_segment():
    f = _two_step()
    assert f.values(1.0) == 1.0
    assert f.values(1.0 - 1e-6) == 0.0


def test_evaluation_outside_domain_raises():
    f = _two_step()
    with pytest.raises(DomainError):
        f.values(-0.1)
    with pytest.raises(DomainError):
        f.values(2.2)


def test_algebra_is_pointwise():
    rng = np.random.default_rng(11)
    breaks = [0.0, 0.7, 2.0]
    f = sample_function(lambda x: rng.normal(size=x.shape), breaks, 9)
    g = sample_function(lambda x: rng.normal(size=x.shape), breaks, 9)
    x = rng.uniform(0.0, 2.0, 30)
    assert np.max(np.abs((f + g).values(x) - (f.values(x) + g.values(x)))) < 1e-12
    assert np.max(np.abs((f - g).values(x) - (f.values(x) - g.values(x)))) < 1e-12
    assert np.max(np.abs((2.5 * f).values(x) - 2.5 * f.values(x))) < 1e-12
    assert np.max(np.abs(((1 + 2j) * f).values(x) - (1 + 2j) * f.values(x))) < 1e-12
    assert np.max(np.abs((-f).values(x) + f.values(x))) < 1e-12


def test_mismatched_grids_do_not_combine():
    f = sample_function(np.sin, [0.0, 1.0, 2.0], 9)
    g = sample_function(np.sin, [0.0, 0.5, 2.0], 9)
    with pytest.raises(GridMismatchError):
        f + g


def test_integrate_is_exact_for_cubics():
    f = sample_function(lambda x: x**3, [0.0, 1.0, 2.0], 9)
    assert integrate(f, 0.0, 2.0) == pytest.approx(4.0, abs=1e-13)
    assert integrate(f, 2.0, 0.0) == pytest.approx(-4.0, abs=1e-13)
    # partial ranges, including one strictly inside a single cell
    assert integrate(f, 0.1, 0.15) == pytest.approx((0.15**4 - 0.1**4) / 4.0, abs=1e-14)
    split = integrate(f, 0.0, 0.7) + integrate(f, 0.7, 2.0)
    assert split == pytest.approx(integrate(f, 0.0, 2.0), abs=1e-12)


def test_integrate_additivity_on_random_data():
    rng = np.random.default_rng(5)
    f = sample_function(
        lambda x: rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape),
        [0.0, 1.0, 2.0],
        17,
    )
    for _ in range(20):
        u, v, m = np.sort(rng.uniform(0.0, 2.0, 3))
        whole = integrate(f, u, m)
        assert integrate(f, u, v) + integrate(f, v, m) == pytest.approx(whole, abs=1e-12)


def test_integrate_converges_at_fourth_order():
    exact = np.sin(3.0 * np.pi / 2) / 3.0
    errs = []
    for count in (17, 33, 65):
        f = sample_function(lambda x: np.cos(3.0 * x), [0.0, np.pi / 2], count)
        errs.append(abs(integrate(f, 0.0, np.pi / 2) - exact))
    assert errs[2] > 1e-15
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_cumulative_matches_integrate_at_nodes():
    f = sample_function(np.sin, [0.0, 1.3, np.pi], 33)
    g = cumulative(f, 0.0)
    assert g.values(0.0) == 0.0
    for node in f.nodes()[::5]:
        assert g.values(node) == pytest.approx(integrate(f, 0.0, node), abs=1e-13)
    shifted = cumulative(f, 1.3)
    assert shifted.values(1.3) == 0.0


def _random_piecewise(seed, pieces, nodes):
    """Normal samples on random pieces, so f jumps at every breakpoint; ~10% of
    the real and imaginary parts are signed zeros."""
    rng = np.random.default_rng(seed)
    bps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, pieces))])

    def draw(x):
        z = np.empty(x.shape, dtype=complex)
        z.real, z.imag = rng.standard_normal((2,) + x.shape)
        z.real[rng.random(x.shape) < 0.1] = -0.0
        z.imag[rng.random(x.shape) < 0.1] = -0.0
        return z

    return sample_function(draw, bps, nodes), rng


_PIECEWISE = dict(
    seed=st.integers(0, 2**32 - 1),
    pieces=st.integers(1, 5),
    nodes=st.sampled_from([3, 5, 9, 17]),
)


@settings(max_examples=40, deadline=None)
@given(c=st.complex_numbers(max_magnitude=10.0, allow_nan=False), **_PIECEWISE)
def test_integrate_is_additive_and_linear_on_random_data(seed, pieces, nodes, c):
    f, rng = _random_piecewise(seed, pieces, nodes)
    g = f.map_samples(lambda s, x: rng.standard_normal(s.shape) + 1j * np.cos(x))
    lo, split, hi = np.sort(rng.uniform(f.lo, f.hi, 3))
    tol = 1e-12 * (1.0 + abs(c)) * (1.0 + np.max(np.abs(f.all_samples()))) * f.hi
    whole = integrate(f, lo, hi)
    assert abs(integrate(f, lo, split) + integrate(f, split, hi) - whole) <= tol
    combo = integrate(f + c * g, lo, hi)
    assert abs(combo - (whole + c * integrate(g, lo, hi))) <= tol


@settings(max_examples=40, deadline=None)
@given(**_PIECEWISE)
def test_cumulative_is_integrate_at_every_node(seed, pieces, nodes):
    f, rng = _random_piecewise(seed, pieces, nodes)
    anchor = float(rng.choice(f.nodes()))
    g = cumulative(f, anchor)
    tol = 1e-12 * (1.0 + np.max(np.abs(f.all_samples()))) * f.hi
    for seg in g.segments:
        want = np.array([integrate(f, anchor, x) for x in seg.nodes()])
        assert np.max(np.abs(seg.samples - want)) <= tol


def test_cell_integrals_work_row_by_row():
    # the block solver runs the segment rule on many rows at once, as one
    # stencil over the rows laid end to end; each row must come out bit
    # for bit as the one-row call, whatever the number of rows
    rng = np.random.default_rng(5)
    for n in (4, 5, 7, 33, 65, 513, 1025):
        block = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        for rows in range(1, 8):
            out = _cell_integrals(block[:rows], 0.3)
            assert out.shape == (rows, n - 1)
            for row, got in zip(block, out):
                assert np.array_equal(_cell_integrals(row, 0.3), got)
        # a strided block is read the same way
        wide = np.zeros((7, n + 3), dtype=complex)
        wide[:, 2 : n + 2] = block
        assert np.array_equal(_cell_integrals(wide[:, 2 : n + 2], 0.3), out)
        # exact for cubics, the polynomials the stencil holds
        x = 0.3 * np.arange(n)
        want = (x[1:] ** 4 - x[:-1] ** 4) / 4
        assert np.max(np.abs(_cell_integrals(x**3, 0.3) - want) / (1.0 + want)) < 1e-12
    seg = SampledSegment(Interval(0.0, 1.2), block[0])
    assert np.array_equal(seg.cell_integrals(), _cell_integrals(block[0], seg.spacing))


def test_cell_integrals_into_given_arrays_and_their_sum_as_weights():
    # the block solver passes a strided view of its workspace as out and
    # flat views of two more pass arrays as work
    rng = np.random.default_rng(6)
    for n in (4, 5, 6, 65):
        block = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        out = np.full((7, n + 2), np.nan, dtype=complex)[:, 1:n]
        work = (np.full(7 * n + 5, np.nan, dtype=complex), np.full(7 * n, np.nan, dtype=complex))
        assert _cell_integrals(block, -0.3, out=out, work=work) is out
        assert np.array_equal(out, _cell_integrals(block, -0.3))
        assert np.array_equal(out, _cell_integrals(block, -0.3, work=(None, work[1])))
        assert np.array_equal(out, -_cell_integrals(block, 0.3))
        total = np.sum(_cell_integrals(block, 0.3), axis=-1)
        by_weights = np.sum(block * (0.3 * _cell_weights(n)), axis=-1)
        assert np.max(np.abs(by_weights - total)) <= 1e-15 * n * np.max(np.abs(block))


def test_cell_coefficients_are_the_interpolant():
    rng = np.random.default_rng(8)
    xi = np.linspace(0.0, 1.0, 7)
    for n in (3, 5, 9, 33):
        seg = SampledSegment(Interval(0.5, 1.7), rng.normal(size=n) + 1j * rng.normal(size=n))
        coef = _cell_coefficients(seg.samples)
        assert coef.shape == (seg.count - 1, 4)
        for c, p in enumerate(coef):
            x = seg.interval.lo + seg.spacing * (c + xi)
            poly = sum(p[m] * xi**m for m in range(4))
            assert np.max(np.abs(poly - seg.values(x))) < 1e-12
        # the cells integrate as the segment rule does
        full = coef @ np.array([1.0, 1 / 2, 1 / 3, 1 / 4]) * seg.spacing
        assert np.max(np.abs(full - seg.cell_integrals())) < 1e-13
    # three samples give their quadratic on every cell: at nodes 0, 1/4, 1/2
    # and 3/4 of the way, in cell coordinates (spacing 1/4)
    seg = SampledSegment(Interval(0.5, 1.7), np.array([1.0, 2.0, 0.5]))
    want = [[1.0, 1.125, -0.3125, 0.0], [1.8125, 0.5, -0.3125, 0.0]]
    want += [[2.0, -0.125, -0.3125, 0.0], [1.5625, -0.75, -0.3125, 0.0]]
    assert np.max(np.abs(_cell_coefficients(seg.samples) - want)) <= 1e-15


def test_three_node_segment_interpolates_quadratics():
    seg = SampledSegment(Interval(0.0, 2.0), np.array([0.0, 1.0, 4.0]))
    f = PiecewiseFunction([seg])
    x = np.linspace(0.0, 2.0, 21)
    assert np.max(np.abs(f.values(x) - x**2)) < 1e-14
    assert integrate(f, 0.0, 2.0) == pytest.approx(8.0 / 3.0, abs=1e-14)


def _quadratic_through(s, length):
    """The quadratic through s at 0, length / 2 and length, and its integral from 0.

    Both take offsets from the first node, so that a point given as an
    offset is not rounded to the grid of the absolute abscissae.
    """
    half = 0.5 * length

    def value(d):
        u = np.asarray(d, dtype=float) / half
        return s[0] * (u - 1.0) * (u - 2.0) / 2.0 - s[1] * u * (u - 2.0) + s[2] * u * (u - 1.0) / 2.0

    def primitive(d):
        u = np.asarray(d, dtype=float) / half
        return half * (
            s[0] * (u**3 / 6.0 - 0.75 * u**2 + u)
            + s[1] * (u**2 - u**3 / 3.0)
            + s[2] * (u**3 / 6.0 - 0.25 * u**2)
        )

    return value, primitive


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(-2.0, 2.0),
    length=st.floats(0.05, 3.0),
    phase=st.one_of(st.just(0.0), st.floats(1e-6, 0.999)),  # off a node by more than its snap
)
def test_three_samples_are_their_quadratic_everywhere(seed, lo, length, phase):
    rng = np.random.default_rng(seed)
    s = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 10.0 ** rng.uniform(-3.0, 3.0)
    hi = lo + length
    length = hi - lo  # as the segment has it
    seg = SampledSegment(Interval(lo, hi), s)
    f = PiecewiseFunction([seg])
    quad, prim = _quadratic_through(s, length)
    tol = 1e-14 * float(np.max(np.abs(s)))

    # values on the nodes (the given samples exactly) and between them
    assert np.array_equal(seg.samples[::2], s)
    assert np.max(np.abs(seg.values(seg.nodes()) - quad(seg.spacing * np.arange(5)))) <= tol
    x = rng.uniform(lo, hi, 64)
    assert np.max(np.abs(f.values(x) - quad(x - lo))) <= tol
    assert np.max(np.abs(seg.values(x) - quad(x - lo))) <= tol

    # integrals over random sub-ranges, and the antiderivative anywhere
    for u, v in rng.uniform(lo, hi, (8, 2)):
        assert abs(integrate(f, u, v) - (prim(v - lo) - prim(u - lo))) <= tol * length
    anchor = float(rng.uniform(lo, hi))
    g = cumulative(f, anchor)
    for pts in (g.nodes(), x):
        want = prim(pts - lo) - prim(anchor - lo)
        assert np.max(np.abs(g.values(pts) - want)) <= tol * length

    # lattice reads at 1, 2 and 4 steps per cell, on and off the nodes
    for per_cell in (1, 2, 4):
        step = seg.spacing / per_cell
        x0 = lo + phase * step
        count = int((hi - x0) / step * (1.0 - 1e-12)) + 1
        want = quad((x0 - lo) + step * np.arange(count))
        assert np.max(np.abs(_on_steps(f, x0, step, count) - want)) <= tol

    # the Filon rule for w's kernels: y = phi - 2t sweeps [-span, span],
    # and lam crosses the rule's Maclaurin threshold; the rule's phases
    # e^(i rho (phi - 2t)) round by rho |phi| ulps, hence the |phi| / span
    span, phi = length, 2.0 * lo + length
    lam = np.array([0.1, -0.5 + 0.3j, 3.0, 20.0 + 2.0j, -15.0, 150.0]) / span**2
    t, wt = np.polynomial.legendre.leggauss(80)
    t, wt = lo + 0.5 * length * (1.0 + t), 0.5 * length * wt
    y = phi - 2.0 * t
    lc, yc = lam[:, None], y[None, :]
    kernels = {
        "c": ckernel(lc, yc),
        "s": skernel(lc, yc),
        "ss": skernel(lc, 0.5 * (span + yc)) * skernel(lc, 0.5 * (span - yc)),
    }
    rule = _WeightRule(f, phi, span)
    for kind, kern in kernels.items():
        got = rule.integrals(lam, kind, ckernel(lam, span))
        want = kern @ (wt * quad(t - lo))
        bound = tol * length * np.max(np.abs(kern), axis=1) * max(1.0, abs(phi) / span)
        assert np.all(np.abs(got - want) <= bound), kind


def test_shift_and_map_touch_only_the_samples():
    f = sample_function(np.cos, [0.0, 1.0], 9)
    g = f.shift_values(2.0 - 1.0j)
    assert np.max(np.abs(g.all_samples() - (f.all_samples() + 2.0 - 1.0j))) == 0.0
    h = f.map_samples(lambda s, x: s * x)
    assert np.max(np.abs(h.all_samples() - f.all_samples() * f.nodes())) == 0.0


def test_sample_function_structure():
    f = sample_function(np.sin, [0.0, 1.0, 2.0], 5)
    assert np.array_equal(f.breakpoints(), [1.0])
    assert f.nodes().size == 10
    assert f.all_samples().size == 10
    with pytest.raises(DomainError):
        sample_function(np.sin, [0.0], 5)


def test_simpson_rule_integrates_smooth_pieces():
    x, w = simpson_rule([0.0, 1.0, 2.5], 0.005)
    assert w.sum() == pytest.approx(2.5, abs=1e-13)
    assert (w @ np.cos(x)) == pytest.approx(np.sin(2.5), abs=1e-10)
    # the minimum node count keeps tiny pieces honest
    x, _ = simpson_rule([0.0, 1e-3], 1.0)
    assert x.size == 9


def test_piecewise_quad_takes_values_from_each_side():
    f = _two_step()
    x, w, v = piecewise_quad(f, [0.0, 1.0, 2.0], 0.1)
    assert (w @ v) == pytest.approx(1.0, abs=1e-14)
    at_break = v[np.isclose(x, 1.0)]
    assert set(np.round(at_break.real, 12)) == {0.0, 1.0}


def test_piecewise_quad_rejects_straddling_pieces():
    f = _two_step()
    with pytest.raises(GridMismatchError):
        piecewise_quad(f, [0.0, 0.5, 1.5, 2.0], 0.1)


def test_assemble_segments_splits_on_duplicates():
    x = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0]
    v = [0.0, 0.25, 1.0, 2.0, 2.5, 3.0]
    f = assemble_segments(x, v)
    assert len(f.segments) == 2
    assert f.values(1.0) == 2.0
    assert f.values(0.5) == 0.25
    with pytest.raises(DomainError):
        assemble_segments([0.0, 1.0], [0.0, 1.0])


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    f = sample_function(
        lambda x: rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape),
        [0.0, np.pi / 3, 1.9],
        9,
    )
    path = tmp_path / "f.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert np.array_equal(f.breakpoints(), g.breakpoints())
    assert np.array_equal(f.all_samples(), g.all_samples())


@settings(max_examples=40, deadline=None)
@given(**_PIECEWISE)
def test_csv_round_trip_is_bit_exact_through_jumps_and_signed_zeros(
    tmp_path_factory, seed, pieces, nodes
):
    f, _ = _random_piecewise(seed, pieces, nodes)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert len(g.segments) == len(f.segments)
    for got, want in zip(g.segments, f.segments):
        assert (got.interval.lo, got.interval.hi) == (want.interval.lo, want.interval.hi)
        assert got.samples.tobytes() == want.samples.tobytes()


def test_a_three_row_csv_segment_round_trips_as_five_rows(tmp_path):
    # a 3-row run is read as the five samples of its quadratic; those are
    # written back as 5 rows, which read back bit for bit
    three = np.array([1.0 - 0.0j, 0.1 + 2.0j, -2.5 + 1e-3j])
    rows = [(0.5, three[0]), (0.75, three[1]), (1.0, three[2])]
    rows += [(x, complex(x, -x)) for x in (1.0, 1.25, 1.5, 1.75, 2.0)]
    path = tmp_path / "three.csv"
    path.write_text("x,re,im\n" + "".join(f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n" for x, v in rows))
    f = read_csv(path)
    assert [seg.count for seg in f.segments] == [5, 5]
    want = SampledSegment(Interval(0.5, 1.0), three).samples
    assert f.segments[0].samples.tobytes() == want.tobytes()
    write_csv(f, path)
    assert len(path.read_text().splitlines()) == 1 + 5 + 5
    g = read_csv(path)
    assert np.array_equal(g.nodes(), f.nodes())
    assert g.all_samples().tobytes() == f.all_samples().tobytes()


def test_csv_reader_validates_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,real,imag\n0,0,0\n")
    with pytest.raises(DomainError):
        read_csv(path)
    path.write_text("x,re,im\n0,0,0\n1,1,0\n")
    with pytest.raises(DomainError):
        read_csv(path)


@pytest.mark.parametrize(
    "xs",
    [
        [0.0, 0.1, 1.0, 1.0, 1.5, 2.0],  # a run that is not uniform
        [0.0, 0.5, 0.2],  # a run that turns back
    ],
)
def test_csv_reader_refuses_abscissae_off_a_uniform_grid(tmp_path, xs):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n" + "".join(f"{x!r},{k},0\n" for k, x in enumerate(xs)))
    with pytest.raises(DomainError, match="uniform spacing"):
        read_csv(path)


def _jumpy(lo, mid, hi, left, right, count=33) -> PiecewiseFunction:
    """left(x) sampled on [lo, mid] and right(x) on [mid, hi]; jumps where they differ."""
    x0 = np.linspace(lo, mid, count)
    x1 = np.linspace(mid, hi, count)
    return PiecewiseFunction(
        [
            SampledSegment(Interval(lo, mid), left(x0)),
            SampledSegment(Interval(mid, hi), right(x1)),
        ]
    )


# f jumps at 0.7 inside (0, 2); g lives on (-1, 4), continuous with a kink at 1.3
_F = _jumpy(0.0, 0.7, 2.0, np.sin, lambda x: 2.0 + np.cos(3.0 * x))
_G = _jumpy(
    -1.0, 1.3, 4.0, lambda x: np.exp(1.3 - x), lambda x: 1.0 + (x - 1.3) * (1.0j * (x - 1.3) - 2.0)
)
# On these functions the primitive at spacing 1e-3 sits within 5e-10 of
# the oracle, whose own error at 80k nodes per piece is below 1e-10.
_PRODUCT_TOL = 1e-8


def _midpoint_oracle(f, g, shift, lo, hi, n=80000):
    """Composite midpoint rule split at f's and the shifted g's breakpoints.

    g counts as 0 outside its domain, so its shifted ends are cuts too.
    """
    cuts = [lo, hi] + [b for b in f.breakpoints() if lo < b < hi]
    cuts += [b - shift for b in (g.lo, *g.breakpoints(), g.hi) if lo < b - shift < hi]
    cuts = sorted(cuts)
    total = 0.0 + 0.0j
    for u, v in zip(cuts[:-1], cuts[1:]):
        s = u + (v - u) * (np.arange(n) + 0.5) / n
        if g.lo <= s[0] + shift and s[-1] + shift <= g.hi:
            total += (v - u) / n * np.sum(f.values(s) * g.values(s + shift))
    return total


def test_shifted_products_match_the_midpoint_oracle():
    # shift 0.3 puts g's kink at s = 1.0, inside the range and apart from
    # f's jump at 0.7; reading f across that jump from the wrong side
    # would cost about spacing / 3 times the jump, far above the tolerance
    shifts = np.array([0.3, -0.5, 1.9])
    his = np.array([2.0, 1.2, 1.95])
    have = shifted_product_integrals(_F, _G, shifts, 0.0, his, 1e-3)
    for got, shift, hi in zip(have, shifts, his):
        want = _midpoint_oracle(_F, _G, shift, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))


def test_shifted_products_of_empty_ranges_are_zero():
    have = shifted_product_integrals(_F, _G, [0.3, 0.3, 0.3], 0.5, [0.5, 0.5 + 1e-10, 0.2], 1e-3)
    assert np.array_equal(have, np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(
    shift=st.floats(min_value=-0.9, max_value=1.9),
    hi=st.floats(min_value=0.05, max_value=2.0),
    c=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_shifted_products_are_linear_in_f_and_match_the_oracle(shift, hi, c):
    other = _jumpy(0.0, 0.7, 2.0, np.cos, lambda x: x - 1.5j)
    combo = _F + c * other
    parts = shifted_product_integrals(_F, _G, [shift], 0.0, [hi], 1e-3)[0]
    parts += c * shifted_product_integrals(other, _G, [shift], 0.0, [hi], 1e-3)[0]
    have = shifted_product_integrals(combo, _G, [shift], 0.0, [hi], 1e-3)[0]
    assert abs(have - parts) < 1e-12 * (1.0 + abs(c))
    want = _midpoint_oracle(combo, _G, shift, 0.0, hi)
    assert abs(have - want) < _PRODUCT_TOL * (1.0 + abs(want))


# The lattice rule's factors: f jumps at 0.75 inside (0, 2); g lives on
# (-1, 3), vanishes at both ends and has a kink at 1.25.  Every breakpoint
# and every sample spacing is a multiple of the lattice spacing 1/256.
_DELTA = 1.0 / 256.0
_LF = _jumpy(0.0, 0.75, 2.0, np.sin, lambda x: 2.0 + np.cos(3.0 * x))
_LG = _jumpy(
    -1.0,
    1.25,
    3.0,
    lambda x: (x + 1.0) * np.exp(-x),
    lambda x: (3.0 - x) * (1.0 + 1.0j * (x - 1.25)) * 2.25 * np.exp(-1.25) / 1.75,
)


def test_lattice_products_match_the_midpoint_oracle():
    # hi is off the lattice, so the last partial cell is in play.  Shifts
    # 0, 77, 192 and -64 move g's kink to 1.25, 0.95, 0.5 and 1.5, inside
    # the range; -300 and 320 push g partly out of its domain at either
    # end.  Reading f across its jump from the wrong side would cost about
    # delta / 6 times the jump, far above the tolerance.
    hi = 1.9 + 0.3 * _DELTA
    ks = np.array([-300, -64, 0, 77, 192, 320])
    have = lattice_product_integrals(_LF, _LG, ks, 0.0, hi, _DELTA)
    for got, k in zip(have, ks):
        want = _midpoint_oracle(_LF, _LG, k * _DELTA, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))


def test_lattice_products_match_the_pointwise_primitive():
    # shifts that keep g inside its domain, where both rules apply
    ks = np.array([-200, -64, 0, 77, 192])
    for hi in (1.5, 1.9 + 0.3 * _DELTA):
        have = lattice_product_integrals(_LF, _LG, ks, 0.0, hi, _DELTA)
        want = shifted_product_integrals(_LF, _LG, ks * _DELTA, 0.0, hi, 1e-3)
        assert np.max(np.abs(have - want)) < _PRODUCT_TOL


def test_lattice_products_refuse_off_lattice_input_and_empty_ranges():
    with pytest.raises(GridMismatchError):
        lattice_product_integrals(_F, _LG, [0, 1], 0.0, 1.5, _DELTA)  # f breaks at 0.7
    with pytest.raises(GridMismatchError):
        lattice_product_integrals(_LF, _G, [0, 1], 0.0, 1.5, _DELTA)  # g breaks at 1.3
    with pytest.raises(GridMismatchError):
        lattice_product_integrals(_LF, _LG, [0, 1], 0.3 * _DELTA, 1.5, _DELTA)
    with pytest.raises(DomainError):
        lattice_product_integrals(_LF, _LG, [0.5], 0.0, 1.5, _DELTA)
    have = lattice_product_integrals(_LF, _LG, [3, 4], 0.5, 0.5 + 1e-10, _DELTA)
    assert np.array_equal(have, np.zeros(2))


@settings(max_examples=20, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=-300, max_value=320), min_size=1, max_size=3),
    hi=st.floats(min_value=0.05, max_value=2.0),
)
def test_lattice_products_match_the_oracle_for_any_shifts(ks, hi):
    have = lattice_product_integrals(_LF, _LG, ks, 0.0, hi, _DELTA)
    for got, k in zip(have, ks):
        want = _midpoint_oracle(_LF, _LG, k * _DELTA, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))


def test_lattice_products_do_not_depend_on_the_batch():
    # each entry of a subset of the shifts matches the full call's entry:
    # the subset changes the FFT length and the sampled range of g, so
    # only rounding may move.  hi = 0.75 puts f's jump on the last node.
    full_ks = np.array([-300, -64, 0, 1, 77, 192, 320])
    for hi in (0.75, 1.5, 1.9 + 0.3 * _DELTA):
        full = lattice_product_integrals(_LF, _LG, full_ks, 0.0, hi, _DELTA)
        for pick in ([0], [2], [3, 4], [1, 5], [0, 6], [6, 2, 4]):
            have = lattice_product_integrals(_LF, _LG, full_ks[pick], 0.0, hi, _DELTA)
            assert np.max(np.abs(have - full[pick])) < 1e-13
    # on the jump, the last cell reads f's left side
    have = lattice_product_integrals(_LF, _LG, [0], 0.0, 0.75, _DELTA)[0]
    want = _midpoint_oracle(_LF, _LG, 0.0, 0.0, 0.75)
    assert abs(have - want) < _PRODUCT_TOL * (1.0 + abs(want))


def test_lattice_products_refuse_a_jumping_shifted_factor():
    # g jumps at 1.25, or is non-zero at its upper edge 3.0; either is
    # refused once the shifts bring the point inside the range g is read
    # on, and accepted while they leave it outside
    jumps = _jumpy(-1.0, 1.25, 3.0, lambda x: 1.0 + 0.0 * x, lambda x: 2.0 + 0.0 * x)
    with pytest.raises(PreconditionError):
        lattice_product_integrals(_LF, jumps, [0], 0.0, 1.5, _DELTA)
    assert np.isfinite(lattice_product_integrals(_LF, jumps, [-192], 0.0, 0.5, _DELTA)).all()
    edge = _jumpy(-1.0, 1.25, 3.0, lambda x: (x + 1.0) / 2.25, lambda x: 1.0 + 0.0 * x)
    with pytest.raises(PreconditionError):
        lattice_product_integrals(_LF, edge, [0, 320], 0.0, 1.9, _DELTA)
    assert np.isfinite(lattice_product_integrals(_LF, edge, [0, 256], 0.0, 1.0, _DELTA)).all()


def _pieces(edges, fns, count=33) -> PiecewiseFunction:
    """fns[i] sampled on [edges[i], edges[i + 1]]; None marks a segment of zeros."""
    segs = []
    for lo, hi, fn in zip(edges[:-1], edges[1:], fns):
        x = np.linspace(lo, hi, count)
        segs.append(SampledSegment(Interval(lo, hi), np.zeros(count) if fn is None else fn(x)))
    return PiecewiseFunction(segs)


# f of the lattice tests with dead spans: zero on a head (0, 0.25), on an
# interior segment (0.75, 1) and on a tail (1.5, 2), and jumping into and
# out of each of them
_DEAD_F = _pieces(
    [0.0, 0.25, 0.75, 1.0, 1.5, 2.0],
    [None, np.sin, None, lambda x: 2.0 + np.cos(3.0 * x), None],
)


def test_lattice_products_over_dead_spans_match_the_oracles():
    hi = 1.9 + 0.3 * _DELTA
    ks = np.array([-300, -64, 0, 77, 192, 320])
    have = lattice_product_integrals(_DEAD_F, _LG, ks, 0.0, hi, _DELTA)
    for got, k in zip(have, ks):
        want = _midpoint_oracle(_DEAD_F, _LG, k * _DELTA, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))
    inside = ks[1:-1]  # shifts that keep g inside its domain
    want = shifted_product_integrals(_DEAD_F, _LG, inside * _DELTA, 0.0, hi, 1e-3)
    assert np.max(np.abs(have[1:-1] - want)) < _PRODUCT_TOL


def test_lattice_products_of_factors_that_never_meet_are_exact_zeros():
    # f lives on (0.25, 1.5) and g on (-1, 3): shifts of 704 cells or
    # more put g past f's support, of -640 or fewer before it, and an
    # all-zero f meets nothing
    hi = 1.9 + 0.3 * _DELTA
    for ks in ([704, 800], [-720, -660, -640]):
        have = lattice_product_integrals(_DEAD_F, _LG, ks, 0.0, hi, _DELTA)
        assert np.array_equal(have, np.zeros(len(ks)))
    zero = _pieces([0.0, 0.75, 2.0], [None, None])
    have = lattice_product_integrals(zero, _LG, [-300, 0, 77, 320], 0.0, hi, _DELTA)
    assert np.array_equal(have, np.zeros(4))


def test_lattice_products_with_g_ending_off_the_lattice():
    # the spacing a / 4096 of the package's nested integrals at a = 1, and
    # g's domain ending at pi, 0.96 cells above a lattice node: g falls
    # steeply to 0 there, so dropping the half node just below pi would
    # cost ~4e-7, over ten times the tolerance
    delta = 1.0 / 4096.0
    at_3 = 2.25 * np.exp(-1.25) + 1.75 * (1.0 + 1.0j)
    g = _pieces(
        [-1.0, 1.25, 3.0, np.pi],
        [
            lambda x: (x + 1.0) * np.exp(-x),
            lambda x: 2.25 * np.exp(-1.25) + (x - 1.25) * (1.0 + 1.0j),
            lambda x: at_3 * (np.pi - x) / (np.pi - 3.0),
        ],
    )
    hi = 1.9 + 0.3 * delta
    ks = np.array([7748, 10820, 11000])  # pi comes to s = 1.25, 0.5 and 0.46
    have = lattice_product_integrals(_DEAD_F, g, ks, 0.0, hi, delta)
    for got, k in zip(have, ks):
        want = _midpoint_oracle(_DEAD_F, g, k * delta, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))


def test_lattice_products_do_not_see_lo_or_hi_move_across_dead_spans():
    ks = np.array([-300, -64, 0, 77, 192, 320])
    full = lattice_product_integrals(_DEAD_F, _LG, ks, 0.0, 2.0, _DELTA)
    for lo in (0.0, 0.125, 0.25):
        for hi in (1.5, 1.5 + 0.3 * _DELTA, 1.75, 1.9 + 0.3 * _DELTA, 2.0):
            have = lattice_product_integrals(_DEAD_F, _LG, ks, lo, hi, _DELTA)
            assert np.max(np.abs(have - full)) <= 1e-13 * np.max(np.abs(full))


@settings(max_examples=20, deadline=None)
@given(
    dead=st.lists(st.booleans(), min_size=8, max_size=8),
    ks=st.lists(st.integers(min_value=-300, max_value=320), min_size=1, max_size=3),
    hi=st.floats(min_value=0.05, max_value=2.0),
)
def test_lattice_products_match_the_oracle_wherever_f_is_dead(dead, ks, hi):
    # f on eight segments of (0, 2), each dead or live as drawn
    live = lambda x: np.sin(3.0 * x) + 1.0j * np.cos(x)  # noqa: E731
    f = _pieces(np.linspace(0.0, 2.0, 9), [None if d else live for d in dead])
    have = lattice_product_integrals(f, _LG, ks, 0.0, hi, _DELTA)
    for got, k in zip(have, ks):
        want = _midpoint_oracle(f, _LG, k * _DELTA, 0.0, hi)
        assert abs(got - want) < _PRODUCT_TOL * (1.0 + abs(want))


# Segments for the uniform-step sampler, as (node count, spacing in
# steps): the stencil table at R = 1, 2 and 8 steps per cell, and the
# 3-node quadratic's table at R = 1 and 4; spacings of 0.5, 1.5 and 2.5
# steps, a 3-node segment's too, take the pointwise fallback.
# The step is a power of two and the segments' lengths are dyadic, so on
# a dyadic phase every point, node and breakpoint is exact.
_STEP = 1.0 / 256.0
_STEP_SEGMENTS = [
    (3, 4.0), (5, 8.0), (129, 2.0), (513, 1.0), (9, 1.5), (5, 0.5), (9, 2.5), (33, 8.0),
    (3, 1.0), (3, 1.5),
]


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(range(len(_STEP_SEGMENTS))),
    used=st.integers(min_value=1, max_value=len(_STEP_SEGMENTS)),
    jumps=st.lists(
        st.floats(-2.0, 2.0), min_size=len(_STEP_SEGMENTS), max_size=len(_STEP_SEGMENTS)
    ),
    start=st.integers(min_value=-40, max_value=40),
    phase=st.sampled_from([0.0, 1e-12, 0.25, 0.5, 0.375, 0.3, 0.9999]),
    extra=st.integers(min_value=-200, max_value=40),
)
def test_on_steps_matches_values_point_by_point(order, used, jumps, start, phase, extra):
    segs, lo = [], -0.5
    for k in order[:used]:
        count, ratio = _STEP_SEGMENTS[k]
        hi = lo + (count - 1) * ratio * _STEP
        x = np.linspace(lo, hi, count)
        segs.append(SampledSegment(Interval(lo, hi), np.exp(1j * x) * (1.0 + 0.5 * x) + jumps[k]))
        lo = hi
    f = PiecewiseFunction(segs)
    x0 = f.lo + (start + phase) * _STEP
    count = max(1, int((f.hi - x0) / _STEP) + extra)
    have = _on_steps(f, x0, _STEP, count)
    x = x0 + _STEP * np.arange(count)
    # a point within 1e-9 steps outside an edge counts as on it
    inside = (x >= f.lo - 1e-9 * _STEP) & (x <= f.hi + 1e-9 * _STEP)
    want = np.zeros(count, dtype=complex)
    want[inside] = f.values(np.clip(x[inside], f.lo, f.hi))
    scale = float(np.max(np.abs(f.all_samples())))
    assert np.max(np.abs(have - want)) <= 1e-14 * scale
    # a point on a node, or one rounding above it, is the stored sample:
    # the right segment's at a breakpoint
    for seg, nxt in zip(f.segments, f.segments[1:] + (None,)):
        u = (x - seg.interval.lo) / seg.spacing
        node = np.rint(u).astype(int)
        on = (np.abs(u - node) <= 1e-9) & (node >= 0) & (node < seg.count - (nxt is not None))
        assert np.array_equal(have[on], seg.samples[node[on]])
        assert np.array_equal(have[on], want[on])
    # a run that starts on the upper edge reads the last sample, then 0
    assert np.array_equal(_on_steps(f, f.hi, _STEP, 3), [f.segments[-1].samples[-1], 0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(
    shape=st.lists(
        st.tuples(st.sampled_from([3, 5, 9, 17]), st.sampled_from([0.125, 0.3, 0.5, 1.0])),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_values_match_the_per_segment_loop(shape, data):
    segs, lo = [], -0.4
    for k, (count, length) in enumerate(shape):
        x = np.linspace(lo, lo + length, count)
        segs.append(SampledSegment(Interval(lo, lo + length), np.exp(1j * x) * (1.0 + x) + k))
        lo += length
    f = PiecewiseFunction(segs)
    nodes = f.nodes()
    spacing = min(seg.spacing for seg in segs)

    def points(pool):
        picks = data.draw(st.lists(st.integers(0, pool.size - 1), min_size=1, max_size=12))
        return pool[picks]

    on = points(nodes)
    off = np.asarray(data.draw(st.lists(st.floats(f.lo, f.hi), min_size=1, max_size=12)))
    # breakpoints and the domain edges, on them and within 1e-9 spacings
    pairs = st.tuples(
        st.sampled_from(list(f._bounds)), st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
    )
    near = [b + spacing * d for b, d in data.draw(st.lists(pairs, min_size=1, max_size=12))]
    near = np.clip(near, f.lo, f.hi)
    for x in (on, off, np.concatenate([on, off]), near, near[:1], np.array([])):
        have, want = f.values(x), piecewise_values(f, x)
        assert have.dtype == complex and have.shape == x.shape
        assert np.array_equal(have, want)
        for p in x[:3]:
            alone = f.values(p)
            assert np.isscalar(alone) and alone == piecewise_values(f, p)
    # a breakpoint reads the right segment; a node the stored sample,
    # alone, among nodes only and among points off the nodes
    for right in segs[1:]:
        assert f.values(right.interval.lo) == right.samples[0]
    for seg in segs:
        k = np.array(data.draw(st.lists(st.integers(0, seg.count - 1), min_size=1, max_size=5)))
        x = seg.nodes()[k]
        assert np.array_equal(seg.values(x), seg.samples[k])
        off_node = np.full(x.shape, seg.interval.lo + 0.37 * seg.spacing)
        mixed = seg.values(np.concatenate([x, off_node]))
        assert np.array_equal(mixed[: k.size], seg.samples[k])
        assert seg.values(x[0]).shape == () and seg.values(x[0]) == seg.samples[k[0]]


def test_values_outside_the_domain_raise():
    f = _two_step()
    for x in (-1e-3, 2.0 + 1e-3, [0.5, 0.6, 2.5], [-0.5, 1.5], [1.2, 1.3, 1.4, 7.0]):
        with pytest.raises(DomainError):
            f.values(x)
    assert np.array_equal(f.values([2.0 + 1e-13, -1e-13]), [1.0, 0.0])


def test_sided_values_read_both_sides_of_a_jump_off_the_segments():
    f = _two_step()
    # a node one rounding below the jump reads the left segment through
    # values, yet gets the right side as its right limit
    below = np.nextafter(1.0, 0.0)
    left, right = _sided_values(f, [0.5, below, 1.5, 2.0])
    assert f.values(below) == 0.0
    assert list(left) == [0.0, 0.0, 1.0, 1.0] and list(right) == [0.0, 1.0, 1.0, 1.0]
    # a node farther than 1e-9 from every breakpoint takes values on both sides
    x = [0.0, 1.0 - 1e-8, 2.0]
    left, right = _sided_values(f, x)
    assert np.array_equal(left, f.values(x)) and np.array_equal(right, f.values(x))


def test_import_leaves_numpy_polynomial_unloaded():
    # importing the package loads no numpy.polynomial and builds no
    # Gauss-Legendre rule: the shared rule is built on first use
    code = (
        "import sys, delaysl; print('numpy.polynomial' in sys.modules); "
        "print(delaysl.gridfn._gauss.cache_info().currsize)"
    )
    src = str(Path(delaysl.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout.split() == ["False", "0"]
