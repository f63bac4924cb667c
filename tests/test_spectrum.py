"""Root refinement, contour certification, and whole-spectrum assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import (
    ContourError,
    DelaySetup,
    DomainError,
    IncompleteSpectrumError,
    PreconditionError,
    RefinementError,
    Spectrum,
    SpectrumEntry,
    build_member,
    build_w,
    ckernel,
    compare,
    compute_spectrum,
    count_roots,
    delta_closed,
    delta_direct,
    grid_breakpoints,
    initial_guesses,
    refine_root,
    sample_function,
    skernel,
)
from delaysl import spectrum
from delaysl.cli import RunConfig, _seed_pair
from delaysl.spectrum import _root_order

A = np.pi / 4


def _s(z):
    return skernel(z, np.pi)


def _c(z):
    return ckernel(z, np.pi)


def test_initial_guesses():
    assert initial_guesses(0, 0, 4) == pytest.approx([1, 4, 9, 16])
    assert initial_guesses(1, 1, 4) == pytest.approx([1, 4, 9, 16])
    assert initial_guesses(0, 1, 4) == pytest.approx([0.25, 2.25, 6.25, 12.25])
    assert initial_guesses(1, 0, 4) == pytest.approx([0.25, 2.25, 6.25, 12.25])
    with pytest.raises(PreconditionError):
        initial_guesses(0, 0, 0)
    with pytest.raises(PreconditionError):
        initial_guesses(2, 0, 4)


def test_refine_root_on_classical_functions():
    assert abs(refine_root(_s, 1.2) - 1.0) < 1e-10
    assert abs(refine_root(_c, 0.3) - 0.25) < 1e-10
    assert abs(refine_root(_s, 9.4) - 9.0) < 1e-9


def test_refine_root_failure_modes():
    with pytest.raises(DomainError):
        refine_root(_s, np.nan)
    flat = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    with pytest.raises(RefinementError) as info:
        refine_root(flat, 2.0)
    assert info.value.last is not None
    assert info.value.last_value == 1.0


def _recorded(delta, batches):
    def wrapped(z):
        z = np.asarray(z, dtype=complex)
        batches.append(z.copy())
        return delta(z)

    return wrapped


def test_polish_takes_two_points_per_guess_then_one_per_live_guess():
    # the first step takes a forward difference; every later one costs
    # one point per guess still moving, at its latest iterate
    guesses = [1.0, 1.2, 3.7, 9.4, 16.8, 0.3 + 0.2j]
    k = len(guesses)
    batches = []
    roots, ok, vals = spectrum._refine_many(_recorded(_s, batches), guesses, 1e-10)
    assert ok.all()
    first = batches[0]
    assert first.size == 2 * k and np.array_equal(first[:k], guesses)
    assert np.array_equal(first[k:], first[:k] + 1e-6 * (1.0 + np.abs(first[:k])))
    # 1.0 is a root already, so it never moves
    sizes = [b.size for b in batches[1:]]
    assert sizes[0] == k - 1 and all(s1 >= s2 > 0 for s1, s2 in zip(sizes, sizes[1:]))
    # each guess ends where Delta was last taken for it, and keeps that value
    seen = np.concatenate(batches)
    for r, v in zip(roots, vals):
        assert r in seen and v == _s(np.array([r]))[0]
    assert abs(roots[1] - 1.0) < 1e-10 and abs(roots[4] - 16.0) < 1e-9
    # a flat function costs the first step's two points and nothing more
    batches = []
    flat = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    roots, ok, vals = spectrum._refine_many(_recorded(flat, batches), [2.0, 5.0], 1e-10)
    assert [b.size for b in batches] == [4] and not ok.any()
    assert np.array_equal(roots, [2.0, 5.0]) and np.array_equal(vals, [1.0, 1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polish_drops_a_guess_where_delta_is_not_finite(bad):
    # a guess past Re z = 50 sees no finite Delta: it costs the first
    # step's two points and is given up, while the other one converges
    def delta(z):
        z = np.asarray(z, dtype=complex)
        return np.where(z.real > 50.0, bad, _s(z))

    batches = []
    roots, ok, vals = spectrum._refine_many(_recorded(delta, batches), [1.2, 60.0], 1e-10)
    assert ok.tolist() == [True, False]
    assert sum(np.count_nonzero(b.real > 50.0) for b in batches) == 2
    assert roots[1] == 60.0 and not np.isfinite(vals[1])
    assert abs(roots[0] - 1.0) < 1e-10
    batches = []
    with pytest.raises(RefinementError) as info:
        refine_root(_recorded(delta, batches), 60.0)
    assert sum(b.size for b in batches) == 2
    assert info.value.last == 60.0 and not np.isfinite(info.value.last_value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polish_gives_up_a_guess_that_leaves_its_box():
    # Delta overflows left of Re z = -50; the first secant step from 40
    # lands there, at about -71, and the guess is given up before Delta
    # is taken.  A guess that starts outside the box costs nothing.
    def delta(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(np.where(z.real < -50.0, 1e4, 0.0)) * (z - 100.0) * (z - 1.0)

    box = (complex(-5.0, -5.0), complex(50.0, 5.0))
    batches = []
    roots, ok, vals = spectrum._refine_many(
        _recorded(delta, batches), [1.2, 40.0, 60.0, 8.0j], 1e-10, box=box
    )
    seen = np.concatenate(batches)
    assert np.all(spectrum._in_box(seen, box))
    assert ok.tolist() == [True, False, False, False]
    assert abs(roots[0] - 1.0) < 1e-10
    assert roots[1] in seen and vals[1] == delta(np.array([roots[1]]))[0]
    assert roots[2] == 60.0 and roots[3] == 8.0j and np.isnan(vals[2:]).all()
    assert 60.0 not in seen and 8.0j not in seen
    # without the box the same guesses reach the overflowing side
    with pytest.raises(RuntimeWarning):
        spectrum._refine_many(delta, [40.0], 1e-10)


def test_count_roots_classical():
    assert count_roots(_s, (-0.5 - 1.0j, 10.5 + 1.0j)).counts == (3,)
    assert count_roots(_c, (-0.5 - 1.0j, 10.5 + 1.0j)).counts == (3,)
    assert count_roots(_s, (402.0 - 1.0j, 438.0 + 1.0j)).counts == (0,)
    with pytest.raises(DomainError):
        count_roots(_s, (10.5 - 1.0j, -0.5 + 1.0j))


def test_count_roots_dilates_off_a_contour_root():
    # the right edge passes through the root at 4; dilation resolves it
    assert count_roots(_s, (-0.5 - 1.0j, 4.0 + 1.0j)).counts == (2,)


def test_count_roots_moves_a_cut_or_dilates_off_a_root():
    # the cut at 4 passes through a root: it moves, and the root joins a cell
    cells = count_roots(_s, (-0.5 - 1.0j, 10.5 + 1.0j), cuts=[4.0])
    assert cells.counts == (1, 2) and cells.walls[1] < 4.0
    # a conjugate pair on the top and bottom edges: the imaginary range dilates
    pair = lambda z: (np.asarray(z, dtype=complex) - 2.0) ** 2 + 1.0
    cells = count_roots(pair, (-1.0j, 4.0 + 1.0j), cuts=[1.0])
    assert cells.counts == (0, 2) and cells.im[1] > 1.0
    with pytest.raises(DomainError):
        count_roots(_s, (-0.5 - 1.0j, 10.5 + 1.0j), cuts=[11.0])


def test_count_roots_rejects_identically_zero_functions():
    dead = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
    with pytest.raises(ContourError):
        count_roots(dead, (-1.0 - 1.0j, 1.0 + 1.0j))


def test_classical_spectra():
    spec = compute_spectrum(_s, 0, 0, 5)
    assert spec.certified_count == 5
    assert np.max(np.abs(spec.lambdas() - np.array([1, 4, 9, 16, 25]))) < 1e-10
    spec = compute_spectrum(_c, 0, 1, 5)
    assert np.max(np.abs(spec.lambdas() - np.array([0.25, 2.25, 6.25, 12.25, 20.25]))) < 1e-10
    spec = compute_spectrum(lambda z: -z * _s(z), 1, 1, 3)
    assert spec.certified_count == 4  # the root at zero joins the guesses
    assert np.max(np.abs(spec.lambdas() - np.array([0, 1, 4, 9]))) < 1e-10


def test_double_root_is_reported_with_multiplicity():
    double = lambda z: (np.asarray(z, dtype=complex) - 1.5) ** 2
    spec = compute_spectrum(double, 0, 0, 2)
    assert spec.certified_count == 2
    lams = spec.lambdas()
    assert np.max(np.abs(lams - 1.5)) < 1e-5
    assert [e.n for e in spec.entries] == [1, 2]


def test_triple_root_is_reported_with_multiplicity():
    triple = lambda z: (np.asarray(z, dtype=complex) - 1.5) ** 3
    spec = compute_spectrum(triple, 0, 0, 2)
    assert spec.certified_count == 3
    lams = spec.lambdas()
    # the polish leaves a triple root only to the residual tolerance
    assert np.all(lams == lams[0]) and abs(lams[0] - 1.5) < 1e-3


def test_unreachable_roots_raise_incompleteness():
    # conj is not analytic: its winding number about its zero is -1,
    # a count no set of roots can match
    mirror = lambda z: np.conj(np.asarray(z, dtype=complex)) - 1.5
    with pytest.raises(IncompleteSpectrumError):
        compute_spectrum(mirror, 0, 0, 2)


def _polynomial(roots):
    roots = np.asarray(roots, dtype=complex)
    return lambda z: np.prod(np.asarray(z, dtype=complex)[..., None] - roots, axis=-1)


@pytest.mark.parametrize(
    "roots",
    [
        [1.0, 3.0, 3.001, 9.0, 9.0, 12.0 + 2.0j, 12.0 - 2.0j],
        # the seed 4 sits between the pair
        [1.0, 3.9995, 4.0005, 9.0, 9.0, 12.0 + 2.0j, 12.0 - 2.0j],
        [1.2, 2.0, 2.001, 16.0, 16.0, 6.0 + 5.0j, 6.0 - 5.0j],
    ],
)
def test_close_pair_double_root_and_conjugate_pair_are_all_found(roots):
    spec = compute_spectrum(_polynomial(roots), 0, 0, 5)
    assert spec.certified_count == len(roots)
    want = np.array(_root_order([complex(r) for r in roots]))
    assert np.max(np.abs(spec.lambdas() - want)) < 1e-6


def test_a_root_near_the_floor_adds_a_cell_below():
    # the floor sits at 1 - 5 = -4; the root at -3.5 hugs it, -6 lies below
    roots = [-6.0, -3.5, 1.0, 4.0]
    spec = compute_spectrum(_polynomial(roots), 0, 0, 2)
    assert spec.certified_count == 4
    assert np.max(np.abs(spec.lambdas() - np.array(roots))) < 1e-8


def _member_q(a, nu, alpha):
    return build_member(*_seed_pair(RunConfig(a=a, nu=nu)), nu, alpha, a).q


def _member_deltas(a, nu, alpha):
    """Closed-route Delta callables (j = 0, 1) of one family member."""
    datas = build_w(_member_q(a, nu, alpha), DelaySetup(a=a, nu=nu))
    return [lambda lam, data=data: delta_closed(data, lam) for data in datas]


def _small_square_count(delta, lam, lams):
    """Winding count on a square around lam that excludes every other listed root."""
    half = min([0.5] + [0.4 * abs(l - lam) for l in lams if l != lam])
    return count_roots(delta, (lam - half * (1 + 1j), lam + half * (1 + 1j))).counts[0]


def test_conjugate_pair_is_found_and_no_root_repeated_at_a_0_6():
    # once listed as 0.7181 and 27.4334 twice each, without the pair
    delta = _member_deltas(0.6, 0, 0.0)[1]
    spec = compute_spectrum(delta, 0, 1, 20)
    lams = [complex(l) for l in spec.lambdas()]
    assert spec.certified_count == 20
    for want in (5.8614 - 4.5049j, 5.8614 + 4.5049j):
        assert min(abs(l - want) for l in lams) < 1e-4
    for want in (0.7181, 27.4334):
        assert sum(abs(l - want) < 1e-4 for l in lams) == 1
    for lam in set(lams):
        assert _small_square_count(delta, lam, lams) == lams.count(lam)


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("a", [0.3, 0.6, 1.04])
def test_member_spectra_agree_across_delays(a, nu):
    # a = 1.04, nu = 0, j = 1 once failed with "winding count 20 vs 18"
    # the direct route (j = 0) must find the closed route's spectrum too
    alpha = 2.0 + 3.0j
    deltas = [_member_deltas(a, nu, z) for z in (0.0, alpha)]
    q, setup = _member_q(a, nu, alpha), DelaySetup(a=a, nu=nu)
    direct = compute_spectrum(lambda lam: delta_direct(q, setup, 0, lam), nu, 0, 20)
    for j in (0, 1):
        first, second = (compute_spectrum(d[j], nu, j, 20) for d in deltas)
        assert compare(first, second) <= 1e-6  # the isospec tolerance
        if j == 0:
            assert compare(second, direct) <= 1e-6  # isospec's closed-vs-direct tolerance
        for s in (first, second) + ((direct,) if j == 0 else ()):
            lams = s.lambdas()
            gaps = np.abs(lams[:, None] - lams[None, :]) / (1.0 + np.abs(lams))
            assert np.all(gaps[~np.eye(len(lams), dtype=bool)] > 1e-6), "a root listed twice"


def _staged(monkeypatch, delta):
    """delta counting its points by stage, and the moments' pointers by rung.

    The stages are the seed polish ("seeds"), the phase-certified
    sampling ("phase"), the first rung's pointer polish ("first"), the
    densification ("dense") and the second rung's polish ("second").
    """
    points = {}
    pointers = {"first": [], "second": []}
    stage = ["seeds"]

    def counted(z):
        points[stage[0]] = points.get(stage[0], 0) + np.size(z)
        return delta(z)

    def during(name, fn):
        def run(*args, **kwargs):
            before, stage[0] = stage[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                stage[0] = before

        return run

    locate, hankel = spectrum._locate, spectrum._hankel_roots

    def staged_locate(census, max_iter=50):
        name = "first" if max_iter == spectrum._SEED_STEPS else "second"
        return during(name, locate)(census, max_iter)

    def recorded_hankel(moments, known, count):
        found = hankel(moments, known, count)
        pointers.setdefault(stage[0], []).append((moments[0], found))
        return found

    monkeypatch.setattr(spectrum, "_locate", staged_locate)
    monkeypatch.setattr(spectrum, "_hankel_roots", recorded_hankel)
    sampling = spectrum._Sampling
    monkeypatch.setattr(sampling, "__init__", during("phase", sampling.__init__))
    monkeypatch.setattr(sampling, "densify", during("dense", sampling.densify))
    return counted, points, pointers


def _rectangle(nu, j, n_max):
    """The rectangle and cuts of ``compute_spectrum``."""
    law = [g.real for g in initial_guesses(nu, j, n_max + 1)]
    cuts = [0.5 * (x + y) for x, y in zip(law[:-2], law[1:-1])]
    re_lo = law[0] - max(1.5 * (law[1] - law[0]), 5.0)
    return (complex(re_lo, -10.0), complex(0.5 * (law[-2] + law[-1]), 10.0)), cuts


def test_first_moments_locate_every_root_of_a_default_member(monkeypatch):
    # nu = 1, j = 0 at the default delay: the seeds and the pointers of
    # the phase samples' moments find every root, so no edge is bisected
    # for the moments and the second rung polishes nothing
    delta = _member_deltas(A, 1, 0.0)[0]
    counted, points, pointers = _staged(monkeypatch, delta)
    spec = compute_spectrum(counted, 1, 0, 20)
    assert spec.certified_count == 20
    assert points["first"] > 0 and pointers["first"]
    assert "dense" not in points and "second" not in points and not pointers["second"]
    assert sum(points.values()) == points["seeds"] + points["phase"] + points["first"]
    # the same rectangle densified as count_roots does it, for the cells
    # the seeds leave short, costs more than the whole first rung
    rect, cuts = _rectangle(1, 0, 20)
    seeds, ok, _ = spectrum._refine_many(delta, initial_guesses(1, 0, 20), 1e-10, spectrum._SEED_STEPS)
    dense = []
    count_roots(_recorded(delta, dense), rect, cuts=cuts, known=seeds[ok])
    assert sum(b.size for b in dense) - points["phase"] > points["first"]


def test_a_pair_the_first_moments_miss_is_certified_through_the_dense_rung(monkeypatch):
    # nu = j = 1 at a = 1.04: the cell [6.5, 12.5] holds a conjugate pair,
    # and the moments of its phase samples of Delta / Delta_0 point at two
    # real numbers, where a real Delta keeps the secant real.  Only the
    # densified samples' moments point at the pair; the ratio's phase
    # samples lie far apart, so the densification must bound their
    # spacing as well as the steps of log Delta.
    pair = (6.987 - 1.5878j, 6.987 + 1.5878j)
    delta = _member_deltas(1.04, 1, 0.0)[1]
    counted, points, pointers = _staged(monkeypatch, delta)
    spec = compute_spectrum(counted, 1, 1, 20)
    assert spec.certified_count == 21
    lams = spec.lambdas()
    for want in pair:
        assert np.min(np.abs(lams - want)) < 1e-4
    center = 0.5 * (6.5 + 12.5)

    def pointed(rung):
        return [p for c, found in pointers[rung] if abs(c - center) < 1e-9 for p in found]

    first, second = pointed("first"), pointed("second")
    assert first and all(abs(p.imag) < 1e-6 for p in first)
    assert points["dense"] > 0 and points["second"] > 0
    assert len(second) == 2 and all(min(abs(p - w) for w in pair) < 0.3 for p in second)
    # count_roots keeps its contract: its moments come from dense samples of Delta
    cell = count_roots(delta, (complex(6.5, -10.0), complex(12.5, 10.0)))
    found = spectrum._hankel_roots(cell.moments[0], [], cell.counts[0])
    assert cell.counts == (2,) and all(min(abs(p - w) for w in pair) < 0.3 for p in found)


def test_the_first_moments_of_the_ratio_find_the_default_members_pair(monkeypatch):
    # nu = j = 1 at the default delay: the pair 13.683 +- 1.157i in the
    # cell [12.5, 20.5] is found on the first rung, with no dense samples
    pair = (13.6833 - 1.157j, 13.6833 + 1.157j)
    counted, points, pointers = _staged(monkeypatch, _member_deltas(A, 1, 0.0)[1])
    spec = compute_spectrum(counted, 1, 1, 20)
    assert spec.certified_count == 21
    for want in pair:
        assert np.min(np.abs(spec.lambdas() - want)) < 1e-4
    first = [p for c, found in pointers["first"] if abs(c - 16.5) < 1e-9 for p in found]
    assert len(first) == 2 and all(min(abs(p - w) for w in pair) < 0.6 for p in first)
    assert "dense" not in points and "second" not in points


def _ratio_counts_agree(delta, nu, j, n_max):
    spec = compute_spectrum(delta, nu, j, n_max)
    rect, cuts = _rectangle(nu, j, n_max)
    ratio = spectrum._Sampling(delta, rect, cuts, spectrum._Free(nu, j))
    plain = count_roots(delta, rect, cuts=cuts, known=spec.lambdas())
    assert ratio.xs == list(plain.walls)
    assert tuple(ratio.counts) == plain.counts, (nu, j)
    assert sum(plain.counts) == spec.certified_count


@pytest.mark.parametrize("a", [0.15, 0.4, 0.6, 0.9, 1.0, 1.04])
def test_counts_on_the_ratio_match_count_roots_on_delta(a):
    # the cells counted on Delta / Delta_0, with the zeros of Delta_0 added
    # back, hold as many roots as count_roots finds on Delta itself
    alpha = 2.0 + 3.0j
    for nu in (0, 1):
        q, setup = _member_q(a, nu, alpha), DelaySetup(a=a, nu=nu)
        for j, closed in enumerate(_member_deltas(a, nu, alpha)):
            _ratio_counts_agree(closed, nu, j, 20)
            _ratio_counts_agree(lambda lam, j=j: delta_direct(q, setup, j, lam), nu, j, 20)


def test_counts_on_the_ratio_match_count_roots_on_delta_at_n_max_60():
    for nu in (0, 1):
        for j, delta in enumerate(_member_deltas(A, nu, 0.0)):
            _ratio_counts_agree(delta, nu, j, 60)


def test_free_delta_vanishes_at_its_zeros():
    for nu in (0, 1):
        for j in (0, 1):
            free = spectrum._Free(nu, j)
            zeros = free.zeros(30)
            assert np.all(np.diff(zeros) > 0) and zeros[0] == (0.25 if nu != j else 1.0 - nu)
            assert np.max(np.abs(free(zeros)) / (1.0 + zeros)) < 1e-12
            # no other zero: the phase of Delta_0 on a loop around the
            # first 30 zeros turns 30 times
            cells = count_roots(free, (complex(-3.0, -1.0), complex(0.5 * (zeros[-1] + free.zeros(31)[-1]), 1.0)))
            assert cells.counts == (30,)


def test_a_root_on_a_wall_moves_the_wall_off_it(monkeypatch):
    # (nu, j) = (0, 1) with Delta = cos(pi sqrt(lam)) (lam - 4.25) / (lam - 6.25):
    # the root 4.25 lies on the cut between the seeds 2.25 and 6.25, where
    # a sample of the wall's Delta / Delta_0 hits it, and the zero of
    # Delta_0 at 6.25 is no root.  cos(pi rho) / (rho - 5/2) is written
    # -pi sinc(rho - 5/2), so Delta is finite at 6.25.
    def delta(z):
        z = np.asarray(z, dtype=complex)
        rho = np.sqrt(z)
        return -np.pi * np.sinc(rho - 2.5) * (z - 4.25) / (rho + 2.5)

    made = []
    init = spectrum._Sampling.__init__

    def recorded(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spectrum._Sampling, "__init__", recorded)
    spec = compute_spectrum(delta, 0, 1, 5)
    assert spec.certified_count == 5
    assert np.max(np.abs(spec.lambdas() - np.array([0.25, 2.25, 4.25, 12.25, 20.25]))) < 1e-9
    sampling = made[0]
    assert sampling.moves >= 1 and sampling.xs[2] < 4.25


def test_residuals_are_delta_at_the_listed_roots():
    # a residual is |Delta| where the root's polish stopped, bit for bit
    # what a call on that point alone returns, on both routes
    alpha = 2.0 + 3.0j
    q, setup = _member_q(A, 1, alpha), DelaySetup(a=A, nu=1)
    closed = _member_deltas(A, 1, alpha)[0]
    direct = lambda lam: delta_direct(q, setup, 0, lam)
    for delta in (closed, direct):
        spec = compute_spectrum(delta, 1, 0, 6)
        assert spec.certified_count == 6
        for entry in spec.entries:
            assert entry.residual == abs(complex(delta(np.array([entry.lam]))[0]))


def test_census_finds_the_cell_of_a_point_by_bisection():
    # the cells of a census are disjoint in Re and sorted; the bisection
    # must pick the cell a scan over all of them picks
    census = spectrum._Census(_s, 1e-10)
    walls = (-4.0, 0.5, 2.5, 6.5, 12.5)
    census.add(spectrum.CellCounts(walls, (-10.0, 10.0), (1, 1, 1, 1), (None,) * 4))
    census.add(spectrum.CellCounts((-9.0, -4.0), (-10.1, 10.1), (0,), (None,)))
    rng = np.random.default_rng(3)
    points = rng.uniform(-10.0, 14.0, 400) + 1j * rng.uniform(-10.2, 10.2, 400)
    points = np.concatenate([points, np.array(walls) + 0j, [-9.0 + 10.05j, -4.0 + 10.05j]])
    for lam in points:
        scan = [
            k
            for k, c in enumerate(census.cells)
            if c.x0 <= lam.real < c.x1 and c.y0 <= lam.imag <= c.y1
        ]
        assert census.cell_of(lam) == (scan[0] if scan else None)


def test_cell_counts_do_not_depend_on_the_initial_sampling(monkeypatch):
    # the member the benchmark's spectra workload draws for its seed 11
    alpha = complex(*np.random.default_rng(11).uniform(-3.0, 3.0, 2))
    for nu, j in ((0, 0), (1, 0), (1, 1)):
        delta = _member_deltas(A, nu, alpha)[j]
        rect, cuts = _rectangle(nu, j, 20)
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_EDGE_STEP", spectrum._EDGE_STEP / 2)
            m.setattr(spectrum, "_MIN_INTERVALS", 2 * spectrum._MIN_INTERVALS)
            doubled = count_roots(delta, rect, cuts=cuts).counts
        cells = count_roots(delta, rect, cuts=cuts)
        assert cells.counts == doubled
        assert sum(cells.counts) == compute_spectrum(delta, nu, j, 20).certified_count


def _entries(lams):
    return [SpectrumEntry(k + 1, complex(l), 0.0) for k, l in enumerate(lams)]


def test_spectrum_container_gates():
    good = Spectrum(_entries([1.0, 4.0]), 6.5, 10.0, 2)
    assert np.array_equal(good.lambdas(), np.array([1.0, 4.0], dtype=complex))
    with pytest.raises(DomainError):
        Spectrum(_entries([1.0, 4.0]), 6.5, 10.0, 3)  # count mismatch
    with pytest.raises(DomainError):
        Spectrum(_entries([4.0, 1.0]), 6.5, 10.0, 2)  # misordered
    bad_index = [SpectrumEntry(2, 1.0 + 0.0j, 0.0)]
    with pytest.raises(DomainError):
        Spectrum(bad_index, 6.5, 10.0, 1)
    sloppy = [SpectrumEntry(1, 1.0 + 0.0j, 1e-3)]
    with pytest.raises(DomainError):
        Spectrum(sloppy, 6.5, 10.0, 1)


def test_conjugate_pairs_order_by_imaginary_part():
    lams = [2.0 - 1.0j, 2.0 + 1.0j, 9.0 + 0.0j]
    spec = Spectrum(_entries(lams), 12.0, 10.0, 3)
    assert spec.entries[0].lam.imag < spec.entries[1].lam.imag
    flipped = [SpectrumEntry(1, 2.0 + 1.0j, 0.0), SpectrumEntry(2, 2.0 - 1.0j, 0.0)]
    with pytest.raises(DomainError):
        Spectrum(flipped, 12.0, 10.0, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50.0, 400.0), st.floats(0.0, 10.0), st.integers(0, 4)
        ),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_root_order_ignores_the_input_order(pairs, rnd):
    # conjugate pairs whose real parts differ by a few ulps
    roots = []
    for re, im, ulps in pairs:
        roots += [complex(re, im), complex(re + ulps * np.spacing(re), -im)]
    order = _root_order(roots)
    shuffled = list(roots)
    rnd.shuffle(shuffled)
    assert _root_order(shuffled) == order
    Spectrum(_entries(order), 400.0, 10.0, len(order))


def test_a_chain_of_real_ties_wider_than_the_tolerance_is_accepted():
    # real parts 6e-8 apart chain into one group spanning 1.2e-7, more
    # than the tie tolerance near 0; the container accepts the order the
    # roots are put in, ends of the chain included
    d = 5.960464477539063e-08
    order = _root_order([0j, 0j, complex(d, 0.0), complex(d, 0.0), complex(-d, 1.0), complex(-d, -1.0)])
    assert [lam.imag for lam in order] == [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    Spectrum(_entries(order), 400.0, 10.0, len(order))


def test_csv_rendering():
    spec = Spectrum(_entries([1.0, 2.0 + 0.5j]), 6.5, 10.0, 2)
    text = spec.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "n,re_lambda,im_lambda,residual"
    assert len(lines) == 3
    assert lines[1].startswith("1,1,0,")


def test_compare_basics():
    spec = compute_spectrum(_s, 0, 0, 4)
    assert compare(spec, spec) == 0.0
    other = compute_spectrum(_s, 0, 0, 3)
    with pytest.raises(PreconditionError):
        compare(spec, other)


def test_refinement_matches_bisection_on_a_perturbed_problem():
    def bump(x):
        inside = (x > A) & (x < 3 * A)
        return np.where(inside, np.sin(np.pi * (x - A) / (2 * A)) ** 2, 0.0)

    q = sample_function(bump, grid_breakpoints(A, 0.0, np.pi), 129)
    data, _ = build_w(q, DelaySetup(a=A, nu=0, segment_nodes=129))
    delta = lambda z: delta_closed(data, z)
    lo, hi = 0.5, 1.5
    flo = delta(lo).real
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = delta(mid).real
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    assert abs(refine_root(delta, 1.0) - 0.5 * (lo + hi)) < 1e-8


def test_family_member_spectrum_end_to_end():
    member = build_member(*_seed_pair(RunConfig(a=A, nu=1)), nu=1, alpha=1.0, a=A)
    data, _ = build_w(member.q, DelaySetup(a=A, nu=1))
    spec = compute_spectrum(lambda z: delta_closed(data, z), 1, 0, 20)
    assert spec.certified_count == len(spec.entries) == 20
    lams = spec.lambdas()
    for entry in spec.entries:
        assert entry.residual <= 1e-8 * (1 + abs(entry.lam))
    # real potential: nonreal roots arrive in conjugate pairs
    complex_roots = [l for l in lams if abs(l.imag) > 1e-8]
    unmatched = list(complex_roots)
    for l in complex_roots:
        if l.imag > 0:
            mates = [m for m in unmatched if abs(m - np.conj(l)) < 1e-6 * (1 + abs(l))]
            assert mates, f"no conjugate mate for {l}"
    # high modes drift from the free guesses no faster than 1/n in rho;
    # low entries include complex pairs whose by-order match is loose,
    # so the decay is read off the tail envelope
    guesses = np.sqrt(np.array(initial_guesses(1, 0, 20), dtype=complex))
    rho = np.sqrt(lams)
    dev = np.abs(rho - guesses)
    env = np.maximum.accumulate(dev[::-1])[::-1]
    assert env[9] < 0.6 * env[4]
    assert env[14] <= env[9]
    assert np.max(dev[9:] * np.arange(10, 21)) < 3.0
