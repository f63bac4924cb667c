"""Integral operator, its discretizations, and the analytic witness pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import (
    DomainError,
    EigenPair,
    FredholmOperator,
    NoEigenvaluesError,
    PreconditionError,
    apply,
    apply_discrete,
    eigenpairs,
    integrate,
    nystrom,
    project,
    reference_pair,
    sample_function,
    zero_mean,
)
from delaysl import fredholm

A = np.pi / 4


def _witness():
    h, e = reference_pair(A)
    return FredholmOperator(A, h), h, e


def test_operator_validation():
    h, _ = reference_pair(A)
    with pytest.raises(PreconditionError):
        FredholmOperator(1.2, h)
    wrong_span = sample_function(np.cos, [2 * A, 3 * A], 65)
    with pytest.raises(PreconditionError):
        FredholmOperator(A, wrong_span)
    complex_h = sample_function(lambda x: 1j * np.ones_like(x), [5 * A / 2, 3 * A], 65)
    with pytest.raises(PreconditionError):
        FredholmOperator(A, complex_h)


def test_tail_integral_shape():
    op, h, _ = _witness()
    total = integrate(h, 5 * A / 2, 3 * A)
    assert abs(op.kernel_values(3 * A)) < 1e-12
    assert abs(op.kernel_values(3.2 * A)) == 0.0
    for s in (3 * A / 2 + 0.05, 2 * A, 5 * A / 2 - 0.01):
        assert abs(op.kernel_values(s) - total) < 1e-12
    lo = op.kernel_values(5 * A / 2 - 1e-8)
    hi = op.kernel_values(5 * A / 2 + 1e-8)
    assert abs(lo - hi) < 1e-5  # continuous where the density starts


def test_witness_values():
    _, h, e = _witness()
    assert e.values(3 * A / 2) == pytest.approx(2.0, abs=1e-12)
    assert e.values(7 * A / 4) == pytest.approx(-1.0, abs=1e-12)
    assert abs(integrate(e, 3 * A / 2, 2 * A)) < 1e-10
    assert h.values(3 * A) == pytest.approx(6.0 * np.pi**2 / A**2, abs=1e-9)
    with pytest.raises(PreconditionError):
        reference_pair(1.2)


def test_witness_is_an_eigenpair_of_minus_one():
    op, _, e = _witness()
    image = apply(op, e)
    gap = np.max(np.abs(image.values(e.nodes()) + e.all_samples()))
    assert gap < 1e-6 * np.max(np.abs(e.all_samples()))


def test_negated_density_flips_the_eigenvalue():
    _, h, e = _witness()
    op = FredholmOperator(A, (-1.0) * h)
    image = apply(op, e)
    gap = np.max(np.abs(image.values(e.nodes()) - e.all_samples()))
    assert gap < 1e-6 * np.max(np.abs(e.all_samples()))


def test_apply_validates_the_argument_span():
    op, _, _ = _witness()
    f = sample_function(np.sin, [0.0, 1.0], 65)
    with pytest.raises(PreconditionError):
        apply(op, f)


def test_mode_matrix_is_exactly_symmetric():
    op, _, _ = _witness()
    M = nystrom(op, 32)
    assert np.array_equal(M, M.T)
    assert M.shape == (32, 32)
    with pytest.raises(PreconditionError):
        nystrom(op, 8)
    with pytest.raises(PreconditionError, match="n >= 16"):
        nystrom(op, 15)


def _collapsed_gauss(op, n):
    """The mode matrix by a collapsed Gauss rule in (s, r), the oracle.

    The outer rule runs over s = x + t - a/2 on the density's support,
    the inner one across the window x in (3a/2, s - a); both are exact
    for the polynomial factor, which has degree at most 2n - 1 in s.
    """
    a = op.a

    def basis(x):
        xi = (x - 1.75 * a) / (0.25 * a)
        scale = np.sqrt(2.0 * (2.0 * np.arange(n) + 1.0) / a)
        return np.polynomial.legendre.legvander(xi, n - 1).T * scale[:, None]

    sxi, swt = np.polynomial.legendre.leggauss(2 * n + 32)
    s = 2.75 * a + 0.25 * a * sxi
    sw = 0.25 * a * swt * op.kernel_values(s).real
    rxi, rwt = np.polynomial.legendre.leggauss(n + 2)
    half = 0.5 * (s - 2.5 * a)
    x = (0.5 * s + 0.25 * a)[:, None] + half[:, None] * rxi[None, :]
    w = (sw * half)[:, None] * rwt[None, :]
    left = basis(x.ravel())
    right = basis((s[:, None] + 0.5 * a - x).ravel())
    M = (left * w.ravel()) @ right.T
    return 0.5 * (M + M.T)


def _oracle_gap(op, n):
    have = nystrom(op, n)
    want = _collapsed_gauss(op, n)
    return float(np.max(np.abs(have - want))), float(np.max(np.abs(want)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [16, 24, 40, 64])
def test_mode_matrix_matches_the_collapsed_gauss_rule(n):
    op, _, _ = _witness()
    gap, size = _oracle_gap(op, n)
    assert gap <= 1e-12 * size


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [0.3, 1.04])
def test_mode_matrix_matches_the_oracle_at_other_delays(a):
    h, _ = reference_pair(a)
    gap, size = _oracle_gap(FredholmOperator(a, h), 40)
    assert gap <= 1e-12 * size


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_mode_matrix_stays_finite():
    # run above the diagonal, the recurrence overflows from about n = 512
    op, _, e = _witness()
    M = nystrom(op, 512)
    assert np.all(np.isfinite(M))
    c = project(op, e, 512)
    assert np.max(np.abs(M @ c + c)) < 1e-9 * np.max(np.abs(c))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    n=st.sampled_from([16, 17, 31]),
)
def test_mode_matrix_of_polynomial_densities(coeffs, n):
    # a cubic density is sampled exactly, so K is a quartic on its support
    h = sample_function(
        lambda x: np.polynomial.polynomial.polyval((x - 2.75 * A) / (0.25 * A), coeffs),
        [2.5 * A, 3.0 * A],
        33,
    )
    op = FredholmOperator(A, h)
    M = nystrom(op, n)
    assert np.array_equal(M, M.T)
    gap, size = _oracle_gap(op, n)
    assert gap <= 1e-12 * size


def test_mode_matrix_reproduces_the_witness():
    op, _, e = _witness()
    M = nystrom(op, 48)
    c = project(op, e, 48)
    assert np.max(np.abs(M @ c + c)) < 1e-9 * np.max(np.abs(c))


def test_discrete_apply_matches_direct_quadrature():
    op, _, e = _witness()
    direct = apply(op, e)
    discrete = apply_discrete(op, e, 64)
    gap = np.max(np.abs(direct.all_samples() - discrete.all_samples()))
    assert gap < 1e-8


def test_eigenpairs_find_the_witness():
    op, _, e = _witness()
    pairs = eigenpairs(op, 64, count=8)
    assert all(p.residual <= 1e-6 for p in pairs)
    assert abs(pairs[0].eta) >= abs(pairs[-1].eta)
    best = min(pairs, key=lambda p: abs(p.eta + 1.0))
    assert abs(best.eta + 1.0) < 1e-6
    want = e.values(best.e.nodes()) / 2.0  # sup-normalized witness, positive lead
    assert np.max(np.abs(best.e.all_samples() - want)) < 1e-5


def test_eigenpairs_are_deterministic():
    op, _, _ = _witness()
    first = eigenpairs(op, 32, count=4)
    second = eigenpairs(op, 32, count=4)
    for p, q in zip(first, second):
        assert p.eta == q.eta
        assert np.array_equal(p.e.all_samples(), q.e.all_samples())


def test_eigenpair_gates():
    _, _, e = _witness()
    with pytest.raises(DomainError):
        EigenPair(0.0, e, 0.0)
    with pytest.raises(DomainError):
        EigenPair(-1.0, e, 1e-3)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_plus_minus_pair_lists_plus_first(n, sign):
    # the witness's +-1 pair has moduli ~1e-15 apart, in either order
    # across n and the density's sign; the listing order stays fixed
    _, h, _ = _witness()
    etas = [p.eta for p in eigenpairs(FredholmOperator(A, sign * h), n, count=3)]
    assert etas[0] == pytest.approx(1.0, abs=1e-9)
    assert etas[1] == pytest.approx(-1.0, abs=1e-9)
    assert abs(etas[2]) < 0.5


def test_gauss_nodes_are_computed_once_and_read_only():
    xi, wt = fredholm._gauss(40)
    assert fredholm._gauss(40)[0] is xi
    assert not xi.flags.writeable and not wt.flags.writeable
    want_xi, want_wt = np.polynomial.legendre.leggauss(40)
    assert np.array_equal(xi, want_xi) and np.array_equal(wt, want_wt)


def test_zero_density_has_no_eigenvalues():
    flat = sample_function(lambda x: np.zeros_like(x), [5 * A / 2, 3 * A], 65)
    op = FredholmOperator(A, flat)
    with pytest.raises(NoEigenvaluesError):
        eigenpairs(op, 16)


def test_eigenvalue_squares_sum_to_the_kernel_mass():
    op, _, _ = _witness()
    M = nystrom(op, 256)
    have = float(np.sum(np.linalg.eigvalsh(M) ** 2))
    n = 400
    edges = np.linspace(3 * A / 2, 2 * A, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    cell = edges[1] - edges[0]
    kk = op.kernel_values((mid[:, None] + mid[None, :] - A / 2).ravel()).reshape(n, n)
    want = float(np.sum(np.abs(kk) ** 2)) * cell * cell
    assert abs(have - want) < 0.01 * want


def test_zero_mean_classification():
    _, _, e = _witness()
    assert zero_mean(e)
    const = sample_function(lambda x: np.ones_like(x), [3 * A / 2, 2 * A], 65)
    assert not zero_mean(const)
    assert not zero_mean(e.shift_values(0.1))
