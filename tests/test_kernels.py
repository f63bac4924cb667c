"""The two trigonometric kernels and their parameter derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import DomainError, ckernel, kernel_dlambda, kernel_pair, skernel
from delaysl.kernels import SERIES_THRESHOLD


def test_known_values():
    assert ckernel(0.0, np.pi) == pytest.approx(1.0, abs=1e-15)
    assert ckernel(4.0, np.pi) == pytest.approx(1.0, abs=1e-14)
    assert ckernel(-1.0, 1.0) == pytest.approx(np.cosh(1.0), abs=1e-14)
    assert skernel(0.0, np.pi) == pytest.approx(np.pi, abs=1e-15)
    assert skernel(4.0, np.pi / 2) == pytest.approx(0.0, abs=1e-14)
    lam = 1e-8
    assert skernel(lam, 1.0) == pytest.approx(
        1.0 - lam / 6.0 + lam**2 / 120.0, abs=1e-14
    )


def test_value_is_independent_of_the_root_branch():
    rng = np.random.default_rng(2)
    lam = rng.uniform(-50.0, 400.0, 30) + 1j * rng.uniform(-4.0, 4.0, 30)
    x = rng.uniform(0.1, np.pi, 30)
    rho = np.sqrt(lam.astype(complex))
    for r in (rho, -rho):
        assert np.max(np.abs(ckernel(lam, x) - np.cos(r * x))) < 1e-10
        assert np.max(np.abs(skernel(lam, x) - np.sin(r * x) / r)) < 1e-10


def test_series_branch_matches_closed_form_at_the_switch():
    # |lam| x^2 just below the series threshold exercises the series path
    for lam in (9.9e-4, -9.9e-4, 1e-3 - 1e-12, (0.5 + 0.8j) * 1e-3):
        rho = np.sqrt(complex(lam))
        assert abs(ckernel(lam, 1.0) - np.cos(rho)) < 1e-13
        assert abs(skernel(lam, 1.0) - np.sin(rho) / rho) < 1e-13


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-3, 4.0), phase=st.floats(-np.pi, np.pi))
def test_kernels_are_continuous_across_the_series_switch(x, phase):
    # |lam| x^2 a relative 1e-12 below and above SERIES_THRESHOLD: the
    # series on one side, the closed form on the other; the kernels move
    # by ~1e-15 over that step
    edge = SERIES_THRESHOLD / x**2 * np.exp(1j * phase)
    below, above = edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)
    assert np.abs(below) * x**2 < SERIES_THRESHOLD <= np.abs(above) * x**2
    assert abs(ckernel(below, x) - ckernel(above, x)) <= 1e-14
    assert abs(skernel(below, x) - skernel(above, x)) <= 1e-14 * x


def test_kernel_pair_is_the_two_kernels_bit_for_bit():
    # points on both sides of the series switch, lambda = 0, and a 2-D broadcast
    x = np.array([0.0, 0.3, 1.0, np.pi])
    lam = np.concatenate(
        [
            [0.0, 1e-9, -1e-9j],
            SERIES_THRESHOLD * np.array([0.999, 1.001, -0.999, -1.001, 0.999j, 1.001j]),
            [2.5, -40.0, 3.0 + 2.0j, 4000.0],
        ]
    )
    c, s = kernel_pair(lam[:, None], x[None, :])
    assert np.array_equal(c, ckernel(lam[:, None], x[None, :]))
    assert np.array_equal(s, skernel(lam[:, None], x[None, :]))
    small = np.abs(lam[:, None]) * x[None, :] ** 2 < SERIES_THRESHOLD
    assert np.any(small) and np.any(~small)
    for lam0, x0 in ((0.0, 1.0), (2.5, 0.7)):
        pair = kernel_pair(lam0, x0)
        assert pair[0] == ckernel(lam0, x0) and pair[1] == skernel(lam0, x0)
        assert np.ndim(pair[0]) == 0


def test_product_to_sum_identities():
    rng = np.random.default_rng(17)
    lam = rng.uniform(-4.0, 400.0, 60) + 1j * rng.uniform(-1.0, 1.0, 60)
    d = rng.uniform(0.0, np.pi, 60) - rng.uniform(0.0, np.pi, 60)
    xi = rng.uniform(0.0, np.pi, 60)
    r0 = skernel(lam, d) * ckernel(lam, xi) - 0.5 * (
        skernel(lam, d + xi) + skernel(lam, d - xi)
    )
    assert np.max(np.abs(r0)) < 1e-10
    keep = np.abs(lam) >= 1e-3
    lam, d, xi = lam[keep], d[keep], xi[keep]
    r1 = skernel(lam, d) * skernel(lam, xi) - 0.5 / lam * (
        ckernel(lam, d - xi) - ckernel(lam, d + xi)
    )
    assert np.max(np.abs(r1)) < 1e-10


def test_x_derivatives_by_finite_differences():
    rng = np.random.default_rng(23)
    lam = rng.uniform(-20.0, 300.0, 20) + 1j * rng.uniform(-2.0, 2.0, 20)
    x = rng.uniform(0.2, np.pi - 0.2, 20)
    h = 1e-6
    dc = (ckernel(lam, x + h) - ckernel(lam, x - h)) / (2.0 * h)
    ds = (skernel(lam, x + h) - skernel(lam, x - h)) / (2.0 * h)
    assert np.max(np.abs(dc + lam * skernel(lam, x))) < 1e-8 * (1.0 + np.max(np.abs(lam)))
    assert np.max(np.abs(ds - ckernel(lam, x))) < 1e-8


def test_lambda_derivative_known_values():
    assert kernel_dlambda(0.0, 1.0, "c") == pytest.approx(-0.5, abs=1e-14)
    assert kernel_dlambda(0.0, 1.0, "s") == pytest.approx(-1.0 / 6.0, abs=1e-14)
    assert kernel_dlambda(4.0, np.pi, "c") == pytest.approx(0.0, abs=1e-14)
    assert kernel_dlambda(4.0, np.pi, "s") == pytest.approx(np.pi / 8.0, abs=1e-14)


def test_lambda_derivative_matches_finite_differences():
    rng = np.random.default_rng(31)
    lam = rng.uniform(-20.0, 300.0, 20) + 1j * rng.uniform(-2.0, 2.0, 20)
    x = rng.uniform(0.2, np.pi, 20)
    h = 1e-5 * (1.0 + np.abs(lam))
    for kind, fn in (("c", ckernel), ("s", skernel)):
        fd = (fn(lam + h, x) - fn(lam - h, x)) / (2.0 * h)
        have = kernel_dlambda(lam, x, kind)
        assert np.max(np.abs(have - fd) / (1.0 + np.abs(fd))) < 1e-6


def test_lambda_derivative_is_smooth_through_zero():
    x = 1.3
    for kind in ("c", "s"):
        lo = kernel_dlambda(-1e-9, x, kind)
        mid = kernel_dlambda(0.0, x, kind)
        hi = kernel_dlambda(1e-9, x, kind)
        assert abs(hi + lo - 2.0 * mid) < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        kernel_dlambda(1.0, 1.0, "x")
