"""The two trigonometric kernels and their parameter derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysl import ckernel, kernel_pair, sample_function, skernel
from delaysl.kernels import SERIES_THRESHOLD, _WeightRule


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


def test_maclaurin_coefficients_are_complex_floats():
    # the rule's series divides by factorials up to 24!, past int64 from
    # 21! on: divided by Python ints the coefficients are an object array,
    # divided part by part by floats they are complex128 of equal values
    f = sample_function(lambda t: np.exp(1j * t) * (1.0 + t), [0.5, 1.5, 2.5], 9)
    rule = _WeightRule(f, 3.0, 2.0)
    for kind in ("c", "s", "ss"):
        mu, order = rule._series_moments(kind)
        want = mu / [math.factorial(k) for k in order]
        have = rule._series_coefficients(kind)
        assert have.dtype == np.complex128 and want.dtype == object
        assert np.array_equal(have, want.astype(complex))
