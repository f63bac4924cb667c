"""Acceptance suite: nine end-to-end checks of the package's analytic claims.

Each test prints one pass/fail line with the measured worst case and the
tolerance it was held to.  The suite runs at the default delay a = pi/4
on the default 513-node grid and covers: the seed eigenpair, the closed
series terms, both characteristic-function routes, alpha-invariance of
the weight, isospectrality of both families, the zero-mean negative
control, the classical baseline, and numerical hygiene.
"""

import math
import warnings

import numpy as np
import pytest

from delaysl import (
    DelaySetup,
    FredholmOperator,
    apply,
    apply_discrete,
    build_member,
    build_w,
    compare,
    compute_spectrum,
    delta_closed,
    delta_direct,
    eigenpairs,
    grid_breakpoints,
    integrate,
    omega_of_member,
    reference_pair,
    sample_function,
    series_term,
    y1_closed,
    y2_closed,
)
from delaysl.cli import RunConfig, _classical_values, _seed_pair

A = math.pi / 4.0
NODES = 513
ALPHAS = (0.0 + 0.0j, 1.0 + 0.0j, -2.0 + 0.0j, 2.0 + 3.0j)

# 60 real points through the first twenty eigenvalues plus 10 off-axis ones
LAMBDA_GRID = np.concatenate(
    [
        np.linspace(-20.0, 400.0, 60),
        np.linspace(-10.0, 390.0, 10)
        + 5.0j * np.where(np.arange(10) % 2 == 0, 1.0, -1.0),
    ]
)


def _gate(num, label, worst, tol, note=""):
    state = "PASS" if worst <= tol else "FAIL"
    line = f"criterion {num} ({label}): {state}, worst {worst:.3e}, tol {tol:.0e}{note}"
    print(line)
    assert worst <= tol, line


def _gate_above(num, label, value, floor, note=""):
    state = "PASS" if value > floor else "FAIL"
    line = f"criterion {num} ({label}): {state}, measured {value:.3e}, floor {floor:.0e}{note}"
    print(line)
    assert value > floor, line


@pytest.fixture(scope="module")
def seeds():
    return {nu: _seed_pair(RunConfig(a=A, nu=nu)) for nu in (0, 1)}


@pytest.fixture(scope="module")
def setups():
    return {nu: DelaySetup(a=A, nu=nu, segment_nodes=NODES) for nu in (0, 1)}


@pytest.fixture(scope="module")
def members(seeds):
    out = {}
    for nu in (0, 1):
        h, eta, e = seeds[nu]
        for k, alpha in enumerate(ALPHAS):
            out[(nu, k)] = build_member(h, eta, e, nu, alpha, A)
    return out


@pytest.fixture(scope="module")
def chardatas(members, setups):
    return {key: build_w(member.q, setups[key[0]]) for key, member in members.items()}


@pytest.fixture(scope="module")
def member_spectra(chardatas):
    out = {}
    for (nu, k), datas in chardatas.items():
        for j in (0, 1):
            out[(nu, k, j)] = compute_spectrum(
                lambda lam, data=datas[j]: delta_closed(data, lam), nu, j, 20
            )
    return out


def test_criterion_1_seed_eigenpair():
    h, e = reference_pair(A)
    op = FredholmOperator(A, h)
    worst = 0.0
    for image in (apply(op, e), apply_discrete(op, e, 256)):
        gap = np.abs(image.all_samples() + e.values(image.nodes()))
        worst = max(worst, float(np.max(gap)))
    mean = abs(complex(integrate(e, 1.5 * A, 2.0 * A)))
    assert mean <= 1e-10, f"eigenfunction mean {mean:.3e} exceeds 1e-10"
    _gate(1, "seed eigenpair", worst, 1e-6, f", mean {mean:.1e} (tol 1e-10)")


def test_criterion_2_closed_series_terms(members):
    rng = np.random.default_rng(2)
    worst_series = 0.0
    worst_fd = 0.0
    pairs = 0
    for nu in (0, 1):
        q = members[(nu, 1)].q
        su = DelaySetup(a=A, nu=nu, segment_nodes=NODES)

        # snap the x draws to trace nodes so the derivative stencil below
        # reads exact samples instead of interpolated ones
        probe = y1_closed(q, su, 1.0 + 0.0j)
        nodes = probe.y.nodes()
        dx = float(nodes[1] - nodes[0])
        xs = [
            float(nodes[np.argmin(np.abs(nodes - x))])
            for x in rng.uniform(2.0 * A + 0.05, math.pi - 0.05, 3)
        ]
        lams = [
            complex(z)
            for z in rng.uniform(-20.0, 395.0, 3) + 1j * rng.uniform(-4.0, 4.0, 3)
        ]
        points = [(x, lam) for lam in lams for x in xs]
        points.append((xs[0], 2.5e-4 + 0.0j))
        pairs += len(points)

        # one y2_closed call per x, for every lambda drawn there
        y2s = {}
        for x in xs:
            at_x = [lam for px, lam in points if px == x]
            for lam, pair in zip(at_x, zip(*y2_closed(q, su, np.array(at_x), x))):
                y2s[x, lam] = pair
        by_lam = {
            lam: (
                y1_closed(q, su, lam),
                series_term(q, su, 1, lam),
                series_term(q, su, 2, lam),
            )
            for lam in {lam for _, lam in points}
        }

        def rel(have, want):
            return abs(have - want) / (1.0 + abs(want))

        for x, lam in points:
            tr, s1, s2 = by_lam[lam]
            y2, y2p = y2s[x, lam]
            worst_series = max(
                worst_series,
                rel(complex(tr.y.values(x)), complex(s1.y.values(x))),
                rel(complex(tr.yprime.values(x)), complex(s1.yprime.values(x))),
                rel(y2, complex(s2.y.values(x))),
                rel(y2p, complex(s2.yprime.values(x))),
            )
            stencil = (
                -tr.y.values(x + 2.0 * dx)
                + 8.0 * tr.y.values(x + dx)
                - 8.0 * tr.y.values(x - dx)
                + tr.y.values(x - 2.0 * dx)
            ) / (12.0 * dx)
            worst_fd = max(worst_fd, rel(complex(stencil), complex(tr.yprime.values(x))))

        # second-term derivative against a plain central difference; the
        # kernel is rebuilt at x +/- h, so this is one check per family
        x0, lam0 = xs[0], lams[0]
        h = 3e-6
        vp, _ = y2_closed(q, su, lam0, x0 + h)
        vm, _ = y2_closed(q, su, lam0, x0 - h)
        _, want = y2s[x0, lam0]
        worst_fd = max(worst_fd, rel((vp - vm) / (2.0 * h), want))

    assert pairs == 20
    worst = max(worst_series, worst_fd)
    _gate(
        2,
        "closed series terms",
        worst,
        1e-7,
        f", series {worst_series:.1e}, finite diff {worst_fd:.1e}, 20 points",
    )


def test_criterion_3_char_function_routes(members, chardatas, setups):
    worst = 0.0
    worst_omega = 0.0
    for (nu, k), member in members.items():
        datas = chardatas[(nu, k)]
        for j in (0, 1):
            dc = delta_closed(datas[j], LAMBDA_GRID)
            dd = delta_direct(member.q, setups[nu], j, LAMBDA_GRID)
            worst = max(worst, float(np.max(np.abs(dc - dd) / (1.0 + np.abs(dd)))))
        if nu == 0:
            # w vanishes beyond its carrier, so its full-line integral is
            # the integral over its own span
            w = datas[0].w
            gap = abs(complex(datas[0].omega) - complex(integrate(w, w.lo, w.hi)))
            worst_omega = max(worst_omega, gap)
    assert worst_omega <= 1e-9, f"omega vs integral of w: {worst_omega:.3e}"
    _gate(
        3,
        "char function routes",
        worst,
        1e-6,
        f", omega identity {worst_omega:.1e} (tol 1e-9), 8 members x 2 conditions",
    )


def test_criterion_4_weight_alpha_invariance(chardatas):
    worst = 0.0
    for nu in (0, 1):
        base = chardatas[(nu, 0)][0].w.all_samples()
        for k in range(1, len(ALPHAS)):
            other = chardatas[(nu, k)][0].w.all_samples()
            worst = max(worst, float(np.max(np.abs(other - base))))
    _gate(4, "weight alpha invariance", worst, 1e-8, ", pointwise over 4 alphas")


def test_criterion_5_isospectral_family_nu0(member_spectra):
    worst = 0.0
    for j in (0, 1):
        base = member_spectra[(0, 0, j)]
        for k in range(len(ALPHAS)):
            s = member_spectra[(0, k, j)]
            assert s.certified_count == 20, f"nu=0 j={j} alpha {k} certified {s.certified_count}"
            assert len(s.entries) == 20
            if k:
                worst = max(worst, float(compare(base, s)))
    _gate(5, "isospectral family nu=0", worst, 1e-6, ", 20 certified per run")


def test_criterion_6_isospectral_family_nu1(member_spectra):
    worst = 0.0
    for j in (0, 1):
        # the j=1 characteristic function has one extra low eigenvalue
        # near -1.82 below the n^2 ladder; certification counts it too
        expected = 21 if j == 1 else 20
        base = member_spectra[(1, 0, j)]
        for k in range(len(ALPHAS)):
            s = member_spectra[(1, k, j)]
            assert s.certified_count == expected
            assert len(s.entries) == expected
            if k:
                worst = max(worst, float(compare(base, s)))
    _gate(6, "isospectral family nu=1", worst, 1e-6, ", 20(+1) certified per run")


def test_criterion_7_zero_mean_negative_control(seeds, members, member_spectra, setups):
    h, eta, e = seeds[1]
    shifted_e = e.shift_values(0.5)
    with pytest.warns(UserWarning, match="nonzero mean"):
        at_zero = build_member(h, eta, shifted_e, 1, 0.0, A, check_pair=False)
        at_one = build_member(h, eta, shifted_e, 1, 1.0, A, check_pair=False)

    # alpha = 0 kills every perturbation branch, so the shifted seed
    # reproduces the genuine member exactly and its spectra can be reused
    same = float(np.max(np.abs(at_zero.q.all_samples() - members[(1, 0)].q.all_samples())))
    assert same == 0.0

    omega_gap = abs(complex(omega_of_member(at_one)) - complex(omega_of_member(at_zero)))
    datas = build_w(at_one.q, setups[1])
    worst_shift = 0.0
    for j in (0, 1):
        s = compute_spectrum(lambda lam, data=datas[j]: delta_closed(data, lam), 1, j, 20)
        lam = s.lambdas()
        base = member_spectra[(1, 0, j)].lambdas()
        n = min(len(lam), len(base))
        worst_shift = max(
            worst_shift,
            float(np.max(np.abs(lam[:n] - base[:n]) / (1.0 + np.abs(base[:n])))),
        )
    assert omega_gap > 1e-3, f"omega spread {omega_gap:.3e} not above 1e-3"
    _gate_above(
        7,
        "zero-mean negative control",
        worst_shift,
        1e-4,
        f", omega spread {omega_gap:.1e} (floor 1e-3)",
    )


def test_criterion_8_classical_baseline(setups):
    zero_q = sample_function(
        lambda x: np.zeros_like(x, dtype=complex),
        grid_breakpoints(A, 0.0, math.pi),
        NODES,
    )
    worst = 0.0
    for nu in (0, 1):
        datas = build_w(zero_q, setups[nu])
        for j in (0, 1):
            s = compute_spectrum(
                lambda lam, data=datas[j]: delta_closed(data, lam), nu, j, 20
            )
            lam = s.lambdas()
            want = _classical_values(nu, j, len(lam))
            assert len(lam) == (21 if (nu, j) == (1, 1) else 20)
            worst = max(worst, float(np.max(np.abs(lam - want))))
    _gate(8, "classical baseline", worst, 1e-10, ", n^2 and (n-1/2)^2 ladders, n <= 20")


def test_criterion_9_numerics_hygiene(chardatas):
    # composite quadrature must converge at fourth order
    target = math.sin(6.0) / 3.0
    errs = []
    for n in (17, 33, 65, 129):
        fn = sample_function(lambda x: np.cos(3.0 * x), [0.0, 2.0], n)
        errs.append(abs(complex(integrate(fn, 0.0, 2.0)) - target))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    quad_order = min(orders)
    assert quad_order >= 3.5, f"quadrature orders {orders}"

    # Nystrom eigenvalue either gains a decade per doubling or sits at
    # the 1e-10 floor already; here it reaches the floor immediately
    h, _ = reference_pair(A)
    op = FredholmOperator(A, h)
    eig_errs = []
    for n in (16, 32, 64, 128, 256):
        best = min(eigenpairs(op, n, count=4), key=lambda p: abs(p.eta + 1.0))
        eig_errs.append(abs(complex(best.eta) + 1.0))
    for k in range(len(eig_errs) - 1):
        allowed = max(eig_errs[k] / 10.0, 1e-10)
        assert eig_errs[k + 1] <= allowed, f"Nystrom errors {eig_errs}"
    assert eig_errs[-1] <= 1e-10, f"Nystrom final error {eig_errs[-1]:.3e}"

    # the characteristic functions are smooth through lambda = 0, probed
    # with a symmetric second difference at eps = 1e-6
    eps = 1e-6
    worst_cont = 0.0
    for nu in (0, 1):
        for j in (0, 1):
            vals = delta_closed(chardatas[(nu, 1)][j], np.array([eps, -eps, 0.0]))
            worst_cont = max(worst_cont, abs(vals[0] + vals[1] - 2.0 * vals[2]))
    _gate(
        9,
        "numerics hygiene",
        worst_cont,
        1e-8,
        f", quad order {quad_order:.2f}, Nystrom floor {eig_errs[-1]:.1e}",
    )
