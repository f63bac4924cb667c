"""Batch front end: verification suites and file-producing computations.

Five subcommands share one JSON config: ``verify`` runs the identity
suite and reports residuals, ``family`` writes the potential family to
CSV, ``fredholm`` solves the seed eigenproblem, ``spectrum`` computes
the zero-potential baseline spectra, and ``isospec`` demonstrates that
every family member carries the same two spectra, cross-validated
between the closed-form and stepping-solver characteristic functions.

All file output is deterministic: floats are written with 17
significant digits and complex numbers as [re, im] pairs, so identical
configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .charfn import build_w, delta_closed, delta_direct
from .delay_solver import (
    PI,
    DelaySetup,
    _series_terms,
    _zero_on,
    y1_closed,
    y2_closed,
)
from .errors import DelaySLError, DomainError, PreconditionError
from .family import bridge_integral, build_member, omega_of_member, w_of_member
from .fredholm import (
    MIN_MODES,
    FredholmOperator,
    apply,
    apply_discrete,
    eigenpairs,
    reference_pair,
    zero_mean,
)
from .gridfn import integrate, write_csv
from .kernels import ckernel, skernel
from .spectrum import _Free, compare, compute_spectrum

__all__ = [
    "GridConfig",
    "SpectrumConfig",
    "RunConfig",
    "load_config",
    "cmd_verify",
    "cmd_family",
    "cmd_fredholm",
    "cmd_spectrum",
    "cmd_isospec",
    "main",
]

_DEMO_ALPHAS = (0.0 + 0.0j, 1.0 + 0.0j, -2.0 + 0.0j, 2.0 + 3.0j)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GridConfig:
    segment_nodes: int = 513
    steps_per_a: int = 0

    def __post_init__(self):
        n = self.segment_nodes
        if n < 3 or n % 2 == 0:
            raise PreconditionError(f"segment_nodes must be odd and >= 3, got {n}")
        if self.steps_per_a < 0:
            raise PreconditionError("steps_per_a must be >= 0 (0 means automatic)")


@dataclass(frozen=True)
class SpectrumConfig:
    n_max: int = 20
    newton_tol: float = 1e-10
    im_window: float = 10.0

    def __post_init__(self):
        if self.n_max < 1:
            raise PreconditionError(f"n_max must be >= 1, got {self.n_max}")
        if not self.newton_tol > 0.0:
            raise PreconditionError("newton_tol must be positive")
        if not self.im_window > 0.0:
            raise PreconditionError("im_window must be positive")


@dataclass(frozen=True)
class RunConfig:
    """One self-contained run description, shared by every subcommand."""

    a: float = PI / 4.0
    nu: int = 1
    alphas: tuple = _DEMO_ALPHAS
    grid: GridConfig = field(default_factory=GridConfig)
    nystrom_n: int = 256
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.a < PI / 3.0:
            raise PreconditionError(
                f"the family construction needs a in (0, pi/3), got a = {self.a}"
            )
        if self.nu not in (0, 1):
            raise PreconditionError(f"nu must be 0 or 1, got {self.nu}")
        if not self.alphas:
            raise PreconditionError("alphas must not be empty")
        if self.nystrom_n < MIN_MODES:
            raise PreconditionError(f"nystrom_n must be >= {MIN_MODES}, got {self.nystrom_n}")
        if self.seed < 0:
            raise PreconditionError("seed must be a nonnegative integer")
        object.__setattr__(self, "alphas", tuple(complex(al) for al in self.alphas))


def _finite_number(value) -> bool:
    """A JSON int or float of finite value; bools and strings are not numbers here."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _as_complex(value, what: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(_finite_number(u) for u in parts):
        raise PreconditionError(f"{what} must be a finite number or [re, im] pair, got {value!r}")
    return complex(*parts)


def _as_int(value, what: str) -> int:
    """A JSON integer, or a float with no fractional part."""
    if not (_finite_number(value) and value == int(value)):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, what: str) -> float:
    if not _finite_number(value):
        raise PreconditionError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _take(raw: dict, known: dict, what: str) -> dict:
    unknown = set(raw) - set(known)
    if unknown:
        raise PreconditionError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    return {k: conv(raw[k], f"{what} field {k}") for k, conv in known.items() if k in raw}


def load_config(path=None) -> RunConfig:
    """RunConfig from a JSON file; None or missing fields mean defaults."""
    raw = {}
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise PreconditionError("config must be a JSON object")
    grid = {"segment_nodes": _as_int, "steps_per_a": _as_int}
    spectrum = {"n_max": _as_int, "newton_tol": _as_float, "im_window": _as_float}
    fields = _take(
        raw,
        {
            "a": _as_float,
            "nu": _as_int,
            "alphas": lambda v, _: tuple(_as_complex(u, "alpha") for u in v),
            "grid": lambda v, _: GridConfig(**_take(v, grid, "grid")),
            "nystrom_n": _as_int,
            "spectrum": lambda v, _: SpectrumConfig(**_take(v, spectrum, "spectrum")),
            "seed": _as_int,
        },
        "config",
    )
    return RunConfig(**fields)


def _setup(config: RunConfig) -> DelaySetup:
    return DelaySetup(
        a=config.a,
        nu=config.nu,
        segment_nodes=config.grid.segment_nodes,
        steps_per_delay=config.grid.steps_per_a,
    )


def _seed_pair(config: RunConfig):
    """Kernel seed (h, eta, e) for the configured nu.

    The reference pair satisfies M_h e = -e; negating h flips the
    eigenvalue sign, which is exactly what the nu = 0 construction
    needs.
    """
    h, e = reference_pair(config.a)
    if config.nu == 0:
        return h.map_samples(lambda s, x: -s), 1.0, e
    return h, -1.0, e


# ---------------------------------------------------------------------------
# deterministic JSON


def _fnum(x: float) -> str:
    if not np.isfinite(x):
        return json.dumps(repr(x))
    return format(x, ".17g")


def _render(value, pad: str = "") -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, pad + "  ")}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        parts = [_render(v, pad + "  ") for v in value]
        flat = "[" + ", ".join(parts) + "]"
        if len(flat) + len(pad) <= 100 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(pad + "  " + p for p in parts) + "\n" + pad + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fnum(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_fnum(value.real)}, {_fnum(value.imag)}]"
    raise DomainError(f"cannot serialize a {type(value).__name__} into a report")


def _write_report(out: Path, name: str, report: dict) -> None:
    (out / name).write_text(_render(report) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# verify

def _run_check(checks: list, name: str, tol: float, fn) -> None:
    try:
        worst = float(fn())
        entry = {
            "check_name": name,
            "max_residual": worst,
            "tolerance": tol,
            "pass": bool(worst <= tol),
        }
    except DelaySLError as exc:
        entry = {
            "check_name": name,
            "max_residual": float("inf"),
            "tolerance": tol,
            "pass": False,
            "error": str(exc),
        }
    checks.append(entry)


def _kernel_identity_worst(seed: int) -> float:
    """Largest residual of the product-to-sum relation at random points.

    S(lam, d) C(lam, xi) = (S(lam, d + xi) + S(lam, d - xi)) / 2 and
    S(lam, d) S(lam, xi) = (C(lam, d - xi) - C(lam, d + xi)) / (2 lam);
    the second is checked away from lam = 0 where it divides by lam.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-4.0, 400.0, 48) + 1j * rng.uniform(-1.0, 1.0, 48)
    d = rng.uniform(0.0, PI, 48) - rng.uniform(0.0, PI, 48)
    xi = rng.uniform(0.0, PI, 48)
    r0 = skernel(lam, d) * ckernel(lam, xi) - 0.5 * (
        skernel(lam, d + xi) + skernel(lam, d - xi)
    )
    keep = np.abs(lam) >= 1e-3
    lamk, dk, xik = lam[keep], d[keep], xi[keep]
    r1 = skernel(lamk, dk) * skernel(lamk, xik) - 0.5 / lamk * (
        ckernel(lamk, dk - xik) - ckernel(lamk, dk + xik)
    )
    return max(float(np.max(np.abs(r0))), float(np.max(np.abs(r1))))


def _draw_points(config: RunConfig, x_lo: float):
    """Three x in (x_lo + 0.05, pi - 0.05) and two lambda, which do not depend on x_lo."""
    rng = np.random.default_rng(config.seed + 1)
    xs = rng.uniform(x_lo + 0.05, PI - 0.05, 3)
    lams = rng.uniform(4.0, 380.0, 2) + 1j * rng.uniform(-3.0, 3.0, 2)
    return xs, lams


def _series_samples(config: RunConfig, q) -> dict:
    """Series terms 1 and 2 where the closed-form checks read them, one pass per series.

    Keyed by (nu, index of the lambda of ``_draw_points``): term 1's y
    and y' at the x of the first-term check, and term 2's (y, y') at
    each x of the second-term check.  A term whose building raised holds
    the error instead.  Only the samples are kept, not the terms.
    """
    xs1, lams = _draw_points(config, 2.0 * config.a)
    xs2, _ = _draw_points(config, 2.5 * config.a)
    table = {}
    for nu in (0, 1):
        su = DelaySetup(a=config.a, nu=nu, segment_nodes=config.grid.segment_nodes)
        for i, lam in enumerate(lams):
            got = []
            try:
                terms = _series_terms(q, su, complex(lam))
                next(terms)  # term 0, the kernels
                term = next(terms)
                got.append((term.y.values(xs1), term.yprime.values(xs1)))
                term = next(terms)
                got.append(
                    [
                        (complex(term.y.values(float(x))), complex(term.yprime.values(float(x))))
                        for x in xs2
                    ]
                )
            except DelaySLError as exc:
                got += [exc] * (2 - len(got))
            table[nu, i] = got
    return table


def _samples(series: dict, nu: int, i: int, k: int):
    """Term k's (1 or 2) entry of ``_series_samples``; raises the error that building it raised."""
    got = series[nu, i][k - 1]
    if isinstance(got, Exception):
        raise got
    return got


def _first_term_worst(config: RunConfig, q, series: dict) -> float:
    xs, lams = _draw_points(config, 2.0 * config.a)
    worst = 0.0
    for nu in (0, 1):
        su = DelaySetup(a=config.a, nu=nu, segment_nodes=config.grid.segment_nodes)
        for i, lam in enumerate(lams):
            wants = _samples(series, nu, i, 1)
            clo = y1_closed(q, su, complex(lam))
            for have, wv in zip((clo.y, clo.yprime), wants):
                hv = have.values(xs)
                worst = max(worst, float(np.max(np.abs(hv - wv) / (1.0 + np.abs(wv)))))
    return worst


def _second_term_worst(config: RunConfig, q, series: dict) -> float:
    # a family member vanishes on (a, 3a/2), so P(x, .) is identically
    # zero for x <= 5a/2 and the closed form would only check 0 = 0 there
    xs, lams = _draw_points(config, 2.5 * config.a)
    worst = 0.0
    # x outside nu: P's inner lattice correlation does not depend on nu,
    # and the one kept from the nu = 0 call serves the nu = 1 call
    for k, x in enumerate(xs):
        for nu in (0, 1):
            su = DelaySetup(a=config.a, nu=nu, segment_nodes=config.grid.segment_nodes)
            have = y2_closed(q, su, lams, float(x))
            for i in range(len(lams)):
                for h, w in zip(have, _samples(series, nu, i, 2)[k]):
                    worst = max(worst, abs(h[i] - w) / (1.0 + abs(w)))
    return worst


def _char_route_worst(config: RunConfig, member) -> float:
    setup = _setup(config)
    datas = build_w(member.q, setup)
    grid = np.concatenate(
        [np.linspace(-15.0, 390.0, 9), np.array([2.0 + 2.0j, 50.0 - 3.0j, 0.0])]
    )
    worst = 0.0
    for j in (0, 1):
        dc = delta_closed(datas[j], grid)
        dd = delta_direct(member.q, setup, j, grid)
        worst = max(worst, float(np.max(np.abs(dc - dd) / (1.0 + np.abs(dd)))))
    return worst


def _weight_invariance_worst(config: RunConfig, h, eta, e) -> float:
    samples = []
    for al in config.alphas:
        member = build_member(h, eta, e, config.nu, al, config.a)
        samples.append(w_of_member(member).all_samples())
    base = samples[0]
    scale = 1.0 + float(np.max(np.abs(base)))
    worst = 0.0
    for other in samples[1:]:
        worst = max(worst, float(np.max(np.abs(other - base))))
    return worst / scale


def _eigenpair_worst(config: RunConfig, h, eta, e, tamper: float) -> float:
    hh = h if tamper == 1.0 else h.map_samples(lambda s, x: tamper * s)
    op = FredholmOperator(config.a, hh)
    worst = 0.0
    for image in (apply(op, e), apply_discrete(op, e, config.nystrom_n)):
        gap = np.abs(image.all_samples() - eta * e.values(image.nodes()))
        worst = max(worst, float(np.max(gap)))
    return worst


def cmd_verify(config: RunConfig, out: Path, *, tamper: float = 1.0) -> int:
    """Run the identity suite and write verify_report.json.

    ``tamper`` scales the kernel seed inside the eigenpair check only;
    anything but 1.0 must make that check fail, which is how the suite
    demonstrates it can detect a broken seed.
    """
    h, eta, e = _seed_pair(config)
    member = build_member(h, eta, e, config.nu, 1.0, config.a)
    series = _series_samples(config, member.q)
    checks = []
    for name, tol, check in (
        ("kernel_addition_identity", 1e-10, lambda: _kernel_identity_worst(config.seed)),
        ("first_term_closed_form", 1e-7, lambda: _first_term_worst(config, member.q, series)),
        ("second_term_closed_form", 1e-7, lambda: _second_term_worst(config, member.q, series)),
        ("char_direct_vs_closed", 1e-6, lambda: _char_route_worst(config, member)),
        ("weight_alpha_invariance", 1e-8, lambda: _weight_invariance_worst(config, h, eta, e)),
        ("eigenpair_residual", 1e-6, lambda: _eigenpair_worst(config, h, eta, e, tamper)),
        (
            "eigenfunction_zero_mean",
            1e-10,
            lambda: abs(complex(integrate(e, 1.5 * config.a, 2.0 * config.a))),
        ),
        ("bridge_integral_vanishes", 1e-8, lambda: abs(complex(bridge_integral(member)))),
    ):
        _run_check(checks, name, tol, check)
    ok = all(c["pass"] for c in checks)
    report = {"a": config.a, "nu": config.nu, "seed": config.seed, "checks": checks, "pass": ok}
    _write_report(out, "verify_report.json", report)
    for c in checks:
        state = "pass" if c["pass"] else "FAIL"
        line = f"{c['check_name']:<28} {state}  max residual {c['max_residual']:.3e} (tol {c['tolerance']:.1e})"
        if "error" in c:
            line += f"  [{c['error']}]"
        print(line)
    print(f"verify: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# family


def cmd_family(config: RunConfig, out: Path, *, shift_e: float = 0.0) -> int:
    """Write one potential CSV per alpha plus a manifest.

    ``shift_e`` adds a constant to the eigenfunction before building,
    breaking the zero-mean condition on purpose; the manifest's omega
    column then stops being constant, which is the negative control for
    the whole construction.
    """
    h, eta, e = _seed_pair(config)
    if shift_e != 0.0:
        e = e.map_samples(lambda s, x: s + shift_e)
    files = []
    omegas = []
    for k, al in enumerate(config.alphas):
        member = build_member(h, eta, e, config.nu, al, config.a, check_pair=shift_e == 0.0)
        name = f"potential_{k:02d}.csv"
        write_csv(member.q, out / name)
        files.append(name)
        omegas.append(complex(omega_of_member(member)))
    manifest = {
        "a": config.a,
        "nu": config.nu,
        "alphas": list(config.alphas),
        "omega_per_alpha": omegas,
        "zero_mean_flag": bool(zero_mean(e)),
        "files": files,
    }
    _write_report(out, "family_manifest.json", manifest)
    spread = max(abs(om - omegas[0]) for om in omegas)
    print(f"family: wrote {len(files)} potentials, omega spread {spread:.3e}")
    return 0


# ---------------------------------------------------------------------------
# fredholm


def cmd_fredholm(config: RunConfig, out: Path) -> int:
    """Solve the seed eigenproblem and report how well it matches."""
    h, eta, e = _seed_pair(config)
    op = FredholmOperator(config.a, h)
    pairs = eigenpairs(op, config.nystrom_n, count=8)
    best = min(pairs, key=lambda p: abs(p.eta - eta))
    gap = abs(complex(best.eta) - eta)
    ok = gap <= 1e-6 and best.residual <= 1e-6
    report = {
        "a": config.a,
        "nu": config.nu,
        "nystrom_n": config.nystrom_n,
        "etas": [complex(p.eta) for p in pairs],
        "target_eta": complex(eta),
        "matched_eta": complex(best.eta),
        "eta_gap": float(gap),
        "pair_residual": float(best.residual),
        "zero_mean": bool(zero_mean(e)),
        "pass": ok,
    }
    _write_report(out, "fredholm_report.json", report)
    print(
        f"fredholm: eta gap {gap:.3e}, pair residual {best.residual:.3e} "
        f"({'pass' if ok else 'FAIL'})"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# spectrum and isospec


_BASELINE_TOL = 1e-10  # largest gap of a zero-potential spectrum to its n^2 law


def _spectrum(config: RunConfig, delta, j: int):
    return compute_spectrum(
        delta,
        config.nu,
        j,
        config.spectrum.n_max,
        tol=config.spectrum.newton_tol,
        im_window=config.spectrum.im_window,
    )


def _baseline(config: RunConfig, spectrum):
    """Zero-potential spectra j = 0, 1 and their gaps to the n^2 laws.

    ``spectrum(name, delta, j)`` computes one spectrum, or returns None
    when the caller has recorded a failure; that j is then skipped.
    Yields (j, spectrum, gap, gap within _BASELINE_TOL).
    """
    setup = _setup(config)
    datas = build_w(_zero_on(setup), setup)
    for j in (0, 1):
        s = spectrum(f"baseline_j{j}", lambda lam, data=datas[j]: delta_closed(data, lam), j)
        if s is None:
            continue
        lams = s.lambdas()
        gap = float(np.max(np.abs(lams - _Free(config.nu, j).zeros(len(lams)))))
        yield j, s, gap, gap <= _BASELINE_TOL


def cmd_spectrum(config: RunConfig, out: Path) -> int:
    """Baseline spectra of the zero potential, checked against n^2 laws."""
    sections = {}
    ok = True
    for j, s, gap, good in _baseline(config, lambda name, delta, j: _spectrum(config, delta, j)):
        (out / f"spectrum_j{j}.csv").write_text(s.to_csv(), encoding="utf-8")
        ok = ok and good
        sections[f"j{j}"] = {
            "entries": len(s.entries),
            "certified": s.certified_count,
            "max_abs_gap_classical": gap,
            "pass": good,
        }
        print(f"spectrum j={j}: {len(s.entries)} certified entries, classical gap {gap:.3e}")
    report = {"a": config.a, "nu": config.nu, "n_max": config.spectrum.n_max, **sections, "pass": ok}
    _write_report(out, "spectrum_report.json", report)
    return 0 if ok else 1


def cmd_isospec(config: RunConfig, out: Path) -> int:
    """Spectra of every family member by both routes, pairwise compared.

    Each member gets four spectra (j = 0, 1; closed-form and stepping
    solver).  The report carries closed-vs-direct gaps per member and
    alpha-invariance gaps against the first alpha, plus the classical
    zero-potential baseline.
    """
    h, eta, e = _seed_pair(config)
    setup = _setup(config)
    spectra = []
    comparisons = []
    computed = {}

    def one_spectrum(name, delta, j):
        try:
            s = _spectrum(config, delta, j)
        except DelaySLError as exc:
            spectra.append({"name": name, "pass": False, "error": str(exc)})
            return None
        spectra.append(
            {"name": name, "entries": len(s.entries), "certified": s.certified_count, "pass": True}
        )
        return s

    def one_compare(name, s1, s2, tol, key):
        if s1 is None or s2 is None:
            return
        try:
            d = float(compare(s1, s2))
            entry = {"name": name, key: d, "tolerance": tol, "pass": bool(d <= tol)}
        except DelaySLError as exc:
            entry = {"name": name, "tolerance": tol, "pass": False, "error": str(exc)}
        comparisons.append(entry)

    for k, al in enumerate(config.alphas):
        member = build_member(h, eta, e, config.nu, al, config.a)
        datas = build_w(member.q, setup)
        for j in (0, 1):
            closed = one_spectrum(
                f"alpha{k}_j{j}_closed",
                lambda lam, data=datas[j]: delta_closed(data, lam),
                j,
            )
            direct = one_spectrum(
                f"alpha{k}_j{j}_direct",
                lambda lam, q=member.q, j=j: delta_direct(q, setup, j, lam),
                j,
            )
            computed[(k, j, "closed")] = closed
            one_compare(
                f"alpha{k}_j{j}_closed_vs_direct", closed, direct, 1e-6, "max_rel_diff"
            )
    for j in (0, 1):
        for k in range(1, len(config.alphas)):
            one_compare(
                f"j{j}_alpha{k}_vs_alpha0",
                computed.get((0, j, "closed")),
                computed.get((k, j, "closed")),
                1e-6,
                "max_rel_diff",
            )

    for j, _, gap, good in _baseline(config, one_spectrum):
        comparisons.append(
            {
                "name": f"baseline_classical_j{j}",
                "max_abs_diff": gap,
                "tolerance": _BASELINE_TOL,
                "pass": good,
            }
        )

    ok = all(entry["pass"] for entry in spectra + comparisons)
    report = {
        "a": config.a,
        "nu": config.nu,
        "alphas": list(config.alphas),
        "n_max": config.spectrum.n_max,
        "spectra": spectra,
        "comparisons": comparisons,
        "pass": ok,
    }
    _write_report(out, "isospec_report.json", report)
    for c in comparisons:
        value = c.get("max_rel_diff", c.get("max_abs_diff"))
        shown = "error" if value is None else f"{value:.3e}"
        print(f"{c['name']:<34} {'pass' if c['pass'] else 'FAIL'}  {shown}")
    print(f"isospec: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaysl",
        description="Verification and computation runs for delayed Sturm-Liouville spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verify", "run the identity suite"),
        ("family", "write the potential family as CSV files"),
        ("fredholm", "solve the seed eigenproblem"),
        ("spectrum", "compute the zero-potential baseline spectra"),
        ("isospec", "compare member spectra across alpha and across routes"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON config file (defaults apply)")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    command = {
        "verify": cmd_verify,
        "family": cmd_family,
        "fredholm": cmd_fredholm,
        "spectrum": cmd_spectrum,
        "isospec": cmd_isospec,
    }[args.command]
    try:
        return command(config, out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
