"""Config handling, report writing, and exit codes of the command line driver."""

import dataclasses
import json
import math

import pytest

from delaysl.cli import (
    GridConfig,
    RunConfig,
    SpectrumConfig,
    _eigenpair_worst,
    _seed_pair,
    _write_report,
    cmd_family,
    cmd_fredholm,
    cmd_isospec,
    cmd_spectrum,
    cmd_verify,
    load_config,
    main,
)
from delaysl import cli, delay_solver, errors
from delaysl.errors import (
    ContourError,
    DomainError,
    IncompleteSpectrumError,
    NoEigenvaluesError,
    PreconditionError,
)
from delaysl.family import build_member

CHECK_NAMES = [
    "kernel_addition_identity",
    "first_term_closed_form",
    "second_term_closed_form",
    "char_direct_vs_closed",
    "weight_alpha_invariance",
    "eigenpair_residual",
    "eigenfunction_zero_mean",
    "bridge_integral_vanishes",
]


def _small(**over):
    """Default config trimmed down so a command finishes in seconds."""
    cfg = load_config(None)
    cfg = dataclasses.replace(
        cfg,
        alphas=(0.0 + 0.0j, 1.0 + 0.0j),
        grid=dataclasses.replace(cfg.grid, segment_nodes=129),
        nystrom_n=96,
    )
    return dataclasses.replace(cfg, **over) if over else cfg


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_defaults():
    cfg = load_config(None)
    assert cfg.a == pytest.approx(math.pi / 4.0)
    assert cfg.nu == 1
    assert cfg.alphas == (0.0 + 0.0j, 1.0 + 0.0j, -2.0 + 0.0j, 2.0 + 3.0j)
    assert cfg.grid == GridConfig(segment_nodes=513, steps_per_a=0)
    assert cfg.nystrom_n == 256
    assert cfg.spectrum == SpectrumConfig(n_max=20, newton_tol=1e-10, im_window=10.0)
    assert cfg.seed == 0


def test_config_file_round_trip(tmp_path):
    raw = {
        "a": 0.7,
        "nu": 0,
        "alphas": [0.5, [1.0, 2.0]],
        "grid": {"segment_nodes": 129, "steps_per_a": 64},
        "nystrom_n": 64,
        "spectrum": {"n_max": 3, "newton_tol": 1e-9, "im_window": 4.0},
        "seed": 7,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.a == 0.7
    assert cfg.nu == 0
    assert cfg.alphas == (0.5 + 0.0j, 1.0 + 2.0j)
    assert cfg.grid == GridConfig(segment_nodes=129, steps_per_a=64)
    assert cfg.nystrom_n == 64
    assert cfg.spectrum == SpectrumConfig(n_max=3, newton_tol=1e-9, im_window=4.0)
    assert cfg.seed == 7


def test_config_rejects_unknown_fields(tmp_path):
    for raw, msg in (
        ({"alpha": 3}, "unknown config field"),
        ({"grid": {"nodes": 5}}, "unknown grid field"),
        ({"spectrum": {"count": 2}}, "unknown spectrum field"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(PreconditionError, match=msg):
            load_config(path)


def test_config_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(PreconditionError, match="JSON object"):
        load_config(path)


def test_alpha_entries_must_be_numbers(tmp_path):
    path = tmp_path / "alphas.json"
    for bad in ([True], ["one"], [[1.0, 2.0, 3.0]]):
        path.write_text(json.dumps({"alphas": bad}), encoding="utf-8")
        with pytest.raises(PreconditionError, match="number or \\[re, im\\] pair"):
            load_config(path)


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"seed": 1.7}, "config field seed "),
        ({"nu": True}, "config field nu "),
        ({"grid": {"segment_nodes": 129.9}}, "grid field segment_nodes "),
        ({"spectrum": {"n_max": 3.5}}, "spectrum field n_max "),
        ({"a": "0.5"}, "config field a "),
        ({"spectrum": {"newton_tol": float("inf")}}, "spectrum field newton_tol "),
        ({"alphas": [1.0, [0.0, float("nan")]]}, "alpha must be a finite number"),
    ],
)
def test_config_refuses_values_it_would_coerce(tmp_path, capsys, raw, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(PreconditionError, match=field):
        load_config(path)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err


def test_config_converts_integral_floats_and_integers(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"seed": 2.0, "a": 1, "spectrum": {"im_window": 3}}), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 2 and type(cfg.seed) is int
    assert cfg.a == 1.0 and type(cfg.a) is float
    assert cfg.spectrum.im_window == 3.0 and type(cfg.spectrum.im_window) is float


def test_config_gates():
    with pytest.raises(PreconditionError, match="got a = 1.2"):
        RunConfig(a=1.2)
    with pytest.raises(PreconditionError, match="nu must be 0 or 1"):
        RunConfig(nu=2)
    with pytest.raises(PreconditionError, match="alphas must not be empty"):
        RunConfig(alphas=())
    with pytest.raises(PreconditionError, match="nystrom_n"):
        RunConfig(nystrom_n=1)
    with pytest.raises(PreconditionError, match="nystrom_n must be >= 16, got 15"):
        RunConfig(nystrom_n=15)
    assert RunConfig(nystrom_n=16).nystrom_n == 16
    with pytest.raises(PreconditionError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(PreconditionError, match="segment_nodes must be odd"):
        GridConfig(segment_nodes=4)
    with pytest.raises(PreconditionError, match="steps_per_a"):
        GridConfig(steps_per_a=-1)
    with pytest.raises(PreconditionError, match="n_max must be >= 1"):
        SpectrumConfig(n_max=0)


def test_report_serialization(tmp_path):
    report = {
        "z": 1.0 + 2.0j,
        "items": [1, 2.5, True, "s"],
        "empty": {},
        "nan": float("nan"),
    }
    _write_report(tmp_path, "r.json", report)
    data = _json(tmp_path / "r.json")
    assert data["z"] == [1.0, 2.0]
    assert data["items"] == [1, 2.5, True, "s"]
    assert data["empty"] == {}
    assert data["nan"] == "nan"
    with pytest.raises(DomainError, match="cannot serialize"):
        _write_report(tmp_path, "bad.json", {"v": {1, 2}})


def test_main_config_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err

    bad.write_text(json.dumps({"a": 1.2}), encoding="utf-8")
    assert main(["spectrum", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "pi/3" in err


def test_main_runs_family_end_to_end(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"alphas": [0.0, 1.0], "grid": {"segment_nodes": 129}}),
        encoding="utf-8",
    )
    out = tmp_path / "deep" / "runs"
    rc = main(["family", "--config", str(cfg_path), "--out", str(out), "--seed", "3"])
    assert rc == 0
    manifest = _json(out / "family_manifest.json")
    assert manifest["files"] == ["potential_00.csv", "potential_01.csv"]
    assert (out / "potential_01.csv").exists()


def test_verify_small_grid_passes(tmp_path, capsys):
    rc = cmd_verify(_small(), tmp_path)
    assert rc == 0
    report = _json(tmp_path / "verify_report.json")
    assert report["pass"] is True
    assert [c["check_name"] for c in report["checks"]] == CHECK_NAMES
    for check in report["checks"]:
        assert check["pass"] is True
        assert check["max_residual"] <= check["tolerance"]
    assert "verify: pass" in capsys.readouterr().out


def test_verify_flags_tampered_seed(tmp_path, monkeypatch, capsys):
    cfg = _small()
    h, eta, e = _seed_pair(cfg)
    assert _eigenpair_worst(cfg, h, eta, e, 1.0) <= 1e-6
    assert _eigenpair_worst(cfg, h, eta, e, 1.01) > 1e-6

    # Stub the two slow checks that tampering cannot touch; the eigenpair
    # check itself still runs the real computation.
    monkeypatch.setattr("delaysl.cli._second_term_worst", lambda config, q, series: 0.0)
    monkeypatch.setattr(
        "delaysl.cli._weight_invariance_worst", lambda config, h, eta, e: 0.0
    )
    rc = cmd_verify(cfg, tmp_path, tamper=1.01)
    assert rc == 1
    report = _json(tmp_path / "verify_report.json")
    assert report["pass"] is False
    failing = [c["check_name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["eigenpair_residual"]
    assert "verify: FAIL" in capsys.readouterr().out



def test_verify_builds_each_series_once_and_reports_its_errors(monkeypatch):
    # terms 1 and 2 of the series come from one pass per (nu, lambda) and
    # serve both closed-form checks; a term whose building raises is an
    # error in each check that reads it
    cfg = _small()
    h, eta, e = _seed_pair(cfg)
    q = build_member(h, eta, e, cfg.nu, 1.0, cfg.a).q
    real = cli._series_terms
    passes = []

    def counted(q, su, lam):
        passes.append((su.nu, lam))
        return real(q, su, lam)

    monkeypatch.setattr(cli, "_series_terms", counted)
    series = cli._series_samples(cfg, q)
    assert len(passes) == len(set(passes)) == 4
    assert cli._first_term_worst(cfg, q, series) <= 1e-7

    def failing_after(count):
        def terms(q, su, lam):
            built = real(q, su, lam)
            for _ in range(count):
                yield next(built)
            raise DomainError("no term here")

        return terms

    for count, errors in ((2, [False, True]), (1, [True, True])):
        monkeypatch.setattr(cli, "_series_terms", failing_after(count))
        series = cli._series_samples(cfg, q)
        checks = []
        cli._run_check(checks, "first", 1e-7, lambda: cli._first_term_worst(cfg, q, series))
        cli._run_check(checks, "second", 1e-7, lambda: cli._second_term_worst(cfg, q, series))
        assert ["error" in c for c in checks] == errors
        assert all(c["error"] == "no term here" for c in checks if "error" in c)

def test_second_term_check_shares_the_inner_correlation_of_both_nu(monkeypatch):
    # at the default config the check runs one lattice correlation per x,
    # 3 in all, not one per (x, nu)
    cfg = RunConfig()
    h, eta, e = _seed_pair(cfg)
    q = build_member(h, eta, e, cfg.nu, 1.0, cfg.a).q
    series = cli._series_samples(cfg, q)
    real = delay_solver.lattice_product_integrals
    calls = []
    monkeypatch.setattr(
        delay_solver,
        "lattice_product_integrals",
        lambda *args: calls.append(args[-2]) or real(*args),
    )
    delay_solver._inner_lattice.cache_clear()
    assert cli._second_term_worst(cfg, q, series) <= 1e-7
    assert len(calls) == len(set(calls)) == 3


def _twice(command, cfg, tmp_path):
    """Run a command into two fresh directories, check both hold the same bytes, list the files."""
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        out.mkdir()
        assert command(cfg, out) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    return names


def test_family_deterministic(tmp_path):
    names = _twice(cmd_family, _small(), tmp_path)
    assert names == ["family_manifest.json", "potential_00.csv", "potential_01.csv"]
    manifest = _json(tmp_path / "one" / "family_manifest.json")
    assert manifest["zero_mean_flag"] is True
    omegas = [complex(re, im) for re, im in manifest["omega_per_alpha"]]
    assert abs(omegas[1] - omegas[0]) <= 1e-9


@pytest.mark.parametrize(
    "command, files",
    [
        (cmd_spectrum, ["spectrum_j0.csv", "spectrum_j1.csv", "spectrum_report.json"]),
        (cmd_isospec, ["isospec_report.json"]),
        (cmd_verify, ["verify_report.json"]),
    ],
    ids=["spectrum", "isospec", "verify"],
)
def test_reports_deterministic(tmp_path, command, files):
    assert _twice(command, _small(), tmp_path) == files


def test_family_shifted_seed_changes_omega(tmp_path):
    cfg = _small()
    with pytest.warns(UserWarning, match="nonzero mean"):
        assert cmd_family(cfg, tmp_path, shift_e=0.5) == 0
    manifest = _json(tmp_path / "family_manifest.json")
    assert manifest["zero_mean_flag"] is False
    omegas = [complex(re, im) for re, im in manifest["omega_per_alpha"]]
    assert abs(omegas[1] - omegas[0]) > 1e-3


def test_fredholm_report(tmp_path, capsys):
    cfg = _small(nystrom_n=64)
    assert cmd_fredholm(cfg, tmp_path) == 0
    report = _json(tmp_path / "fredholm_report.json")
    assert report["pass"] is True
    assert len(report["etas"]) == 8
    assert report["target_eta"] == [-1, 0]
    assert report["eta_gap"] <= 1e-6
    assert report["pair_residual"] <= 1e-6
    assert "pass" in capsys.readouterr().out


def test_spectrum_baseline(tmp_path):
    cfg = _small(spectrum=SpectrumConfig(n_max=4))
    assert cmd_spectrum(cfg, tmp_path) == 0
    lines = (tmp_path / "spectrum_j0.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,re_lambda,im_lambda,residual"
    assert lines[1].startswith("1,0.25,0,")
    report = _json(tmp_path / "spectrum_report.json")
    assert report["pass"] is True
    assert report["j0"]["entries"] == 4
    # lambda = 0 joins the nu = 1 diagonal run, hence one extra entry.
    assert report["j1"]["entries"] == 5
    assert report["j1"]["certified"] == 5
    assert report["j0"]["max_abs_gap_classical"] <= 1e-10
    assert report["j1"]["max_abs_gap_classical"] <= 1e-10


def test_isospec_small(tmp_path):
    cfg = _small(
        grid=GridConfig(segment_nodes=129, steps_per_a=128),
        spectrum=SpectrumConfig(n_max=2),
    )
    assert cmd_isospec(cfg, tmp_path) == 0
    report = _json(tmp_path / "isospec_report.json")
    assert report["pass"] is True
    assert len(report["spectra"]) == 10
    assert all(s["pass"] for s in report["spectra"])
    names = {c["name"] for c in report["comparisons"]}
    assert "alpha1_j0_closed_vs_direct" in names
    assert "j1_alpha1_vs_alpha0" in names
    assert "baseline_classical_j0" in names
    assert all(c["pass"] for c in report["comparisons"])
    gaps = [c["max_rel_diff"] for c in report["comparisons"] if "max_rel_diff" in c]
    assert max(gaps) <= 1e-6


@pytest.mark.parametrize(
    "error",
    [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ],
    ids=lambda cls: cls.__name__,
)
def test_every_package_error_is_a_failed_check(error):
    assert issubclass(error, errors.DelaySLError)
    checks = []

    def broken():
        raise error("broken on purpose")

    cli._run_check(checks, "probe", 1e-8, broken)
    assert checks == [
        {
            "check_name": "probe",
            "max_residual": math.inf,
            "tolerance": 1e-8,
            "pass": False,
            "error": "broken on purpose",
        }
    ]


def test_isospec_lists_a_failed_spectrum_and_skips_what_reads_it(tmp_path, capsys, monkeypatch):
    # the first spectrum, alpha0_j0_closed, fails: it is listed with its
    # error, the two comparisons that read it are left out, everything
    # else still runs and passes, and the run fails
    cfg = _small(
        grid=GridConfig(segment_nodes=129, steps_per_a=128),
        spectrum=SpectrumConfig(n_max=2),
    )
    real = cli.compute_spectrum
    calls = []

    def first_fails(delta, nu, j, *args, **kwargs):
        calls.append(j)
        if len(calls) == 1:
            raise ContourError("a root on the contour")
        return real(delta, nu, j, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_spectrum", first_fails)
    assert cmd_isospec(cfg, tmp_path) == 1
    report = _json(tmp_path / "isospec_report.json")
    assert report["pass"] is False
    spectra = report["spectra"]
    assert len(spectra) == 10
    assert spectra[0] == {"name": "alpha0_j0_closed", "pass": False, "error": "a root on the contour"}
    assert all(s["pass"] for s in spectra[1:])
    assert [c["name"] for c in report["comparisons"]] == [
        "alpha0_j1_closed_vs_direct",
        "alpha1_j0_closed_vs_direct",
        "alpha1_j1_closed_vs_direct",
        "j1_alpha1_vs_alpha0",
        "baseline_classical_j0",
        "baseline_classical_j1",
    ]
    assert all(c["pass"] for c in report["comparisons"])
    assert capsys.readouterr().out.splitlines()[-1] == "isospec: FAIL"


def test_spectrum_lists_a_failed_j_and_exits_1(tmp_path, capsys, monkeypatch):
    # the j = 1 spectrum raises: j = 0 is still written and checked, j = 1
    # is reported with its error, and the run fails without a traceback
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"spectrum": {"n_max": 4}}), encoding="utf-8")
    real = cli.compute_spectrum

    def j1_fails(delta, nu, j, *args, **kwargs):
        if j == 1:
            raise IncompleteSpectrumError("count 3 vs 2 located roots")
        return real(delta, nu, j, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_spectrum", j1_fails)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert sorted(f.name for f in out.iterdir()) == ["spectrum_j0.csv", "spectrum_report.json"]
    report = _json(out / "spectrum_report.json")
    assert report["pass"] is False
    assert report["j0"]["pass"] is True
    assert report["j1"] == {"pass": False, "error": "count 3 vs 2 located roots"}
    shown = capsys.readouterr()
    assert "Traceback" not in shown.out + shown.err
    assert shown.out.splitlines()[-1] == "spectrum j=1: FAIL  [count 3 vs 2 located roots]"


def test_main_reports_a_package_error_and_exits_1(tmp_path, capsys, monkeypatch):
    # an error the package raises inside a command is a failed run (1),
    # told on stderr; config and i/o errors keep exit code 2
    def none_left(op, n, count=None):
        raise NoEigenvaluesError("operator has no eigenvalue above the cutoff")

    monkeypatch.setattr(cli, "eigenpairs", none_left)
    assert main(["fredholm", "--out", str(tmp_path)]) == 1
    shown = capsys.readouterr()
    assert shown.err == "delaysl fredholm: operator has no eigenvalue above the cutoff\n"
    assert not (tmp_path / "fredholm_report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [0.15, 0.4, 0.6, 0.9, 1.0, 1.04])
def test_isospec_across_delays_raises_no_warning(tmp_path, a):
    # every polish stays where Delta is finite: at a = 0.9 a guess of the
    # direct route once stepped to lambda ~ -1e5, where the stepper
    # overflows; the default grid with 12 cells and one alpha reaches it
    cfg = dataclasses.replace(
        load_config(None), a=a, alphas=(0j,), nystrom_n=96, spectrum=SpectrumConfig(n_max=12)
    )
    assert cmd_isospec(cfg, tmp_path) == 0
    report = _json(tmp_path / "isospec_report.json")
    assert report["pass"] is True
    assert len(report["spectra"]) == 6
    assert all(s["pass"] for s in report["spectra"])
    assert all(c["pass"] for c in report["comparisons"])
