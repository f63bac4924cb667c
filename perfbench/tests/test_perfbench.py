"""Tests of the benchmark itself, on problems small enough for a run of minutes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
TINY = ["--segment-nodes", "33", "--n-max", "3"]

sys.path.insert(0, str(BENCH))
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import delaysl  # noqa: E402
import delaysl.cli  # noqa: E402
from delaysl.gridfn import SampledSegment  # noqa: E402


def _bench(*args, cwd=ROOT, runner=RUN, env=None):
    proc = subprocess.run(
        [sys.executable, str(runner), "--seconds", "0.1", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    subprocess.run(
        [sys.executable, str(BENCH / "make_reference.py"), *TINY, "--out", str(path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=170,
    )
    return path


@pytest.fixture(scope="module")
def traced(tiny_reference):
    """A traced tiny run of the spectra workload: its JSON result."""
    code, result, proc = _bench(
        "--workload", "spectra", "--seed", "3", "--trace", "1",
        *TINY, "--reference", str(tiny_reference),
    )
    assert code == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    return result


def _names(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_output_matches_declaration(declared, tiny_reference):
    code, result, proc = _bench(
        "--workload", "spectra", "--seed", "5", "--trace", "0",
        *TINY, "--reference", str(tiny_reference),
    )
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names(declared["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_matches_declaration(declared, traced):
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == _names(declared["per_layer"])


def test_spectra_layers(traced):
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    ev = "delay_solver.endpoint_values"
    for name in (
        "kernels.calls", "kernels.s", "kernels.elements",
        "charfn.delta_closed.calls", "charfn.delta_closed.points",
        "charfn.delta_closed.us_per_point", "charfn.build_w.calls",
        "charfn.delta_direct.calls", f"{ev}.calls", f"{ev}.s", f"{ev}.points",
        "spectrum.delta_calls", "spectrum.delta_points", "spectrum.count_roots.points",
        "spectrum.roots_per_kpoint", "gridfn.piecewise_quad.calls",
        "gridfn.SampledSegment.values.calls", "family.build_member.calls",
        "kernels.self_s", "gridfn.self_s", "delay_solver.self_s", "charfn.self_s",
        "spectrum.self_s",
    ):
        assert m[name] > 0, name
    # every Delta call of a spectrum goes to exactly one route
    calls = m["charfn.delta_closed.calls"] + m["charfn.delta_direct.calls"]
    assert calls == m["spectrum.delta_calls"]
    assert m["charfn.delta_direct.calls"] == m[f"{ev}.calls"]
    assert m["charfn.delta_closed.points"] + m[f"{ev}.points"] == m["spectrum.delta_points"]
    assert m["spectrum.compute_spectrum.calls"] == 4
    assert m["charfn.build_w.calls"] == 2
    assert m["spectrum.count_roots.points"] < m["spectrum.delta_points"]
    buckets = ("le8", "9_128", "gt128")
    assert sum(m[f"{ev}.calls_{b}"] for b in buckets) == m[f"{ev}.calls"]
    assert sum(m[f"{ev}.s_{b}"] for b in buckets) == pytest.approx(m[f"{ev}.s"])
    # self time never exceeds busy time, and kernels have no children
    assert m["kernels.self_s"] == pytest.approx(m["kernels.s"])
    assert m["charfn.self_s"] < m["charfn.delta_closed.s"] + m["charfn.build_w.s"] + m[
        "charfn.delta_direct.s"
    ]


def test_verify_layers():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "verify", "--seed", "1",
         "--trace", "1", *TINY],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["attempted"] == 8
    m = record["layers"]
    for name in (
        "delay_solver.p_function.calls", "delay_solver.series_term.calls",
        "delay_solver.endpoint_values.calls", "gridfn.piecewise_quad.calls",
        "gridfn.SampledSegment.values.calls", "gridfn.integrate.calls",
        "gridfn.cumulative.calls", "charfn.build_w.calls", "fredholm.apply.calls",
        "fredholm.nystrom.calls", "family.build_member.calls", "family.w_of_member.calls",
        "kernels.calls",
    ):
        assert m[name] > 0, name
    assert m["spectrum.compute_spectrum.calls"] == 0
    busiest = max(LAYERS, key=lambda layer: m[f"{layer}.self_s"])
    assert busiest in ("gridfn", "delay_solver")


def test_tracer_patches_every_binding_and_restores_them():
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (delaysl, delaysl.kernels, delaysl.charfn, delaysl.cli):
            assert hasattr(mod.skernel, "__perfbench_original__"), mod.__name__
        assert hasattr(delaysl.charfn.endpoint_values, "__perfbench_original__")
        assert hasattr(SampledSegment.values, "__perfbench_original__")
        delaysl.cli.skernel(4.0, 1.0)
    finally:
        tracer.restore()
    assert tracer.metrics()["kernels.calls"] == 1
    wrapped = [
        f"{key}.{attr}"
        for key, mod in sys.modules.items()
        if key == "delaysl" or key.startswith("delaysl.")
        for attr, obj in vars(mod).items()
        if hasattr(obj, "__perfbench_original__")
    ]
    assert wrapped == []
    assert not hasattr(SampledSegment.values, "__perfbench_original__")


def test_perturbed_reference_fails_the_gate(tiny_reference, tmp_path):
    table = json.loads(tiny_reference.read_text())
    table["spectra"]["nu1_j0"][0][0] += 1e-3
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(table))
    code, result, _ = _bench(
        "--workload", "spectra", "--seed", "5", "--trace", "0",
        *TINY, "--reference", str(bad),
    )
    assert code != 0
    assert result["correct"] is False
    # the closed and the direct nu = 1, j = 0 spectra miss the gate
    assert result["failed"] == 2 and result["attempted"] == 4


# Loaded at start-up by every python process of the run (through
# PYTHONPATH), so the worker's verify suite sees one check raise.
FAILING_CHECK = """
import sys
sys.path.insert(0, {src!r})
import delaysl.cli
from delaysl.errors import ConsistencyError


def _raise(seed):
    raise ConsistencyError("forced failure")


delaysl.cli._kernel_identity_worst = _raise
"""


def test_failing_verify_check_is_counted(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(FAILING_CHECK.format(src=str(ROOT / "src")))
    path = os.pathsep.join(p for p in (str(tmp_path), os.environ.get("PYTHONPATH")) if p)
    code, result, proc = _bench(
        "--workload", "verify", "--seed", "1", "--trace", "0", *TINY,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert code != 0
    assert result is not None, proc.stderr
    assert result["correct"] is False
    assert result["attempted"] == 8 and result["failed"] >= 1
    line = next(x for x in proc.stdout.splitlines() if "kernel_addition_identity" in x)
    assert "FAIL" in line and "max residual inf" in line and "forced failure" in line


def test_reference_table_matches_its_configuration():
    table = worker.load_reference(worker.REFERENCE)
    assert sorted(table) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [len(s.entries) for _, s in sorted(table.items())] == [20, 20, 20, 21]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _bench(
        "--workload", "spectra", "--seed", "1", "--trace", "0",
        cwd=tmp_path, runner=tmp_path / BENCH.name / "run.py",
    )
    assert code != 0
    assert result is None
