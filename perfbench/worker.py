"""One benchmark workload in one fresh process.

Started by ``run.py`` (never by hand): it builds the workload's inputs
from the seed, runs whole passes of the workload (another one only while
it should end within the time budget), gates every result, and prints
one JSON record as its last stdout line.  With ``--setup-only`` it exits
as soon as the inputs are ready, so the caller can time set-up from
process start.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, fixed before numpy loads: thread count changes timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# the isospec tolerance: every member's spectrum against the alpha = 0 table
GATE_TOL = 1e-6

if not (SRC / "delaysl" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no package source at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import delaysl  # noqa: E402
from delaysl import charfn, cli, delay_solver, family, spectrum  # noqa: E402

if Path(delaysl.__file__).resolve().parent != (SRC / "delaysl").resolve():
    raise SystemExit(f"perfbench: imported delaysl from {delaysl.__file__}, not {SRC}")

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

# every delaysl error derives from one of these
NUMERIC_ERRORS = (ValueError, RuntimeError)

A = np.pi / 4.0


def member(nu: int, alpha: complex):
    h, eta, e = cli._seed_pair(cli.RunConfig(a=A, nu=nu))
    return family.build_member(h, eta, e, nu, alpha, A)


def draw_alpha(seed: int) -> complex:
    """The family coefficient for a seed, inside the CLI demo's range."""
    rng = np.random.default_rng(seed)
    re, im = rng.uniform(-3.0, 3.0, 2)
    return complex(re, im)


def load_reference(path: Path) -> dict:
    """{(nu, j): Spectrum} from a table written by make_reference.py."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    table = {}
    for nu in (0, 1):
        for j in (0, 1):
            key = reference_key(nu, j)
            entries = [
                spectrum.SpectrumEntry(n=k + 1, lam=complex(re, im), residual=float(res))
                for k, (re, im, res) in enumerate(raw["spectra"][key])
            ]
            table[(nu, j)] = spectrum.Spectrum(
                entries=entries,
                window=float(raw["windows"][key]),
                im_window=float(raw["im_window"]),
                certified_count=len(entries),
            )
    return table


def reference_key(nu: int, j: int) -> str:
    return f"nu{nu}_j{j}"


# -- workloads ---------------------------------------------------------------
#
# Each one builds its inputs from the parsed arguments and returns the
# function that runs one pass.  A pass returns one (name, seconds, ok,
# detail) tuple per operation.


def gated_spectrum(label, delta, nu, j, args, reference, tracer):
    """One certified spectrum, timed and checked against the reference."""
    if tracer is not None:
        delta = tracer.count_delta(delta)
    t0 = time.perf_counter()
    try:
        s = spectrum.compute_spectrum(delta, nu, j, args.n_max)
    except NUMERIC_ERRORS as exc:
        return (label, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    took = time.perf_counter() - t0
    if tracer is not None:
        tracer.roots_certified += s.certified_count
    try:
        gap = float(spectrum.compare(reference[(nu, j)], s))
    except ValueError as exc:
        return (label, took, False, str(exc))
    return (label, took, gap <= GATE_TOL, f"max rel gap {gap:.3e}")


def spectra(args, tracer):
    """Both routes to the seeded member's certified spectra in one pass.

    The closed route computes the nu = j = 0 spectrum (the product form)
    and the nu = 1, j = 0 and 1 spectra, after one ``build_w`` per member;
    the stepper route computes the nu = 1, j = 0 spectrum once more
    through ``delta_direct``.
    """
    reference = load_reference(args.reference)
    alpha = draw_alpha(args.seed)
    members = {nu: member(nu, alpha) for nu in (0, 1)}
    setups = {
        nu: delay_solver.DelaySetup(a=A, nu=nu, segment_nodes=args.segment_nodes)
        for nu in (0, 1)
    }

    def run_pass():
        ops = []
        for nu, js in ((0, (0,)), (1, (0, 1))):
            datas = charfn.build_w(members[nu].q, setups[nu])
            for j in js:
                delta = lambda lam, data=datas[j]: charfn.delta_closed(data, lam)  # noqa: E731
                ops.append(
                    gated_spectrum(f"closed_nu{nu}_j{j}", delta, nu, j, args, reference, tracer)
                )
        delta = lambda lam: charfn.delta_direct(members[1].q, setups[1], 0, lam)  # noqa: E731
        ops.append(gated_spectrum("direct_nu1_j0", delta, 1, 0, args, reference, tracer))
        return ops

    return run_pass


def verify(args, tracer):
    """One ``cmd_verify`` run per pass; its checks are the operations, untimed.

    The suite's own seed stays at the CLI default: it places the
    second-term check's x points, and its cost moves with them (28-43 s
    over seeds 11-15), wider than any bound can allow.
    """
    cfg = cli.RunConfig()
    config = dataclasses.replace(
        cfg, grid=dataclasses.replace(cfg.grid, segment_nodes=args.segment_nodes)
    )

    def run_pass():
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            with open(os.devnull, "w") as sink:
                saved, sys.stdout = sys.stdout, sink
                try:
                    cli.cmd_verify(config, Path(tmp))
                finally:
                    sys.stdout = saved
            report = json.loads((Path(tmp) / "verify_report.json").read_text())
        ops = []
        for c in report["checks"]:
            # a check that raised reports its residual as the string "inf"
            detail = f"max residual {float(c['max_residual']):.3e}"
            if "error" in c:
                detail += f" [{c['error']}]"
            ops.append((c["check_name"], None, bool(c["pass"]), detail))
        return ops

    return run_pass


WORKLOADS = {"spectra": spectra, "verify": verify}


def environment() -> dict:
    """What the figures depend on besides the code."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "backend": getattr(delaysl, "backend_name", None),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/worker.py")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--segment-nodes", type=int, default=513)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--reference", default=str(REFERENCE))
    p.add_argument("--spans", default=None, help="write the traced spans here (.npz)")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    pass_s, ops = [], []
    try:
        run_pass = WORKLOADS[args.workload](args, tracer)
        if args.setup_only:
            return 0
        # whole passes, the next one only if it should end within the budget
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops.extend(run_pass())
            pass_s.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.mean(pass_s) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()

    alpha = draw_alpha(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "alpha": None if args.workload == "verify" else [alpha.real, alpha.imag],
        "passes": len(pass_s),
        "pass_s": pass_s,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[2]),
        "operations": [{"name": n, "s": t, "ok": ok, "detail": d} for n, t, ok, d in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    record["wall_s"] = statistics.median(pass_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
