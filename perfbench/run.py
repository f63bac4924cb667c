"""Benchmark entry point: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each one exists):

* ``spectra``: both routes to the seeded member's certified spectra --
  build_w plus three spectra (nu, j) = (0, 0), (1, 0), (1, 1) through the
  closed form ``delta_closed``, then the (1, 0) spectrum through the
  stepper route ``delta_direct``.
* ``verify``: ``cli.cmd_verify`` at the default config.

The seed draws the family coefficient alpha.  Each workload runs in a
fresh worker process with one BLAS thread, running whole passes while
the next one should end within ``--seconds`` (at least one).  Set-up
time is the median wall time of ``SETUP_REPEATS`` fresh processes that
only build the inputs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one pass untraced and then one pass traced, and
reports the per-layer metrics.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The exit code is 0 only when every operation passed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
# the whole command must end within 180 s; a worker still running at this
# many seconds after the start has hung, and is stopped
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402
from worker import WORKLOADS  # noqa: E402  (exits when src/delaysl is missing)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("DELAYSL_BACKEND", None)
    # A fixed mmap threshold keeps glibc from raising it as large arrays are
    # freed, so peak RSS follows the largest working set, not heap history.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _worker(args, extra, deadline) -> tuple[float, dict | None]:
    """Run one worker process; (wall seconds, its JSON record or None)."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--segment-nodes", str(args.segment_nodes),
        "--n-max", str(args.n_max),
    ]
    if args.reference:
        cmd += ["--reference", args.reference]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + extra,
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker stopped at the run's deadline") from None
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return took, (json.loads(lines[-1]) if lines else None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller problems for the benchmark's own tests
    p.add_argument("--segment-nodes", type=int, default=513, help=argparse.SUPPRESS)
    p.add_argument("--n-max", type=int, default=20, help=argparse.SUPPRESS)
    p.add_argument("--reference", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        _, plain = _worker(args, ["--seconds", "0"], deadline)
        traced = ["--seconds", "0", "--trace", "1", "--spans", str(spans)]
        _, result = _worker(args, traced, deadline)
        metrics = dict(result["layers"])
        metrics["trace_overhead_frac"] = result["wall_s"] / plain["wall_s"] - 1.0
        units = {**layer_metrics(), "trace_overhead_frac": "ratio"}
    else:
        setup_runs = [
            _worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_REPEATS)
        ]
        _, result = _worker(args, ["--seconds", str(args.seconds)], deadline)
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  alpha {result['alpha']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for op in result["operations"]:
        took = "" if op["s"] is None else f"{op['s']:9.3f} s"
        print(f"  {op['name']:<28} {'pass' if op['ok'] else 'FAIL'}  {took:>11}  {op['detail']}")
    line = f"passes {result['passes']}  operations {attempted}  failed {failed}  "
    line += f"failed_frac {failed / attempted:.4f}"
    print(line)
    # spectrum operations are named <route>_nu<nu>_j<j>; verify checks are untimed
    routes: dict[str, list] = {}
    for op in result["operations"]:
        if op["s"] is not None:
            routes.setdefault(op["name"].split("_", 1)[0], []).append(op["s"])
    for route, times in routes.items():
        print(f"  {route} spectrum_p50_s {statistics.median(times):.6g} (n = {len(times)})")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:14.6g} {units[name]}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
