"""Write the reference spectra the spectrum workloads are gated against.

The family is isospectral, so one table serves every seed: the four
(nu, j) spectra of the alpha = 0 member through the closed route.
Run from the repository root:

    python3 perfbench/make_reference.py [--segment-nodes N] [--n-max N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import worker  # noqa: E402  (pins BLAS threads and puts src/ on the path)

from delaysl import charfn, delay_solver, spectrum  # noqa: E402


def build(segment_nodes: int, n_max: int) -> dict:
    spectra, windows = {}, {}
    im_window = None
    for nu in (0, 1):
        m = worker.member(nu, 0.0)
        setup = delay_solver.DelaySetup(a=worker.A, nu=nu, segment_nodes=segment_nodes)
        datas = charfn.build_w(m.q, setup)
        for j in (0, 1):
            s = spectrum.compute_spectrum(
                lambda lam, data=datas[j]: charfn.delta_closed(data, lam), nu, j, n_max
            )
            key = worker.reference_key(nu, j)
            spectra[key] = [[e.lam.real, e.lam.imag, e.residual] for e in s.entries]
            windows[key] = s.window
            im_window = s.im_window
    return {
        "a": worker.A,
        "alpha": 0.0,
        "segment_nodes": segment_nodes,
        "n_max": n_max,
        "route": "delta_closed",
        "im_window": im_window,
        "windows": windows,
        "spectra": spectra,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/make_reference.py")
    p.add_argument("--segment-nodes", type=int, default=513)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--out", default=str(worker.REFERENCE))
    args = p.parse_args(argv)
    table = build(args.segment_nodes, args.n_max)
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    counts = {k: len(v) for k, v in table["spectra"].items()}
    print(f"wrote {args.out}: certified entries {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
