"""One benchmark process: imports nkshoot from the checkout's ``src/``, makes
the same warm-up call as the set-up measurement, runs passes of one workload
(optionally traced) and prints one JSON line with the per-pass results.

Untraced passes run under a ``calibrate.Calibrator`` with
``numpy_kernel.kernel``; each pass then also
gets its wall time without the calibration kernel (``wall_net_s``) and its
wall and operation times normalised for machine speed (``wall_norm_s``,
``op_norm_s``). Traced passes run without it, so that no span counts kernel
time.

    python3 perfbench/worker.py --workload sweep --seed 3 --seconds 10
    python3 perfbench/worker.py --workload table2 --seed 3 --passes 1 --trace 1
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "_out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--passes", type=int, help="run exactly this many")
    budget.add_argument("--seconds", type=float,
                        help="run passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import nkshoot
    if Path(nkshoot.__file__).resolve().parent != SRC / "nkshoot":
        print(f"nkshoot imported from {nkshoot.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads
    import numpy_kernel
    from calibrate import Calibrator
    from tracer import Tracer

    nkshoot.solve_family("beta", 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    calibrator = (None if args.trace
                  else Calibrator(numpy_kernel.kernel, numpy_kernel.REF_S))
    passes = []
    try:
        with calibrator or contextlib.nullcontext():
            t0 = perf_counter()
            while True:
                passes.append(workloads.run_pass(args.workload, args.seed,
                                                 len(passes), str(OUT_DIR)))
                if args.passes is not None:
                    if len(passes) >= args.passes:
                        break
                elif perf_counter() - t0 >= args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.restore()
    for r in passes:
        span, op_spans = r.pop("span"), r.pop("op_spans")
        if calibrator is None:
            r["wall_net_s"] = r["wall_s"]
            continue
        r["wall_net_s"], r["wall_norm_s"] = calibrator.normalise(*span)
        r["op_norm_s"] = [calibrator.normalise(*s)[1] for s in op_spans]
        r["kernel_s"] = calibrator.kernel_s(*span)
    if args.workload == "sweep":
        params = [x for r in passes for x in r.pop("params")]
        if len(set(params)) != len(params):
            print("sweep parameters repeat within a run", file=sys.stderr)
            return 2
    print(json.dumps({
        "passes": passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "nkshoot": nkshoot.__version__},
        "trace": tracer.report() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
