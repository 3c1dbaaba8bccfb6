"""One fresh process of the arrlog benchmark: set up, run one pass, report.

`run.py` starts this script once per set-up probe and once per pass, so
every pass pays interpreter start, `import arrlog` (which builds the
prime ladder) and cold caches, as a CLI user does.  By hand:

    python3 perfbench/worker.py --workload qq-paper --seed 3 [--trace]

It prints one JSON line with `setup_s` (process spawn to inputs ready)
and, unless `--setup-only`, the pass: `wall_s` (inputs ready to the last
claim certified), `peak_rss_mb`, `attempted`, `failed`, the claim JSON
and per-step times; with `--trace`, the per-layer metrics as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None, help="write the spans here (JSON lines)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    spawned_at = time.monotonic()
    args = parse_args(argv)
    if args.spawned_at is not None:
        spawned_at = args.spawned_at
    if not (SRC / "arrlog" / "__init__.py").is_file():
        print(f"worker: no arrlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arrlog
    import numpy

    if Path(arrlog.__file__).resolve().parent != (SRC / "arrlog").resolve():
        print(f"worker: imported arrlog from {arrlog.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    out = {"setup_s": time.monotonic() - spawned_at, "numpy": numpy.__version__}
    if not args.setup_only:
        out.update(run_traced(workload, inputs, args.spans_out) if args.trace
                   else summarize(workloads.run_pass(workload, inputs)))
    print(json.dumps(out, sort_keys=True))
    return 0


def summarize(res) -> dict:
    return {
        "wall_s": res.wall_s,
        "attempted": res.attempted,
        "failed": res.failed,
        "step_s": res.step_s,
        "claims_json": res.report.to_json(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, inputs, spans_out) -> dict:
    import tracer
    import workloads

    with tracer.Tracer() as tr:
        res = workloads.run_pass(workload, inputs)
    out = summarize(res)
    out["layers"] = tr.metrics(res.wall_s)
    out["leftover_wrappers"] = tracer.leftover_wrappers()
    if spans_out:
        tr.write_spans(spans_out)
    return out


if __name__ == "__main__":
    sys.exit(main())
