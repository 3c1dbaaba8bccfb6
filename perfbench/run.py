"""Run one workload of the arrlog benchmark and print its metrics.

    python3 perfbench/run.py --workload cut --seed 7 --seconds 20 --trace 0

Every pass runs in a fresh worker process (`worker.py`), one at a time.
An untraced run (`--trace 0`) times five set-up probes, then passes on
seeds derived from `--seed` until `--seconds` have elapsed, then re-runs
the first pass's seed and requires byte-identical claim JSON (a run that
had time for only one pass leaves that check to its traced run).  It
prints the end-to-end metrics.  A traced run (`--trace 1`) measures the
same untraced passes, repeats each with the tracer installed, requires
the claim JSON of both to be identical, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment.  Both are also written, with every pass, to
`.perfbench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_runs"

WORKLOADS = ("cut", "fp-ledger", "qq-paper")
SETUP_PROBES = 5
#: a run stops starting passes once it could no longer end by this time
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The harness could not complete the run (not a claim failure)."""


def pass_seed(seed: int, index: int) -> int:
    """Seed of the index-th pass of a run; pass 0 uses the run's own seed."""
    return seed if index == 0 else seed * 1000 + index


def worker_env() -> dict:
    """The parent's environment with ARRLOG_THREADS at its default and BLAS pools at most nproc."""
    env = dict(os.environ)
    env.pop("ARRLOG_THREADS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    return env


class Runner:
    def __init__(self, workload: str, started: float):
        self.workload = workload
        self.deadline = started + DEADLINE_S
        self.env = worker_env()

    def spawn(self, seed: int, *, setup_only=False, trace=False, tag="") -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(seed)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", "--spans-out", str(OUT_DIR / f"{tag}.spans.jsonl")]
        timeout = max(1.0, self.deadline + 10.0 - time.monotonic())
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        return result

    def has_time_for(self, passes, factor=1.0) -> bool:
        longest = max((p["wall_s"] + p["setup_s"] for p in passes), default=0.0)
        return time.monotonic() + factor * longest < self.deadline

    def measure(self, seed: int, seconds: float) -> list:
        """Untraced passes on derived seeds until `seconds` have elapsed (at least one)."""
        start = time.monotonic()
        passes = []
        while not passes or (time.monotonic() - start < seconds and self.has_time_for(passes, 2.5)):
            passes.append(self.spawn(pass_seed(seed, len(passes))))
        return passes


def untraced_run(runner: Runner, seed: int, seconds: float) -> dict:
    setups = [runner.spawn(seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = runner.measure(seed, seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    deterministic = None
    if len(passes) > 1:
        repeat = runner.spawn(passes[0]["seed"])
        deterministic = repeat["claims_json"] == passes[0]["claims_json"]
        attempted += repeat["attempted"]
        failed += repeat["failed"] if deterministic else repeat["attempted"]
        passes.append(repeat)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "deterministic": deterministic,
        "setups": setups,
        "passes": passes,
    }


def traced_run(runner: Runner, seed: int, seconds: float) -> dict:
    import tracer

    plain = runner.measure(seed, seconds)
    traced = []
    for i, p in enumerate(plain):
        if traced and not runner.has_time_for(traced, 1.5):
            break
        traced.append(runner.spawn(p["seed"], trace=True, tag=f"{runner.workload}-seed{seed}-pass{i}"))
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain)
    identical = True
    clean = True
    for p, t in zip(plain, traced):
        same = t["claims_json"] == p["claims_json"]
        identical = identical and same
        clean = clean and not t["leftover_wrappers"]
        failed += t["failed"] if same else t["attempted"]
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name, unit in tracer.METRICS:
        if name == "trace.overhead_s":
            value = (statistics.fmean(t["wall_s"] for t in traced)
                     - statistics.fmean(p["wall_s"] for p in plain[: len(traced)]))
        elif name.startswith("claims."):
            step = name[len("claims."):-len(".s")]
            value = statistics.fmean(p["step_s"].get(step, 0.0) for p in plain)
        elif ".max_" in name:
            value = max(layer[name] for layer in layers)
        else:
            value = statistics.fmean(layer[name] for layer in layers)
        metrics[name] = (value, unit)
    return {
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "traced_json_identical": identical,
        "wrappers_removed": clean,
        "passes": plain,
        "traced_passes": traced,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(numpy_version) -> dict:
    env = worker_env()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in ("ARRLOG_THREADS",) + THREAD_VARS},
        "worker_thread_env": {var: env.get(var) for var in ("ARRLOG_THREADS",) + THREAD_VARS},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "arrlog" / "__init__.py").is_file():
        print(f"run.py: no arrlog sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args.workload, started)
    try:
        if args.trace:
            run = traced_run(runner, args.seed, args.seconds)
        else:
            run = untraced_run(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    env = environment(run["passes"][0]["numpy"])
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run["metrics"].items()},
    }
    record = dict(run, environment=env, args=vars(args), result=result)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
