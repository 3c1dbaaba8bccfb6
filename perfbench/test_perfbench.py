"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import arrlog  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from arrlog.report import FAIL, PASS  # noqa: E402


def _bindings():
    """Every attribute of every arrlog module and class, by identity."""
    out = {}
    for mod in tracer.arrlog_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    out[(mod.__name__, attr, meth)] = fn
    return out


def test_traced_and_untraced_claim_json_identical():
    wl = workloads.QQ_PAPER
    plain = workloads.run_pass(wl, wl.make_inputs(4))
    with tracer.Tracer() as tr:
        traced = workloads.run_pass(wl, wl.make_inputs(4))
    assert plain.failed == 0 and traced.failed == 0
    assert plain.report.to_json() == traced.report.to_json()
    layers = tr.metrics(traced.wall_s)
    assert layers["solver.saito_check.calls"] == 2
    assert layers["modular.rref_mod.calls"] > 0
    assert layers["other.self_s"] >= 0


def test_wrappers_cover_by_name_imports_and_are_removed():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert arrlog.solver.rref_mod is arrlog.modular.rref_mod
        assert arrlog.solver.rref_mod.perfbench_span == "modular.rref_mod"
        assert arrlog.resolution.minimal_generators.perfbench_span == "solver.minimal_generators"
        assert arrlog.minimal_generators is arrlog.solver.minimal_generators
        assert arrlog.solver.RelativeEngine.build_mod.perfbench_span == "solver.build_mod"
    finally:
        tr.uninstall()
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.relabelled_inputs(s) for s in (5, 5, 6))
    assert a.z22.forms == b.z22.forms and a.nine.forms == b.nine.forms
    assert a.x123 == b.x123 and a.nine_cut == b.nine_cut
    assert a.z22.forms != c.z22.forms
    # relabelling permutes the forms of the fixed arrangement
    assert sorted(map(repr, a.z22.forms)) == sorted(map(repr, arrlog.library.ziegler22().forms))
    seeds = [run.pass_seed(7, i) for i in range(5)]
    assert seeds[0] == 7 and len(set(seeds)) == 5
    assert seeds == [run.pass_seed(7, i) for i in range(5)]


def _fake_workload(records_ok: int, statuses=(), boom=False):
    def good(rep, inp):
        for _ in range(records_ok):
            rep.add("ok", "ok", True)

    def mixed(rep, inp):
        for status in statuses:
            rep.add("mixed", "mixed", status == PASS)

    def crash(rep, inp):
        raise arrlog.SolverError("forced")

    steps = [workloads.Step("good", records_ok, good)]
    if statuses:
        steps.append(workloads.Step("mixed", len(statuses), mixed))
    if boom:
        steps.append(workloads.Step("crash", 2, crash))
    return workloads.Workload("fake", workloads.SeedOnly, tuple(steps))


def test_forced_failures_are_counted():
    wl = _fake_workload(2, statuses=(PASS, FAIL), boom=True)
    res = workloads.run_pass(wl, wl.make_inputs(0))
    assert res.attempted == 6
    assert res.failed == 3  # one FAIL record, two records of the crashed step
    assert "error:crash" in res.report.to_json()


class _FakeRunner:
    """Stands in for worker processes: canned pass results, optional nondeterminism."""

    workload = "fake"

    def __init__(self, failed=0, flaky=False):
        self.failed = failed
        self.flaky = flaky
        self.calls = 0

    def spawn(self, seed, setup_only=False, trace=False, tag=""):
        self.calls += 1
        out = {"setup_s": 0.5, "seed": seed, "numpy": "x"}
        if setup_only:
            return out
        text = f"claims {seed}" + (f" run {self.calls}" if self.flaky else "")
        out.update(wall_s=1.0 + 0.1 * self.calls, attempted=4, failed=self.failed,
                   step_s={"nine4d": 0.5}, claims_json=text, peak_rss_mb=30.0)
        if trace:
            out["layers"] = {name: 1.0 for name, _ in tracer.METRICS}
            out["leftover_wrappers"] = []
        return out

    def measure(self, seed, seconds):
        return [self.spawn(run.pass_seed(seed, i)) for i in range(3)]

    def has_time_for(self, passes, factor=1.0):
        return True


def test_run_aggregates_failures_into_ops_ok_frac():
    res = run.untraced_run(_FakeRunner(failed=1), seed=3, seconds=1)
    assert res["attempted"] == 16 and res["failed"] == 4
    assert res["metrics"]["ops_ok_frac"][0] == pytest.approx(1 - 4 / 16)
    assert not res["correct"]
    res = run.untraced_run(_FakeRunner(flaky=True), seed=3, seconds=1)
    assert res["deterministic"] is False and res["failed"] == 4
    res = run.untraced_run(_FakeRunner(), seed=3, seconds=1)
    assert res["correct"] and res["deterministic"] and res["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    res = run.traced_run(_FakeRunner(), seed=3, seconds=1)
    assert res["correct"] and res["wrappers_removed"]
    assert list(res["metrics"]) == [name for name, _ in tracer.METRICS]
    res = run.traced_run(_FakeRunner(flaky=True), seed=3, seconds=1)
    assert not res["correct"] and not res["traced_json_identical"]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.METRICS)
    e2e = run.untraced_run(_FakeRunner(), seed=0, seconds=1)["metrics"]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    steps = {s.name for w in workloads.WORKLOADS.values() for s in w.steps}
    assert steps == set(tracer.CLAIM_STEPS)


def test_divisibility_keys_merge_ladder_primes():
    hook = tracer._DivisibilityKeys()
    stats = tracer._Stats()
    # 3x1 - 5x2 + 7x4 over Q, as the solver reduces it mod three ladder primes
    for p in arrlog.modular.PRIMES[:3]:
        reduced = arrlog.LinearForm(arrlog.GF(p), [c % p for c in (3, -5, 0, 7)])
        hook.observe(stats, (reduced, 1, 4), {}, None, None, False)
    assert len(stats.keys) == 1
    hook.observe(stats, (arrlog.LinearForm(arrlog.GF(1009), [3, 1004, 0, 7]), 1, 4), {},
                 None, None, False)
    assert len(stats.keys) == 2


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qq-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
