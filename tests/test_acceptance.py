"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s) after
asserting every sub-claim exactly; stated runtime budgets are asserted
where the criteria pin them.  The reports of criteria 2-6 are also
compared byte for byte with their files under tests/golden/.
"""

import json
import time

import pytest

from arrlog.arrangement import restrict
from arrlog.checks import criticality_check
from arrlog.fields import GF, QQ
from arrlog.lattice import intersection_lattice, is_k_generic
from arrlog.library import grr3, nine4d, ziegler22
from arrlog.maps import restrict_form, surjectivity_check
from arrlog.poly import LinearForm
from arrlog.report import Report
from arrlog.solver import minimal_generators, saito_check
from arrlog.claims import (
    claim_criticality_family,
    claim_generic_cut_bundle,
    claim_nine4d,
    claim_ziegler22_free,
    claim_ziegler22_restriction,
    run_verification_suite,
    surrogate_primes,
)
from test_golden import assert_golden


def _report():
    return Report(command="acceptance", field_spec="Q")


def _finish(name, rep_or_ok, budget=None, elapsed=None):
    ok = rep_or_ok.ok if isinstance(rep_or_ok, Report) else bool(rep_or_ok)
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" ({elapsed:.1f}s" + (f" < {budget}s budget)" if budget else ")")
    print(line)
    assert ok, line
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_1_ziegler22_free():
    t0 = time.time()
    A = ziegler22()
    res = saito_check(A)
    elapsed = time.time() - t0
    assert res.free
    assert res.exponents == [1, 5, 7, 9]
    assert res.constant  # determinant equals constant * Q exactly
    _finish("1 freeness ziegler22 (1,5,7,9)", True, budget=60, elapsed=elapsed)


def test_criterion_2_restriction_and_genericity():
    t0 = time.time()
    rep = _report()
    claim_ziegler22_restriction(rep)
    elapsed = time.time() - t0
    _finish("2 restriction (1,10,11) + 2-generic-not-3-generic", rep, elapsed=elapsed)
    assert_golden("criterion-2", rep.to_json())


def test_criterion_3_nine4d_generators_and_surjectivity():
    t0 = time.time()
    rep = _report()
    claim_nine4d(rep)
    elapsed = time.time() - t0
    _finish("3 nine4d generator degrees + non-surjectivity", rep, budget=120, elapsed=elapsed)
    assert_golden("criterion-3", rep.to_json())


def test_criterion_4_criticality_counterexamples():
    t0 = time.time()
    rep = _report()
    claim_criticality_family(rep)
    elapsed = time.time() - t0
    assert len(rep.claims) == 3
    for c in rep.claims:
        assert c.data["COUNTEREXAMPLE"] is True
    _finish("4 criticality counterexamples r=3,4,5 x 3 primes", rep, budget=300, elapsed=elapsed)
    assert_golden("criterion-4", rep.to_json())


def test_criterion_5_generic_cut_bundle_three_seeds():
    t0 = time.time()
    rep = _report()
    claim_generic_cut_bundle(rep, seeds=(101, 202, 303))
    elapsed = time.time() - t0
    assert len(rep.claims) == 3
    _finish("5 generic-cut bundle on 3 seeds", rep, elapsed=elapsed)
    assert_golden("criterion-5", rep.to_json())


def test_criterion_6_property_suites():
    t0 = time.time()
    rep = run_verification_suite(seed=0, only="properties", properties=True)
    elapsed = time.time() - t0
    assert len(rep.claims) == 7
    _finish("6 property suites", rep, elapsed=elapsed)
    assert_golden("criterion-6", rep.to_json())


def test_criterion_7_determinism(tmp_path):
    from arrlog.cli import main

    t0 = time.time()
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"crit-{tag}.json"
        assert main(["critical", "@grr3:4", "--field", "Fp:13", "--k", "6", "--json", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"vp-{tag}.json"
        assert main(["verify-paper", "--only", "critical:grr3", "--json", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"free-{tag}.json"
        assert main(["free", "@ziegler22", "--json", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.time() - t0
    _finish("7 byte-identical JSON reports", True, elapsed=elapsed)
