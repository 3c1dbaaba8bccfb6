"""Seeded workloads of the arrlog benchmark.

A workload turns a seed into inputs and then runs a fixed list of claim
steps on them.  Every step makes public arrlog calls, adds claim records
to a `Report` and checks its answers against values that do not depend on
the seed, so a pass is also an exactness check.

Calls go through `arrlog.<name>` at call time, so the tracer's patches
of the package namespace are seen.  Import this module only after `src/`
of the checkout is on `sys.path`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import arrlog
import arrlog.claims
from arrlog import QQ, LinearForm, Report
from arrlog.library import nine4d, ziegler22
from arrlog.report import PASS


@dataclass(frozen=True)
class Step:
    """One claim call: its name, and how many claim records it adds."""

    name: str
    records: int
    run: Callable[[Report, object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], object]
    steps: tuple


@dataclass
class PassResult:
    report: Report
    attempted: int
    failed: int
    wall_s: float
    step_s: dict


def run_pass(workload: Workload, inputs) -> PassResult:
    """Run every step of a workload once; time from inputs ready to the last claim.

    A step that raises, adds the wrong number of records or records a
    non-PASS status counts all of its records as failed; nothing is
    dropped from the count.
    """
    rep = Report(command=f"perfbench {workload.name}", field_spec="", seed=inputs.seed)
    attempted = failed = 0
    step_s = {}
    start = time.perf_counter()
    for step in workload.steps:
        before = len(rep.claims)
        t0 = time.perf_counter()
        try:
            step.run(rep, inputs)
        except Exception as exc:  # a crashed claim is a failed claim
            rep.add(f"error:{step.name}", "claim-crashed", False,
                    {"error": f"{type(exc).__name__}: {exc}"})
        step_s[step.name] = time.perf_counter() - t0
        new = rep.claims[before:]
        attempted += step.records
        if len(new) != step.records:
            failed += step.records
        else:
            failed += sum(1 for c in new if c.status != PASS)
    return PassResult(rep, attempted, failed, time.perf_counter() - start, step_s)


# ---------------------------------------------------------------------------
# cut: one seeded, certified-generic cut of ziegler22 over Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedOnly:
    seed: int


def _cut_bundle(rep: Report, inp: SeedOnly):
    arrlog.claims.claim_generic_cut_bundle(rep, seeds=(inp.seed,))


CUT = Workload("cut", SeedOnly, (Step("generic_cut_bundle", 1, _cut_bundle),))


# ---------------------------------------------------------------------------
# fp-ledger: native F_p criticality family and Euler exactness ledgers
# ---------------------------------------------------------------------------


def _criticality_family(rep: Report, inp: SeedOnly):
    arrlog.claims.claim_criticality_family(rep)


def _euler_ledgers(rep: Report, inp: SeedOnly):
    arrlog.claims.claim_euler_ledgers(rep, inp.seed)


FP_LEDGER = Workload(
    "fp-ledger",
    SeedOnly,
    (
        Step("criticality_family", 3, _criticality_family),
        Step("euler_ledgers", 1, _euler_ledgers),
    ),
)


# ---------------------------------------------------------------------------
# qq-paper: the paper's small and medium Q claims on relabelled inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relabelled:
    """ziegler22 and nine4d with forms permuted and rescaled by the seed."""

    seed: int
    z22: object
    x123: LinearForm
    nine: object
    nine_cut: LinearForm


def _rescale(rng: random.Random, coeffs):
    s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return [s * Fraction(c) for c in coeffs]


def _relabel(rng: random.Random, A):
    vectors = [_rescale(rng, f.coeffs) for f in A.forms]
    rng.shuffle(vectors)
    return arrlog.validate(QQ, vectors)


def relabelled_inputs(seed: int) -> Relabelled:
    rng = random.Random(f"qq-paper:{seed}")
    z22 = _relabel(rng, ziegler22())
    x123 = LinearForm(QQ, _rescale(rng, [1, 1, 1, 0]))
    nine = _relabel(rng, nine4d())
    nine_cut = LinearForm(QQ, _rescale(rng, [1, 3, 5, 7]))
    return Relabelled(seed, z22, x123, nine, nine_cut)


def _ziegler22_free(rep: Report, inp: Relabelled):
    res = arrlog.saito_check(inp.z22)
    rep.add("free:ziegler22", "ziegler22-free-exponents-1-5-7-9",
            res.free and res.exponents == [1, 5, 7, 9],
            {"free": res.free, "exponents": res.exponents, "constant": res.constant})


def _ziegler22_restriction(rep: Report, inp: Relabelled):
    A, h = inp.z22, inp.x123
    B = A.add_hyperplane(h)
    cut = arrlog.restrict(B, B.n - 1).restricted
    res = arrlog.saito_check(cut)
    rep.add("free:ziegler22-cut-x123", "ziegler22-restriction-free-exponents-1-10-11",
            res.free and res.exponents == [1, 10, 11],
            {"free": res.free, "exponents": res.exponents, "lines": cut.n})
    lat = arrlog.intersection_lattice(A, max_codim=3)
    ok2, _ = arrlog.is_k_generic([h], A, 2, lattice=lat)
    ok3, witness = arrlog.is_k_generic([h], A, 3, lattice=lat)
    rep.add("generic:ziegler22-x123", "ziegler22-x123-2-generic-not-3-generic",
            ok2 and not ok3,
            {"2-generic": ok2, "3-generic": ok3,
             "witness_codim3_members": sorted(witness.members) if witness else None})


def _nine4d(rep: Report, inp: Relabelled):
    A, h = inp.nine, inp.nine_cut
    gens = arrlog.minimal_generators(A, "O")
    by_degree = gens.count_by_degree()
    rep.add("generators:nine4d", "nine4d-omega-generator-degrees--1--2",
            by_degree == {-1: 1, -2: 6},
            {"by_degree": {str(k): v for k, v in sorted(by_degree.items())}})
    ok_gen, _ = arrlog.is_k_generic([h], A, 3)
    B = A.add_hyperplane(h)
    res = arrlog.restrict(B, B.n - 1)
    hints = [arrlog.restrict_form(cv, A, res=res, checked=True) for cv in gens.representatives]
    tgt = arrlog.minimal_generators(res.restricted, "O", engine="ambient", hints=hints)
    rep.add("generators:nine4d-cut", "nine4d-restriction-generator-degrees--1--2--3",
            ok_gen and sorted(set(tgt.degrees)) == [-3, -2, -1],
            {"hyperplane_generic": ok_gen,
             "by_degree": {str(k): v for k, v in sorted(tgt.count_by_degree().items())}})
    sj = arrlog.surjectivity_check(B, B.n - 1, kind="O", source_generators=gens, target_generators=tgt)
    rep.add("surjectivity:nine4d-cut", "nine4d-form-restriction-not-surjective",
            (not sj.surjective) and sj.witness_degree == -3,
            {"surjective": sj.surjective, "witness_degree": sj.witness_degree,
             "ledger": sj.ledger()})


QQ_PAPER = Workload(
    "qq-paper",
    relabelled_inputs,
    (
        Step("ziegler22_free", 1, _ziegler22_free),
        Step("ziegler22_restriction", 2, _ziegler22_restriction),
        Step("nine4d", 3, _nine4d),
    ),
)


WORKLOADS = {w.name: w for w in (CUT, FP_LEDGER, QQ_PAPER)}
