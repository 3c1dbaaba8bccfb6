"""The verification suite behind `arrlog verify-paper` and `generic-cut`.

Each claim re-derives a documented property of the bundled example
arrangements from scratch and records a pass/fail entry keyed by a
stable anchor slug.  Claims are independent and run one after another;
failures never abort the suite.
"""

from __future__ import annotations

import random

from .arrangement import Arrangement, ArrangementError, restrict
from .checks import (
    addition_deletion_check,
    calibrate_duality_shift,
    criticality_check,
    duality_dimension_check,
    euler_ledgers,
    plus_one_extension_count,
    pole_degree_check,
    restriction_size_dichotomy,
)
from .fields import GF, QQ, Rationals, _is_prime
from .lattice import InLattice, intersection_lattice, is_k_generic
from .library import boolean, braid, generic, grr3, nine4d, ziegler22
from .maps import preparation_check, surjectivity_check
from .poly import LinearForm
from .report import Report
from .resolution import betti_table, spog_detect
from .solver import (
    free_base_from_saito,
    free_piece_dimension,
    graded_basis,
    minimal_generators,
    saito_check,
)


def surrogate_primes(r: int):
    """The three smallest odd primes p = 1 (mod r) with p > 2r."""
    out = []
    p = max(2 * r, 4) + 1
    while len(out) < 3:
        if p % r == 1 and _is_prime(p):
            out.append(p)
        p += 1
    return out


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------


def claim_ziegler22_free(rep: Report):
    A = ziegler22()
    res = saito_check(A)
    rep.add(
        "free:ziegler22",
        "ziegler22-free-exponents-1-5-7-9",
        res.free and res.exponents == [1, 5, 7, 9],
        {"free": res.free, "exponents": res.exponents, "constant": res.constant},
    )
    return res


def claim_ziegler22_restriction(rep: Report):
    A = ziegler22()
    h = LinearForm(QQ, [1, 1, 1, 0])
    B = A.add_hyperplane(h)
    cut = restrict(B, B.n - 1).restricted
    res = saito_check(cut)
    rep.add(
        "free:ziegler22-cut-x123",
        "ziegler22-restriction-free-exponents-1-10-11",
        res.free and res.exponents == [1, 10, 11],
        {"free": res.free, "exponents": res.exponents, "lines": cut.n},
    )
    lat = intersection_lattice(A, max_codim=3)
    ok2, _ = is_k_generic([h], A, 2, lattice=lat)
    ok3, witness = is_k_generic([h], A, 3, lattice=lat)
    rep.add(
        "generic:ziegler22-x123",
        "ziegler22-x123-2-generic-not-3-generic",
        ok2 and not ok3,
        {
            "2-generic": ok2,
            "3-generic": ok3,
            "witness_codim3_members": sorted(witness.members) if witness else None,
        },
    )


def claim_nine4d(rep: Report):
    A = nine4d()
    gens = minimal_generators(A, "O")
    rep.add(
        "generators:nine4d",
        "nine4d-omega-generator-degrees--1--2",
        sorted(set(gens.degrees)) == [-2, -1],
        {"by_degree": {str(k): v for k, v in sorted(gens.count_by_degree().items())}},
    )
    h = LinearForm(QQ, [1, 3, 5, 7])
    ok_gen, _ = is_k_generic([h], A, 3)
    sj = surjectivity_check(A.add_hyperplane(h), A.n, kind="O", source_generators=gens)
    tgt_gens = sj.target_generators
    rep.add(
        "generators:nine4d-cut",
        "nine4d-restriction-generator-degrees--1--2--3",
        ok_gen and sorted(set(tgt_gens.degrees)) == [-3, -2, -1],
        {
            "hyperplane_generic": ok_gen,
            "by_degree": {str(k): v for k, v in sorted(tgt_gens.count_by_degree().items())},
        },
    )
    rep.add(
        "surjectivity:nine4d-cut",
        "nine4d-form-restriction-not-surjective",
        (not sj.surjective) and sj.witness_degree == -3,
        {"surjective": sj.surjective, "witness_degree": sj.witness_degree, "ledger": sj.ledger()},
    )


def claim_criticality_family(rep: Report, primes=None):
    for r in (3, 4, 5):
        plist = primes if primes else surrogate_primes(r)
        per_prime = []
        agree = True
        for p in plist:
            A = grr3(r, GF(p))
            sr = saito_check(A)
            k = 2 * r - 2
            cr = criticality_check(A, k)
            sizes = sorted({A.n - g for g in cr.gaps})
            rec = {
                "p": p,
                "free": sr.free,
                "exponents": sr.exponents,
                "critical": cr.critical,
                "restriction_sizes": sizes,
                "min_gap": cr.min_gap,
                "conjecture86_holds": cr.conjecture86_holds,
            }
            per_prime.append(rec)
        base = {key: per_prime[0][key] for key in per_prime[0] if key != "p"}
        for rec in per_prime[1:]:
            if any(rec[key] != base[key] for key in base):
                agree = False
        expected = {
            "free": True,
            "exponents": [1, r + 1, 2 * r - 2],
            "critical": True,
            "restriction_sizes": [r + 1],
            "min_gap": 2 * r - 1,
            "conjecture86_holds": False,
        }
        ok = agree and all(base[key] == expected[key] for key in expected)
        rep.add(
            f"critical:grr3-r{r}",
            f"grr3-r{r}-criticality-counterexample",
            ok,
            {
                "primes": list(plist),
                "agree_across_primes": agree,
                "result": base,
                "expected": expected,
                "COUNTEREXAMPLE": bool(base["critical"] and base["min_gap"] > 2 * r - 2),
            },
        )


class NoGenericHyperplane(ArrangementError):
    """No sampled hyperplane passed the genericity certificate."""


def _sample_generic_hyperplane(A: Arrangement, seed: int, lattice, k: int):
    rng = random.Random(seed)
    for _ in range(200):
        if isinstance(A.field, Rationals):
            coeffs = [rng.randint(1, 1000) for _ in range(A.ell)]
        else:
            coeffs = [rng.randrange(A.field.p) for _ in range(A.ell)]
        if not any(coeffs):
            continue
        h = LinearForm(A.field, coeffs)
        try:
            ok, _ = is_k_generic([h], A, k, lattice=lattice)
        except InLattice:
            continue
        if ok:
            return h
    raise NoGenericHyperplane(f"no generic hyperplane found for seed {seed}")


def claim_generic_cut_bundle(rep: Report, seeds=(101, 202, 303)):
    A1 = ziegler22()
    sr = saito_check(A1)
    lat = intersection_lattice(A1, max_codim=3)
    fb = free_base_from_saito(sr)
    gens_src = minimal_generators(A1, "O", base=fb)
    src_multiset = gens_src.degree_multiset()
    for seed in seeds:
        h = _sample_generic_hyperplane(A1, seed, lat, A1.ell - 1)
        A = A1.add_hyperplane(h)
        sj = surjectivity_check(A, A.n - 1, kind="O", source_generators=gens_src)
        tgt_gens = sj.target_generators
        cut = tgt_gens.arrangement
        gens_A = minimal_generators(A, "O", base=fb)
        bt = betti_table(gens_A)
        sp = spog_detect(bt)
        cut_not_free = len(tgt_gens.degrees) > cut.ell
        extra = sorted(gens_A.degrees) == sorted(src_multiset + [-1])
        level_expected = -A.n + cut.n
        spog_ok = (
            sp is not None
            and sp.level == level_expected
            and sp.poexp == sorted(sr.exponents)
            and bt.certified_free_tail
        )
        ok = (
            sj.surjective
            and tgt_gens.degree_multiset() == src_multiset
            and cut_not_free
            and extra
            and spog_ok
        )
        rep.add(
            f"cut:ziegler22-seed{seed}",
            "free-plus-generic-hyperplane-bundle",
            ok,
            {
                "hyperplane": [str(c) for c in h.coeffs],
                "res_surjective": sj.surjective,
                "source_generators": src_multiset,
                "cut_generators": tgt_gens.degree_multiset(),
                "cut_not_free": cut_not_free,
                "full_generators": sorted(gens_A.degrees),
                "one_extra_generator_at_-1": extra,
                "betti_columns": bt.twist_multisets(),
                "spog": None if sp is None else {"poexp": sp.poexp, "level": sp.level},
                "expected_level": level_expected,
            },
        )


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def claim_euler_ledgers(rep: Report, seed: int):
    p = 1009
    F = GF(p)
    all_ok = True
    details = []
    for t in range(10):
        n = 4 + (t % 5)
        A = generic(n, 3, seed=seed * 37 + t, field=F)
        ledgers_d = euler_ledgers(A, "D", degree_range=(0, n))
        ledgers_o = euler_ledgers(A, "O", degree_range=(-n, 0))
        for i, (led_d, led_o) in enumerate(zip(ledgers_d, ledgers_o)):
            if not (led_d.exact and led_o.exact):
                all_ok = False
                details.append({"t": t, "i": i, "D": led_d.exact, "O": led_o.exact})
    rep.add(
        "properties:euler-exactness",
        "deletion-restriction-sequence-degreewise-exactness",
        all_ok,
        {"arrangements": 10, "field": f"F{p}", "failures": details},
    )


def claim_saito_hilbert(rep: Report):
    cases = []
    ok = True
    braid_ess, _ = braid(4).essentialize()
    z22 = ziegler22()
    zh = z22.add_hyperplane(LinearForm(QQ, [1, 1, 1, 0]))
    z_cut = restrict(zh, zh.n - 1).restricted
    for name, A in [
        ("boolean3", boolean(3)),
        ("boolean4", boolean(4)),
        ("braid4", braid_ess),
        ("grr3-3", grr3(3, GF(7))),
        ("grr3-4", grr3(4, GF(13))),
        ("ziegler22", z22),
        ("ziegler22-cut", z_cut),
    ]:
        res = saito_check(A)
        if not res.free:
            ok = False
            cases.append({"name": name, "free": False})
            continue
        # the sweep ends at the last exponent; later dims are the free ones
        dims_ok = all(
            res.generators.dims[d] == free_piece_dimension(A.ell, res.exponents, d)
            for d in range(max(res.exponents) + 1)
        )
        sum_ok = sum(res.exponents) == A.deg_Q()
        cases.append({"name": name, "exponents": res.exponents, "dims_ok": dims_ok, "sum_ok": sum_ok})
        ok = ok and dims_ok and sum_ok
    rep.add(
        "properties:saito-hilbert",
        "free-exponents-reproduce-graded-dimensions",
        ok,
        {"cases": cases},
    )


def claim_dichotomy(rep: Report):
    ok1, rows1, exps1 = restriction_size_dichotomy(grr3(3, GF(7)))
    ok2, rows2, exps2 = restriction_size_dichotomy(braid(4))
    rep.add(
        "properties:restriction-size-dichotomy",
        "free-rank3-restriction-size-dichotomy",
        ok1 and ok2,
        {
            "grr3": {"exponents": list(exps1), "sizes": sorted({s for _, s, _ in rows1})},
            "braid4": {"exponents": list(exps2), "sizes": sorted({s for _, s, _ in rows2})},
        },
    )


def claim_preparation(rep: Report, seed: int):
    ok = True
    checked = 0
    A = grr3(3, GF(7))
    for d in (-4, -3, -2, -1):
        for cv in graded_basis(A, "O", 1, d):
            for i in range(A.n):
                checked += 1
                if not preparation_check(cv, A, i):
                    ok = False
    F = GF(1009)
    for t in range(3):
        B = generic(5, 3, seed=seed * 11 + t, field=F)
        for cv in graded_basis(B, "O", 1, -2):
            for i in range(B.n):
                checked += 1
                if not preparation_check(cv, B, i):
                    ok = False
    rep.add(
        "properties:strong-preparation",
        "pole-coefficient-ideal-membership",
        ok,
        {"elements_checked": checked},
    )


def claim_duality(rep: Report):
    surviving, evidence = calibrate_duality_shift()
    calibrated = surviving == [0]
    from .arrangement import validate

    tables = []
    ok = calibrated
    for name, A, rng in [
        ("empty2", validate(QQ, [], ell=2), (-2, 3)),
        ("boolean2", boolean(2), (-4, 2)),
        ("grr3-3", grr3(3, GF(7)), (-10, 0)),
    ]:
        repd = duality_dimension_check(A, rng)
        tables.append({"name": name, "shift": repd.shift, "ok": repd.ok})
        ok = ok and repd.ok
    rep.add(
        "properties:duality-dimensions",
        "forms-vs-top-derivations-dimension-tables",
        ok,
        {"calibrated_offsets": surviving, "tables": tables},
    )


def claim_addition_deletion(rep: Report):
    ok = True
    rows = []
    chains = [("boolean4", boolean(4)), ("braid4", braid(4).essentialize()[0])]
    for name, A in chains:
        current = A
        for depth in range(2):
            for i in range(current.n):
                r = addition_deletion_check(current, i)
                if r.applicable and not r.consistent:
                    ok = False
                    rows.append({"chain": name, "depth": depth, "i": i})
            current = current.delete(0)
            if current.n <= current.ell:
                break
    rep.add(
        "properties:addition-deletion",
        "two-of-three-freeness-consistency",
        ok,
        {"failures": rows},
    )


def claim_pole_and_plus_one(rep: Report):
    ok_pole, rows = pole_degree_check(grr3(3, GF(7)))
    A = boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    count = plus_one_extension_count(A, A.n - 1)
    ok = ok_pole and count == 1
    rep.add(
        "properties:pole-degree-and-plus-one",
        "pole-degree-bound-and-single-extension",
        ok,
        {"pole_rows": len(rows), "plus_one_count": count},
    )


# ---------------------------------------------------------------------------
# generic-cut analysis (shared by the CLI subcommand)
# ---------------------------------------------------------------------------


def generic_cut_analysis(rep: Report, A1: Arrangement, hyper, seed: int, with_betti=True):
    """Analyze A1 + H for a hyperplane H, sampled and certified if absent.

    Reports the genericity certificate at every level, then the
    restriction-surjectivity / generator-comparison / extra-generator
    statements.  Those carry pass-fail status only when their hypotheses
    hold (ell >= 4, H fully generic and pd of the source 1-forms at most
    ell - 3); otherwise they are recorded as informational skips, and the
    resolution record cites the hypothesis failure.  At ell = 3 every cut
    has rank 2 and is free, so the cut of a free source has 2 generators
    against its 3.
    """
    if not A1.is_essential():
        raise ArrangementError("generic-cut needs an essential arrangement")
    if not A1.is_simple():
        raise ArrangementError("generic-cut needs a simple arrangement")
    ell = A1.ell
    lat = intersection_lattice(A1, max_codim=ell - 1)
    if hyper is None:
        hyper = _sample_generic_hyperplane(A1, seed, lat, ell - 1)
        rep.add("cut:sampled-hyperplane", "seeded-generic-hyperplane", True,
                {"coefficients": [str(c) for c in hyper.coeffs]})
    # the witness is a failing flat of least codim: level k holds iff its codim exceeds k
    try:
        _, witness = is_k_generic([hyper], A1, ell - 1, lattice=lat)
        genericity = {k: witness is None or witness.codim > k for k in range(1, ell)}
    except InLattice:
        genericity = dict.fromkeys(range(1, ell), False)
    fully = genericity.get(ell - 1, False)
    rep.add(
        "cut:genericity",
        "genericity-certificate-by-level",
        fully,
        {"levels": {str(k): v for k, v in genericity.items()}, "fully_generic": fully},
    )
    sr = saito_check(A1)
    fb = free_base_from_saito(sr) if sr.free else None
    gens_src = minimal_generators(A1, "O", base=fb)
    pd_src = 0 if sr.free else None
    if not sr.free and with_betti:
        bt_src = betti_table(gens_src)
        pd_src = bt_src.pd if bt_src.certified_free_tail else None
    hypothesis_ok = ell >= 4 and fully and pd_src is not None and pd_src <= ell - 3
    A = A1.add_hyperplane(hyper)
    sj = surjectivity_check(A, A.n - 1, kind="O", source_generators=gens_src)
    tgt_gens = sj.target_generators
    cut = tgt_gens.arrangement
    rep.add(
        "cut:surjectivity",
        "form-restriction-surjectivity",
        sj.surjective if hypothesis_ok else None,
        {
            "surjective": sj.surjective,
            "witness_degree": sj.witness_degree,
            "ledger": sj.ledger(),
            "hypothesis_holds": hypothesis_ok,
        },
    )
    same = tgt_gens.degree_multiset() == gens_src.degree_multiset()
    cut_not_free = len(tgt_gens.degrees) > cut.ell
    rep.add(
        "cut:generators",
        "generator-multiset-comparison",
        (same and cut_not_free) if hypothesis_ok else None,
        {
            "source": gens_src.degree_multiset(),
            "cut": tgt_gens.degree_multiset(),
            "equal_multisets": same,
            "cut_not_free": cut_not_free,
        },
    )
    gens_A = minimal_generators(A, "O", base=fb)
    extra_ok = sorted(gens_A.degrees) == sorted(gens_src.degree_multiset() + [-1])
    rep.add(
        "cut:extra-generator",
        "one-extra-generator-in-degree--1",
        extra_ok if hypothesis_ok else None,
        {"full_generators": sorted(gens_A.degrees), "expected_extra_degree": -1},
    )
    if not fully and not cut_not_free:
        cut_free = saito_check(cut)
        rep.add(
            "cut:free-non-contradiction",
            "non-generic-cut-freeness-is-consistent",
            True,
            {
                "cut_free": cut_free.free,
                "cut_exponents": cut_free.exponents,
                "note": "the hyperplane is not fully generic, so freeness of the"
                " cut does not contradict the generic-cut statements",
            },
        )
    if with_betti:
        bt = betti_table(gens_A)
        sp = spog_detect(bt)
        note = None
        if pd_src is not None and pd_src > ell - 3:
            note = (
                "hypothesis failure: pd of the source 1-forms is "
                f"{pd_src} > {ell - 3}, so the surjectivity statement does not apply"
            )
        elif ell < 4:
            note = (
                f"hypothesis failure: ell = {ell} < 4, where every cut is free,"
                " so the generic-cut statements do not apply"
            )
        rep.add(
            "cut:resolution",
            "resolution-and-projective-dimension",
            True,
            {
                "pd_source": pd_src,
                "pd_hypothesis_bound": ell - 3,
                "pd_hypothesis_satisfied": pd_src is not None and pd_src <= ell - 3,
                "betti_columns": bt.twist_multisets(),
                "pd_full": bt.pd,
                "certified": bt.certified_free_tail,
                "spog": None if sp is None else {"poexp": sp.poexp, "level": sp.level},
                "note": note,
            },
            uncertified=not bt.certified_free_tail,
        )


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_verification_suite(seed: int = 0, only=None, properties: bool = False, primes=None) -> Report:
    rep = Report(command="verify-paper", field_spec="Q + surrogate primes", seed=seed)
    tasks = [
        ("free:ziegler22", lambda r: claim_ziegler22_free(r)),
        ("free:ziegler22-cut", lambda r: claim_ziegler22_restriction(r)),
        ("generators:nine4d", lambda r: claim_nine4d(r)),
        ("critical:grr3", lambda r: claim_criticality_family(r, primes=primes)),
        ("cut:ziegler22", lambda r: claim_generic_cut_bundle(r, seeds=(seed + 101, seed + 202, seed + 303))),
    ]
    if properties:
        tasks += [
            ("properties:euler", lambda r: claim_euler_ledgers(r, seed)),
            ("properties:saito-hilbert", lambda r: claim_saito_hilbert(r)),
            ("properties:dichotomy", lambda r: claim_dichotomy(r)),
            ("properties:preparation", lambda r: claim_preparation(r, seed)),
            ("properties:duality", lambda r: claim_duality(r)),
            ("properties:addition-deletion", lambda r: claim_addition_deletion(r)),
            ("properties:pole-plus-one", lambda r: claim_pole_and_plus_one(r)),
        ]
    if only:
        tasks = [(name, fn) for name, fn in tasks if name.startswith(only) or only in name]
    for _, fn in tasks:
        _run_task(fn, rep)
    return rep


def _run_task(fn, rep: Report):
    try:
        fn(rep)
    except Exception as exc:  # claim failures must not abort the suite
        rep.add(
            f"error:{type(exc).__name__}",
            "claim-crashed",
            False,
            {"error": str(exc)},
        )
