"""Command-line front end.

    arrlog <subcommand> [options] <input>

Subcommands: lattice, free, omega, dmodule, betti, critical, generic-cut,
verify-paper.  Inputs are arrangement files (see arrangement.py for the
format) or library references like @ziegler22, @grr3:3, @boolean:4,
@generic:n=5,ell=3,seed=1.  The JSON report (via --json) is deterministic
for fixed flags; timing only appears in the human-readable output.
"""

from __future__ import annotations

import argparse
import sys
import time

from .arrangement import Arrangement, ArrangementError, parse_arrangement
from .checks import criticality_check
from .fields import parse_field
from .lattice import characteristic_polynomial, intersection_lattice
from .library import parse_library_ref
from .poly import LinearForm
from .report import Report
from .resolution import betti_table, spog_detect
from .solver import minimal_generators, saito_check


def _add_common(p):
    p.add_argument("input", help="arrangement file or @library[:params]")
    p.add_argument("--field", default=None, help="Q or Fp:<p> (library inputs)")
    p.add_argument("--json", dest="json_out", default=None, help="write JSON report here")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="arrlog",
        description="exact logarithmic derivation/form modules of hyperplane arrangements",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="intersection lattice and characteristic polynomial")
    _add_common(p)
    p.add_argument("--max-codim", type=int, default=None)

    p = sub.add_parser("free", help="Saito freeness certificate")
    _add_common(p)
    p.add_argument("--bound", type=int, default=None, help="degree bound of the sweep")

    p = sub.add_parser("omega", help="minimal generators of the 1-forms")
    _add_common(p)
    p.add_argument("--degrees", default=None, help="a:b degree window")

    p = sub.add_parser("dmodule", help="minimal generators of the derivations")
    _add_common(p)
    p.add_argument("--degrees", default=None, help="a:b degree window")

    p = sub.add_parser("betti", help="truncated minimal free resolution")
    _add_common(p)
    p.add_argument("--side", choices=["O", "D"], default="O")

    p = sub.add_parser("critical", help="k-criticality ledger")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("generic-cut", help="generic hyperplane cut analysis")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled hyperplane")
    p.add_argument("--hyperplane", default=None, help="comma coefficients; sampled if absent")
    p.add_argument("--skip-betti", action="store_true", help="skip the resolution comparison")

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--primes", default=None, help="comma list of surrogate primes")
    p.add_argument("--seed", type=int, default=0, help="seed of the seeded claims")
    p.add_argument("--json", dest="json_out", default=None, help="write JSON report here")
    p.add_argument("--only", default=None, help="claim id prefix filter")
    p.add_argument("--properties", action="store_true", help="include the property suites")
    return ap


def load_arrangement(args) -> Arrangement:
    try:
        field = parse_field(args.field) if args.field else None
    except ValueError as exc:
        raise ArrangementError(f"bad --field {args.field!r}: {exc}") from exc
    if args.input.startswith("@"):
        return parse_library_ref(args.input, field=field)
    with open(args.input) as fh:
        A = parse_arrangement(fh.read())
    if field is not None and A.field != field:
        raise ArrangementError("file declares a different field than --field")
    return A


def _field_name(A: Arrangement) -> str:
    return A.field.name


def cmd_lattice(args) -> Report:
    A = load_arrangement(args)
    rep = Report(command="lattice " + args.input, field_spec=_field_name(A))
    lat = intersection_lattice(A, max_codim=args.max_codim)
    level_data = {}
    for k in range(len(lat.levels)):
        flats = lat.flats(k)
        level_data[k] = {
            "count": len(flats),
            "flats": [
                {"members": sorted(F.members), "mu": F.mu} for F in flats
            ],
        }
    chi = characteristic_polynomial(A, lat if lat.max_codim >= A.essential_rank else None)
    rep.add(
        "lattice",
        "intersection-lattice",
        True,
        {
            "n": A.n,
            "essential_rank": A.essential_rank,
            "levels": {str(k): v["count"] for k, v in level_data.items()},
            "mu": {str(k): [F["mu"] for F in v["flats"]] for k, v in level_data.items()},
            "characteristic_polynomial": list(chi),
        },
    )
    return rep


def cmd_free(args) -> Report:
    A = load_arrangement(args)
    rep = Report(command="free " + args.input, field_spec=_field_name(A))
    B = A
    note = None
    if B.essential_rank != B.ell:
        B, _ = B.essentialize()
        note = f"essentialized from dimension {A.ell} to rank {B.ell}"
    res = saito_check(B, degree_bound=args.bound)
    data = {
        "free": res.free,
        "exponents": res.exponents,
        "reason": res.reason,
        "generator_degrees": res.generators.degrees if res.generators else None,
    }
    if note:
        data["note"] = note
    rep.add("saito", "saito-criterion", True, data)
    return rep


def _parse_window(spec, default):
    if spec is None:
        return default
    try:
        a, b = map(int, spec.split(":"))
    except ValueError:
        raise ArrangementError(f"bad degree window {spec!r}: expected a:b with integers a and b") from None
    if a > b:
        raise ArrangementError(f"bad degree window {spec!r}: {a} > {b}")
    return (a, b)


def cmd_generators(args, kind: str) -> Report:
    A = load_arrangement(args)
    name = "omega" if kind == "O" else "dmodule"
    rep = Report(command=f"{name} {args.input}", field_spec=_field_name(A))
    window = _parse_window(getattr(args, "degrees", None), None)
    gs = minimal_generators(A, kind, degree_range=window)
    rep.add(
        name,
        f"{name}-minimal-generators",
        True,
        {
            "degrees": gs.degree_multiset(),
            "by_degree": {str(k): v for k, v in gs.count_by_degree().items()},
            "dims": {str(d): gs.dims[d] for d in sorted(gs.dims)},
            "window": list(gs.degree_bound_used),
        },
    )
    return rep


def cmd_betti(args) -> Report:
    A = load_arrangement(args)
    rep = Report(command=f"betti {args.input}", field_spec=_field_name(A))
    bt = betti_table(minimal_generators(A, args.side))
    sp = spog_detect(bt)
    rep.add(
        "betti",
        "graded-betti-table",
        True,
        {
            "columns": [sorted(c.twists) for c in bt.columns],
            "pd": bt.pd,
            "validity_bound": bt.validity_bound,
            "certified_free_tail": bt.certified_free_tail,
            "hilbert_ok": bt.hilbert_ok,
            "spog": None
            if sp is None
            else {"poexp": sp.poexp, "level": sp.level},
            "notes": bt.notes,
        },
        uncertified=not bt.certified_free_tail,
    )
    return rep


def cmd_critical(args) -> Report:
    A = load_arrangement(args)
    rep = Report(command=f"critical {args.input} k={args.k}", field_spec=_field_name(A))
    cr = criticality_check(A, args.k)
    counterexample = cr.critical and cr.min_gap > args.k
    rep.add(
        "critical",
        "k-criticality",
        True,
        {
            "k": args.k,
            "critical": cr.critical,
            "dim_full": cr.dim_full,
            "deletion_dims": cr.deletion_dims,
            "gaps": cr.gaps,
            "min_gap": cr.min_gap,
            "conjecture86_holds": cr.conjecture86_holds,
            "COUNTEREXAMPLE": counterexample,
        },
    )
    return rep


def cmd_generic_cut(args) -> Report:
    from .claims import generic_cut_analysis

    A = load_arrangement(args)
    rep = Report(
        command=f"generic-cut {args.input}",
        field_spec=_field_name(A),
        seed=args.seed,
    )
    hyper = None
    if args.hyperplane:
        tokens = args.hyperplane.split(",")
        if len(tokens) != A.ell:
            raise ArrangementError(f"--hyperplane needs {A.ell} coefficients, got {len(tokens)}")
        try:
            hyper = LinearForm(A.field, [A.field.parse(c) for c in tokens])
        except (ValueError, ZeroDivisionError) as exc:
            raise ArrangementError(f"bad --hyperplane {args.hyperplane!r}: {exc}") from exc
    generic_cut_analysis(rep, A, hyper, seed=args.seed, with_betti=not args.skip_betti)
    return rep


def cmd_verify_paper(args) -> Report:
    from .claims import run_verification_suite

    try:
        primes = [int(p) for p in args.primes.split(",")] if args.primes else None
    except ValueError:
        raise ArrangementError(f"bad --primes {args.primes!r}: expected comma-separated integers") from None
    return run_verification_suite(seed=args.seed, only=args.only, properties=args.properties, primes=primes)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        if args.command == "lattice":
            rep = cmd_lattice(args)
        elif args.command == "free":
            rep = cmd_free(args)
        elif args.command == "omega":
            rep = cmd_generators(args, "O")
        elif args.command == "dmodule":
            rep = cmd_generators(args, "D")
        elif args.command == "betti":
            rep = cmd_betti(args)
        elif args.command == "critical":
            rep = cmd_critical(args)
        elif args.command == "generic-cut":
            rep = cmd_generic_cut(args)
        elif args.command == "verify-paper":
            rep = cmd_verify_paper(args)
        else:  # pragma: no cover
            ap.error(f"unknown command {args.command}")
    except (ArrangementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.wall_time = time.time() - t0
    print(rep.human())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(rep.to_json())
    return rep.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
