"""JSON reports compared byte for byte with the files under tests/golden/.

A refactor that must not change any answer is checked here: each CLI case
reruns one subcommand and compares its `--json` output with the committed
file, and `tests/test_acceptance.py` compares the reports of criteria 2-6
the same way (`assert_golden`).

Regenerate every file, after a change that is meant to alter an answer:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

CLI_CASES = {
    "generic-cut-boolean4": ["generic-cut", "@boolean:4"],
    "generic-cut-generic5-q": ["generic-cut", "@generic:n=5,ell=3,seed=1"],
    "generic-cut-generic5-fp1009": ["generic-cut", "@generic:n=5,ell=3,seed=1", "--field", "Fp:1009"],
    "generic-cut-ziegler22-seed4": ["generic-cut", "@ziegler22", "--seed", "4", "--skip-betti"],
    "critical-grr3-4-fp13": ["critical", "@grr3:4", "--field", "Fp:13", "--k", "6"],
    "omega-nine4d": ["omega", "@nine4d"],
    "free-ziegler22": ["free", "@ziegler22"],
    "dmodule-braid5": ["dmodule", "@braid:n=5"],
    "verify-paper-free-ziegler22": ["verify-paper", "--only", "free:ziegler22"],
}


def cli_json(args, path) -> str:
    from arrlog.cli import main

    main(args + ["--json", str(path)])
    return Path(path).read_text()


def assert_golden(name: str, text: str):
    assert text == (GOLDEN / f"{name}.json").read_text(), name


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_its_golden(name, tmp_path, capsys):
    assert_golden(name, cli_json(CLI_CASES[name], tmp_path / "out.json"))


def acceptance_reports():
    """The reports of acceptance criteria 2-6, built as tests/test_acceptance.py builds them."""
    from arrlog.claims import (
        claim_criticality_family,
        claim_generic_cut_bundle,
        claim_nine4d,
        claim_ziegler22_restriction,
        run_verification_suite,
    )
    from arrlog.report import Report

    out = {}
    for name, claim in (
        ("criterion-2", claim_ziegler22_restriction),
        ("criterion-3", claim_nine4d),
        ("criterion-4", claim_criticality_family),
        ("criterion-5", lambda rep: claim_generic_cut_bundle(rep, seeds=(101, 202, 303))),
    ):
        rep = Report(command="acceptance", field_spec="Q")
        claim(rep)
        out[name] = rep
    out["criterion-6"] = run_verification_suite(seed=0, only="properties", properties=True)
    return out


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CLI_CASES.items():
            (GOLDEN / f"{name}.json").write_text(cli_json(args, Path(tmp) / "out.json"))
    for name, rep in acceptance_reports().items():
        (GOLDEN / f"{name}.json").write_text(rep.to_json())
