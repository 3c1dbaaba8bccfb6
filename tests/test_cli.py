import json
import os

import pytest

from arrlog.cli import main


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--json", str(out)])
    return code, out.read_text()


def test_free_boolean(tmp_path, capsys):
    code, payload = run_cli(["free", "@boolean:3"], tmp_path, "a.json")
    assert code == 0
    doc = json.loads(payload)
    claim = doc["claims"][0]
    assert claim["data"]["free"] is True
    assert claim["data"]["exponents"] == [1, 1, 1]


def test_free_nonessential_input(tmp_path, capsys):
    code, payload = run_cli(["free", "@braid:3"], tmp_path, "b.json")
    assert code == 0
    doc = json.loads(payload)
    assert doc["claims"][0]["data"]["exponents"] == [1, 2]
    assert "essentialized" in doc["claims"][0]["data"]["note"]


EMPTY_FILE = "field Q\ndim 2\n"
MULTI_FILE = "field Q\ndim 3\n1 0 0 *2\n0 1 0\n0 0 1\n1 1 1\n"


def test_free_empty_arrangement(tmp_path, capsys):
    # no hyperplanes: the essentialization has rank 0, and the zero module is free
    path = tmp_path / "empty.arr"
    path.write_text(EMPTY_FILE)
    code, payload = run_cli(["free", str(path)], tmp_path, "e.json")
    assert code == 0
    data = json.loads(payload)["claims"][0]["data"]
    assert (data["free"], data["exponents"]) == (True, [])
    assert "essentialized" in data["note"]


def test_critical_counterexample_flag(tmp_path, capsys):
    code, payload = run_cli(
        ["critical", "@grr3:3", "--field", "Fp:7", "--k", "4"], tmp_path, "c.json"
    )
    assert code == 0
    data = json.loads(payload)["claims"][0]["data"]
    assert data["critical"] is True
    assert data["COUNTEREXAMPLE"] is True
    assert data["conjecture86_holds"] is False
    assert data["min_gap"] == 5


def test_critical_boolean_not_critical(tmp_path, capsys):
    code, payload = run_cli(
        ["critical", "@boolean:3", "--k", "1"], tmp_path, "d.json"
    )
    assert code == 0
    data = json.loads(payload)["claims"][0]["data"]
    assert data["critical"] is False
    assert data["COUNTEREXAMPLE"] is False


def test_lattice_grr3(tmp_path, capsys):
    code, payload = run_cli(
        ["lattice", "@grr3:3", "--field", "Fp:7"], tmp_path, "e.json"
    )
    data = json.loads(payload)["claims"][0]["data"]
    assert data["levels"]["1"] == 9
    # every plane meets the others in 4 lines: codim-2 flats have sizes
    # consistent with |A^H| = 4 for all H
    assert code == 0


def test_file_input(tmp_path, capsys):
    from arrlog.arrangement import format_arrangement
    from arrlog.library import boolean

    path = tmp_path / "arr.txt"
    path.write_text(format_arrangement(boolean(2)))
    code, payload = run_cli(["free", str(path)], tmp_path, "f.json")
    assert code == 0
    assert json.loads(payload)["claims"][0]["data"]["exponents"] == [1, 1]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field Q\ndim 2\n1 2 3\n")
    code = main(["free", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_json_determinism(tmp_path, capsys):
    _, p1 = run_cli(["omega", "@boolean:3"], tmp_path, "g1.json")
    _, p2 = run_cli(["omega", "@boolean:3"], tmp_path, "g2.json")
    assert p1 == p2
    _, p3 = run_cli(
        ["critical", "@grr3:4", "--field", "Fp:13", "--k", "6"], tmp_path, "g3.json"
    )
    _, p4 = run_cli(
        ["critical", "@grr3:4", "--field", "Fp:13", "--k", "6"], tmp_path, "g4.json"
    )
    assert p3 == p4


def test_verify_paper_only_filter(tmp_path, capsys):
    code, payload = run_cli(
        ["verify-paper", "--only", "critical:grr3"], tmp_path, "h.json"
    )
    assert code == 0
    doc = json.loads(payload)
    assert all(c["id"].startswith("critical:grr3") for c in doc["claims"])
    assert len(doc["claims"]) == 3


def test_oversized_modulus_exit_code(capsys):
    code = main(["omega", "@nine4d", "--field", "Fp:2305843009213693951"])
    assert code == 2
    assert "2**28" in capsys.readouterr().err


def test_reconstruction_failed_exit_code(monkeypatch, capsys):
    import arrlog.cli
    from arrlog.modular import ReconstructionFailed

    def fail(args, kind):
        raise ReconstructionFailed("no certified kernel after 64 primes (pivot groups: [64])")

    monkeypatch.setattr(arrlog.cli, "cmd_generators", fail)
    assert main(["omega", "@boolean:3"]) == 2
    assert capsys.readouterr().err == "error: no certified kernel after 64 primes (pivot groups: [64])\n"


# generic-cut: (input, extra flags) -> (record id, status) in report order
GENERIC_CUT_RECORDS = {
    ("@boolean:4",): [
        ("cut:sampled-hyperplane", "pass"),
        ("cut:genericity", "pass"),
        ("cut:surjectivity", "pass"),
        ("cut:generators", "pass"),
        ("cut:extra-generator", "pass"),
        ("cut:resolution", "pass"),
    ],
    ("@generic:n=5,ell=3,seed=1",): [
        ("cut:sampled-hyperplane", "pass"),
        ("cut:genericity", "pass"),
        ("cut:surjectivity", "skip"),
        ("cut:generators", "skip"),
        ("cut:extra-generator", "skip"),
        ("cut:resolution", "pass"),
    ],
    ("@generic:n=5,ell=3,seed=1", "--field", "Fp:1009"): [
        ("cut:sampled-hyperplane", "pass"),
        ("cut:genericity", "pass"),
        ("cut:surjectivity", "skip"),
        ("cut:generators", "skip"),
        ("cut:extra-generator", "skip"),
        ("cut:resolution", "pass"),
    ],
    ("@boolean:3",): [
        ("cut:sampled-hyperplane", "pass"),
        ("cut:genericity", "pass"),
        ("cut:surjectivity", "skip"),
        ("cut:generators", "skip"),
        ("cut:extra-generator", "skip"),
        ("cut:resolution", "pass"),
    ],
}


@pytest.mark.parametrize(
    "args", list(GENERIC_CUT_RECORDS), ids=["boolean4", "generic5-QQ", "generic5-F1009", "boolean3"]
)
def test_generic_cut_records(args, tmp_path, capsys):
    code, p1 = run_cli(["generic-cut", *args], tmp_path, "gc1.json")
    _, p2 = run_cli(["generic-cut", *args], tmp_path, "gc2.json")
    assert code == 0
    assert p1 == p2
    claims = json.loads(p1)["claims"]
    assert [(c["id"], c["status"]) for c in claims] == GENERIC_CUT_RECORDS[args]
    data = {c["id"]: c["data"] for c in claims}
    if args == ("@boolean:4",):
        assert data["cut:generators"]["cut"] == [-1, -1, -1, -1]
        assert data["cut:resolution"]["betti_columns"] == [[-1] * 5, [0]]
    elif args == ("@boolean:3",):
        # at ell = 3 the cut has rank 2 and is free: the theorem needs ell >= 4
        assert data["cut:surjectivity"]["hypothesis_holds"] is False
        assert data["cut:generators"]["cut"] == [-2, -1]
        assert "ell = 3 < 4" in data["cut:resolution"]["note"]
    else:
        # the cut of a non-free arrangement: the generic-cut hypothesis fails
        ledger = data["cut:surjectivity"]["ledger"]
        assert [(r["degree"], r["target_dim"], r["image_dim"]) for r in ledger] == [
            (-4, 1, 0), (-3, 2, 0), (-2, 3, 0), (-1, 5, 5)
        ]
        assert data["cut:generators"]["cut"] == [-4, -1]
        assert data["cut:resolution"]["betti_columns"] == [[-1] * 6, [0, 0, 0]]
        assert data["cut:resolution"]["pd_source"] == 1


def test_generic_cut_without_generic_hyperplane_exit_code(capsys):
    # over F_7 no sampled plane is generic for grr3(3): a typed error, not a traceback
    assert main(["generic-cut", "@grr3:3", "--field", "Fp:7"]) == 2
    assert capsys.readouterr().err == "error: no generic hyperplane found for seed 0\n"


@pytest.mark.parametrize(
    "args",
    [
        ["omega", "@boolean:3", "--seed", "1"],
        ["lattice", "@boolean:3", "--bound", "2"],
        ["generic-cut", "@boolean:4", "--primes", "7"],
        ["verify-paper", "--field", "Q"],
        ["verify-paper", "--bound", "3"],
    ],
    ids=["omega-seed", "lattice-bound", "generic-cut-primes", "verify-paper-field", "verify-paper-bound"],
)
def test_unread_options_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_free_bound_and_generic_cut_seed(tmp_path, capsys):
    code, payload = run_cli(["free", "@braid:4", "--bound", "2"], tmp_path, "fb.json")
    assert code == 0
    data = json.loads(payload)["claims"][0]["data"]
    assert (data["free"], data["reason"], data["generator_degrees"]) == (False, "not free up to bound", [1, 2])
    _, seed0 = run_cli(["generic-cut", "@boolean:4", "--skip-betti"], tmp_path, "s0.json")
    code, seed3 = run_cli(["generic-cut", "@boolean:4", "--skip-betti", "--seed", "3"], tmp_path, "s3.json")
    assert code == 0
    assert json.loads(seed3)["seed"] == 3

    def sampled(payload):
        return json.loads(payload)["claims"][0]["data"]["coefficients"]

    assert sampled(seed3) != sampled(seed0)


@pytest.mark.parametrize(
    "args, text",
    [
        (["omega", "@boolean:3", "--degrees", "3"], None),
        (["omega", "@boolean:3", "--degrees", "a:b"], None),
        (["omega", "@boolean:3", "--degrees", "0:-3"], None),
        (["generic-cut", "@boolean:3", "--hyperplane", "0,0,0"], None),
        (["generic-cut", "@boolean:3", "--hyperplane", "1,2"], None),
        (["lattice"], "field Q\ndim x\n1 0\n"),
        (["lattice"], "field Q\ndim 2\n1 0 *x\n"),
        (["lattice"], "field Fp 6\ndim 2\n1 0\n"),
        (["lattice", "@boolean:3", "--field", "Fp:6"], None),
        (["lattice", "@boolean:3", "--field", " "], None),
        (["lattice", "@boolean:x"], None),
        (["lattice", "@boolean:3", "--max-codim", "-1"], None),
        (["verify-paper", "--primes", "x"], None),
        (["generic-cut", "@braid:n=4"], None),
        (["lattice"], "field Q\ndim 0\n"),
        (["lattice"], "field Q\ndim 2\n1 0 *0\n"),
        (["lattice"], "field Q\ndim 2\n1/0 1\n"),
        (["generic-cut"], MULTI_FILE),
        (["lattice", "@boolean:0"], None),
    ],
    ids=[
        "degrees-one-number", "degrees-not-integers", "degrees-reversed", "hyperplane-zero", "hyperplane-short",
        "file-dim", "file-multiplicity", "file-field", "field-option", "field-blank", "library-parameter",
        "max-codim", "primes-option", "generic-cut-nonessential", "file-dim-zero", "file-multiplicity-zero",
        "file-zero-denominator", "generic-cut-multiarrangement", "library-boolean-zero",
    ],
)
def test_malformed_input_is_a_typed_error(args, text, tmp_path, capsys):
    if text is not None:
        path = tmp_path / "bad.arr"
        path.write_text(text)
        args = args + [str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


SMOKE_COMMANDS = [["lattice"], ["free"], ["omega"], ["dmodule"], ["betti"], ["critical", "--k", "1"], ["generic-cut"]]
SMOKE_INPUTS = [["@boolean:1"], ["@boolean:3"], ["@braid:n=4"], ["@braid:n=1"], ["@generic:n=5,ell=3,seed=1", "--field", "Fp:1009"]]
SMOKE_FILES = {"empty.arr": EMPTY_FILE, "multi.arr": MULTI_FILE}


def test_every_subcommand_ends_in_a_report_or_a_typed_error(tmp_path, capsys):
    # every subcommand but verify-paper, on a free, a non-essential, an
    # F_p, two empty (a library reference and a file) and a
    # multiarrangement input: a report with exit 0 or 1, or one error line
    # with exit 2
    for name, text in SMOKE_FILES.items():
        (tmp_path / name).write_text(text)
    inputs = SMOKE_INPUTS + [[str(tmp_path / name)] for name in SMOKE_FILES]
    for command in SMOKE_COMMANDS:
        for ref in inputs:
            code = main([command[0], *ref, *command[1:]])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (command, ref)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error: ") and len(err.splitlines()) == 1, (command, ref, err)
            else:
                assert out and not err, (command, ref)
