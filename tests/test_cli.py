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
        raise ReconstructionFailed("no stable kernel after 48 primes")

    monkeypatch.setattr(arrlog.cli, "cmd_generators", fail)
    assert main(["omega", "@boolean:3"]) == 2
    assert capsys.readouterr().err == "error: no stable kernel after 48 primes\n"
