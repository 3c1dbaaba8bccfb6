from arrlog.cli import main
from arrlog.report import Report


def _report(seconds):
    rep = Report(command="free @boolean:3", field_spec="Q", seed=0)
    rep.add("free:a", "anchor-a", True, {"exponents": [1, 1, 1]})
    rep.add("free:bb", "anchor-b", False, {"free": False})
    for c, s in zip(rep.claims, seconds):
        c.seconds = s
    return rep


def test_claim_time_in_human_table_only():
    fast, slow = _report([0.25, 1.5]), _report([12.0, 0.125])
    lines = fast.human().splitlines()
    assert "free:a   PASS      0.25s" in lines
    assert "free:bb  FAIL      1.50s" in lines
    assert "free:a   PASS     12.00s" in slow.human().splitlines()
    # the JSON holds no timing: reports that differ only in time are identical
    assert fast.to_json() == slow.to_json()
    assert "seconds" not in fast.to_json()
    assert fast.claims == slow.claims


def test_claim_time_is_the_time_since_the_previous_record():
    rep = Report(command="c", field_spec="Q")
    rep.add("a", "anchor", True)
    rep.add("b", "anchor", True)
    assert all(c.seconds >= 0 for c in rep.claims)
    assert f"b  PASS  {rep.claims[1].seconds:8.2f}s" in rep.human().splitlines()


def test_cli_json_stays_identical_across_runs(tmp_path, capsys):
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["free", "@boolean:3", "--json", str(out)]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert b"seconds" not in payloads[0]
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("saito")]
    assert len(rows) == 2
    assert all(row[:2] == ["saito", "PASS"] and row[2].endswith("s") and float(row[2][:-1]) >= 0 for row in rows)
