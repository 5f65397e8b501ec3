import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolykit import tridiagonal
from qpolykit.cli import main
from qpolykit.families import petersen
from qpolykit.graphs import emit_graph6
from qpolykit.serialize import rat_str


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qpolykit.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_check_graph_petersen_exit0():
    proc = run_cli("check-graph", "--family", "petersen", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["pair_bound"]["equality_everywhere"] is True
    assert report["classification"]["strongly_regular"] is True


def test_check_graph_heawood_triple_branch():
    proc = run_cli("check-graph", "--family", "heawood", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    branches = report["triple_bound"]["branches"]
    assert branches[0]["equality"] is True
    assert report["pair_bound"]["equality_everywhere"] is False


def test_check_graph_bad_input_exit1(tmp_path: Path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"D\x05\x05")
    proc = run_cli("check-graph", "--input", str(bad))
    assert proc.returncode == 1
    assert "input error" in proc.stderr
    proc = run_cli("check-graph", "--input", str(tmp_path / "missing.g6"))
    assert proc.returncode == 1


def test_check_graph_file_roundtrip(tmp_path: Path):
    f = tmp_path / "p.g6"
    f.write_text(emit_graph6(petersen()) + "\n")
    proc = run_cli("check-graph", "--input", str(f), "--output", "json")
    assert proc.returncode == 0


def test_check_scheme_from_graph():
    proc = run_cli("check-scheme", "--from-graph", "heawood", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["classification"]["dual_tight"] is True
    assert report["classification"]["design_params"] == [7, 3, 1]


def test_check_scheme_krein_inline():
    proc = run_cli(
        "check-scheme",
        "--krein",
        '{"type":"krein_array","class":3,"m":"6","b_star":["6","3","1"],"c_star":["1","3","6"]}',
        "--output",
        "json",
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    entry = report["orderings"][0]
    assert entry["dual_fundamental_bound"]["dual_tight"] is True
    assert entry["audit"]["b2star_is_1"] is True


def test_check_scheme_petersen_exit0():
    proc = run_cli("check-scheme", "--from-graph", "petersen", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["q_polynomial"] is True
    assert len(report["orderings"]) == 2


def test_check_scheme_non_q_poly_via_file(tmp_path: Path):
    from qpolykit.families import line_graph
    from qpolykit.schemes import scheme_from_graph

    s = scheme_from_graph(line_graph(petersen()))
    f = tmp_path / "scheme.json"
    f.write_text(json.dumps(s.to_json_dict()))
    proc = run_cli("check-scheme", "--input", str(f), "--format", "json", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["q_polynomial"] is False


def test_check_graph_out_of_scope_checks_are_skipped():
    # a complete graph is valid input; the pair bound does not apply to it
    proc = run_cli("check-graph", "--family", "complete:n=4", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "skipped" in report["pair_bound"]


@pytest.mark.parametrize("output", ["text", "json"])
def test_check_scheme_class1_skips_the_dual_checks(tmp_path: Path, capsys, output):
    # a one-relation scheme is valid input outside the D >= 2 hypotheses
    f = tmp_path / "k3.json"
    f.write_text(json.dumps({"type": "relations", "n": 3, "relations": [[[0, 1], [0, 2], [1, 2]]]}))
    for argv in (["--from-graph", "complete:n=4"], ["--input", str(f), "--format", "json"]):
        assert main(["check-scheme", *argv, "--output", output]) == 0
        out = capsys.readouterr().out
        if output == "json":
            report = json.loads(out)
            assert report["alarms"] == [] and report["class"] == 1
            assert [o["dual_checks"] for o in report["orderings"]] == [{"skipped": "the dual checks need class at least 2"}]
        else:
            assert "dual checks: skipped" in out and "ALARM" not in out


HUGE_KREIN = '{"type":"krein_array","class":3,"m":"1e400","b_star":["1e400","5","1"],"c_star":["1","5","1e400"]}'


@pytest.mark.parametrize(
    "subcommand, text, message",
    [
        ("check-graph", '{"n":3,"edges":null}', "'edges' must be a list"),
        ("check-graph", '{"n":true,"edges":[]}', "'n' must be an integer"),
        ("check-scheme", '{"type":"relations","n":3,"relations":5}', "'relations' must be a list"),
        ("check-scheme", '{"type":"relations","n":true,"relations":[]}', "'n' must be an integer"),
        ("check-scheme", None, "float range"),
    ],
)
@pytest.mark.parametrize("output", ["text", "json"])
def test_malformed_json_exit1_with_a_message(tmp_path: Path, capsys, subcommand, text, message, output):
    if text is None:
        argv = ["--krein", HUGE_KREIN]
    else:
        f = tmp_path / "input.json"
        f.write_text(text)
        argv = ["--input", str(f), "--format", "json"]
    assert main([subcommand, *argv, "--output", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# -- the Krein JSON that check-scheme --krein reads, fuzzed ------------------------------

KREIN_FIELDS = ("type", "class", "m", "b_star", "c_star")
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def krein_documents(draw):
    """A class 2-4 Krein array of small rationals, then at most one field broken.

    Half the arrays meet the row-sum condition by construction (each row of
    b_i*, a_i*, c_i* splits m), the other half draw every entry freely.
    """
    d = draw(st.integers(2, 4))
    m = draw(st.fractions(min_value=F(1, 3), max_value=8, max_denominator=3))
    parts = st.integers(0, 4)
    if draw(st.booleans()):
        m += 1  # row 1 splits m - 1 between b_1* and a_1*, as c_1* = 1
        x, y = draw(parts) + 1, draw(parts)
        b, c = [m, (m - 1) * x / (x + y)], [F(1)]
        for i in range(2, d + 1):
            x, y, z = draw(parts) + 1, draw(parts), draw(parts) + 1
            if i < d:
                b.append(m * x / (x + y + z))
            c.append(m * z / (x + y + z) if i < d else m * z / (y + z))
    else:
        small = st.fractions(min_value=F(1, 3), max_value=8, max_denominator=3)
        b = [m] + [draw(small) for _ in range(d - 1)]
        c = [F(1)] + [draw(small) for _ in range(d - 1)]
    doc = {
        "type": "krein_array",
        "class": d,
        "m": rat_str(m),
        "b_star": [rat_str(v) for v in b],
        "c_star": [rat_str(v) for v in c],
    }
    field = draw(st.sampled_from(KREIN_FIELDS))
    change = draw(st.sampled_from(["none", "none", "drop", "retype", "retype_entry", "document"]))
    if change == "drop":
        del doc[field]
    elif change == "retype":
        doc[field] = draw(junk)
    elif change == "retype_entry" and field in ("b_star", "c_star"):
        doc[field][draw(st.integers(0, d - 1))] = draw(junk)
    elif change == "document":
        doc = draw(junk)
    return doc


@settings(max_examples=80, deadline=None)
@given(krein_documents(), st.sampled_from(["text", "json"]))
def test_krein_input_checks_or_is_an_input_error(doc, output):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-scheme", f"--krein={json.dumps(doc)}", "--output", output])
    assert code in (0, 1), (doc, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == err.getvalue().startswith("input error: ")


@pytest.mark.parametrize(
    "b_star, c_star, problem",
    [
        (["7", "4/3", "1/2"], ["1", "4", "13/2"], "dual fundamental bound violated"),
        (["4", "2", "3"], ["1", "1", "2"], "dual-tight audit failed"),  # a_3* = 2
    ],
)
@pytest.mark.parametrize("output", ["text", "json"])
def test_krein_array_failing_a_scheme_theorem_is_a_finding(capsys, b_star, c_star, problem, output):
    # such an array belongs to no scheme the theorem covers: exit 0, not an alarm
    doc = {"type": "krein_array", "class": 3, "m": b_star[0], "b_star": b_star, "c_star": c_star}
    assert main(["check-scheme", "--krein", json.dumps(doc), "--output", output]) == 0
    out = capsys.readouterr().out
    if output == "json":
        report = json.loads(out)
        assert report["alarms"] == []
        ordering = report["orderings"][0]
        assert ordering["dual_fundamental_bound"]["holds"] is (problem != "dual fundamental bound violated")
        assert ordering.get("audit", {"all_passed": False})["all_passed"] is False
    else:
        assert f"  finding: {problem} on a Krein array, which need not belong to a scheme" in out.splitlines()


def test_property_suite_smoke_exit0():
    proc = run_cli("property-suite", "--seed", "42", "--n", "10", "--graphs", "2", "--output", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["violations"] == 0


def test_property_suite_fault_injection_exit2(capsys, monkeypatch):
    real = tridiagonal.interlacing_check
    calls = []

    def flip(rep):
        calls.append(rep)
        result = real(rep)
        return replace(result, passed=False) if len(calls) == 4 else result

    monkeypatch.setattr(tridiagonal, "interlacing_check", flip)
    code = main(["property-suite", "--seed", "9", "--n", "5", "--graphs", "0", "--output", "json"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violation"]["index"] == 3
    assert report["violation"]["seed"] == 9
    assert report["violation"]["problems"] == ["interlacing failed"]
    assert "system" in report["violation"]


def test_property_suite_deterministic():
    p1 = run_cli("property-suite", "--seed", "7", "--n", "12", "--graphs", "2", "--output", "json")
    p2 = run_cli("property-suite", "--seed", "7", "--n", "12", "--graphs", "2", "--output", "json")
    assert p1.stdout == p2.stdout and p1.returncode == 0


def test_check_graph_deterministic():
    p1 = run_cli("check-graph", "--family", "icosahedron", "--output", "json")
    p2 = run_cli("check-graph", "--family", "icosahedron", "--output", "json")
    assert p1.stdout == p2.stdout


def test_scan_cli():
    proc = run_cli("scan", "--m-max", "4", "--output", "json")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["command"] == "scan"
    assert summary["tallies"]["candidates"] == len(lines) - 1
    proc2 = run_cli("scan", "--m-max", "4", "--output", "json")
    assert proc.stdout == proc2.stdout


def test_scan_empty_grid_exit1():
    proc = run_cli("scan", "--m-max", "1")
    assert proc.returncode == 1


def test_scan_free_c3_has_a3_column():
    proc = run_cli("scan", "--m-max", "3", "--free-c3")
    lines = proc.stdout.strip().splitlines()
    recs = [json.loads(x) for x in lines[:-1]]
    assert any(r["a3_star"] != "0" for r in recs)


def test_main_entrypoint_in_process(capsys):
    code = main(["check-graph", "--family", "c5" if False else "cycle:n=5", "--output", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pair_bound"]["equality_everywhere"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["check-graph", "--family", "petersen", "--output", "xml"],
        ["property-suite", "--n", "abc"],
        ["check-graph", "--bogus"],
        [],
        ["property-suite", "--n", "-5"],
        ["property-suite", "--graphs", "-1"],
        ["check-graph", "--family", "petersen", "--seed", "1"],
        ["scan", "--step", "1/0"],
    ],
)
def test_usage_errors_exit1_without_traceback(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, obj, subcommand",
    [
        ("graph.json", {"n": 10**9, "edges": []}, "check-graph"),
        ("scheme.json", {"type": "relations", "n": 10**9, "relations": []}, "check-scheme"),
    ],
)
def test_oversize_file_exit1_naming_the_limit(tmp_path: Path, capsys, name, obj, subcommand):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    assert main([subcommand, "--input", str(path), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "512" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        "hamming:d=30,q=2",
        "cube:d=1000000000",
        "johnson:n=1000000,k=3",
        "cycle:n=1000000000",
        "complete:n=513",
        "complete_bipartite:a=300,b=300",
    ],
)
def test_oversize_family_exit1_naming_the_limit(capsys, spec):
    assert main(["check-graph", "--family", spec]) == 1
    err = capsys.readouterr().err
    assert "512" in err and "Traceback" not in err


def test_size_limit_admits_hamming_9_2():
    from qpolykit.families import hamming
    from qpolykit.graphs import MAX_VERTICES

    assert hamming(9, 2).n == MAX_VERTICES == 512
