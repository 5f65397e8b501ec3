import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qpolykit import tridiagonal
from qpolykit.cli import main
from qpolykit.families import petersen
from qpolykit.graphs import emit_graph6


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
