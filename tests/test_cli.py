import contextlib
import importlib
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
from qpolykit.scanner import MAX_CANDIDATES
from qpolykit.schemes import MAX_CLASS, MAX_ENTRY_DIGITS, krein_array_structure
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


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "qpolykit", "check-graph", "--family", "petersen"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "distinct eigenvalues: 3 (x1), 1 (x5), -2 (x4)" in proc.stdout
    # importing the module, as tools that load every module do, runs nothing
    importlib.import_module("qpolykit.__main__")


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
    from helpers import line_graph
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
        ("check-scheme", '{"type":"relations","n":0,"relations":[]}', "at least one point"),
        ("check-scheme", '{"type":"relations","n":2,"relations":[[[0,1]],[]]}', "relation 2 is empty"),
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


# -- the relation-list JSON that check-scheme --input reads, fuzzed ----------------------


@st.composite
def relation_documents(draw):
    """Relation lists on at most 6 points: free pair lists, or a random partition.

    Free lists draw n in -1..6 and 0-4 relations of pairs from -1..n, so
    out-of-range, diagonal, duplicate and empty relations all occur.  A
    partition splits every pair of 0..n-1 among 1-3 classes.
    """
    n = draw(st.integers(-1, 6))
    if draw(st.booleans()):
        pair = st.lists(st.integers(-1, n), min_size=2, max_size=2)
        relations = draw(st.lists(st.lists(pair, max_size=6), max_size=4))
    else:
        relations = [[] for _ in range(draw(st.integers(1, 3)))]
        for x in range(n):
            for y in range(x + 1, n):
                relations[draw(st.integers(0, len(relations) - 1))].append([x, y])
    return {"type": "relations", "n": n, "relations": relations}


@settings(max_examples=80, deadline=None)
@given(relation_documents(), st.sampled_from(["text", "json"]))
def test_relation_input_checks_or_is_an_input_error(tmp_path_factory, doc, output):
    f = tmp_path_factory.mktemp("relations") / "scheme.json"
    f.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-scheme", "--input", str(f), "--format", "json", "--output", output])
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


def test_property_suite_failed_invariant_exit2(capsys, monkeypatch):
    # an AssertionError inside the system checks is an alarm with a reproducer, not a traceback
    real = tridiagonal.spectrum

    def broken(system):
        if system.d == 4:
            raise AssertionError("forged broken invariant")
        return real(system)

    monkeypatch.setattr(tridiagonal, "spectrum", broken)
    code = main(["property-suite", "--seed", "9", "--n", "20", "--graphs", "0", "--output", "json"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    violation = report["violation"]
    assert violation["seed"] == 9
    assert violation["problems"] == ["internal invariant failed: forged broken invariant"]
    assert len(violation["system"]["alpha"]) == 5


def test_property_suite_deterministic():
    p1 = run_cli("property-suite", "--seed", "7", "--n", "12", "--graphs", "2", "--output", "json")
    p2 = run_cli("property-suite", "--seed", "7", "--n", "12", "--graphs", "2", "--output", "json")
    assert p1.stdout == p2.stdout and p1.returncode == 0


@pytest.mark.parametrize("design", ["fano", "biplane_11", "biplane_16"])
@pytest.mark.parametrize(
    "option", [["check-graph", "--family"], ["check-scheme", "--from-graph"]], ids=["check-graph", "check-scheme"]
)
def test_design_spec_where_a_graph_is_needed_exit1(capsys, design, option):
    # a design family names no graph; its incidence graph is the graph
    assert main([*option, design]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: family {design!r} is not a graph\n"


def test_check_graph_deterministic():
    p1 = run_cli("check-graph", "--family", "icosahedron", "--output", "json")
    p2 = run_cli("check-graph", "--family", "icosahedron", "--output", "json")
    assert p1.stdout == p2.stdout


def test_scan_cli():
    proc = run_cli("scan", "--m-max", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["command"] == "scan"
    assert summary["tallies"]["candidates"] == len(lines) - 1
    proc2 = run_cli("scan", "--m-max", "4")
    assert proc.stdout == proc2.stdout


def _krein_of_class(d: int, m: int | None = None) -> dict:
    """{m, 1, ..., 1; 1, ..., 1, m}, m = d + 1 by default: a valid array of any class d >= 2 for m > 2."""
    m = str(d + 1 if m is None else m)
    return {"type": "krein_array", "class": d, "m": m, "b_star": [m] + ["1"] * (d - 1), "c_star": ["1"] * (d - 1) + [m]}


@pytest.mark.parametrize("output", ["text", "json"])
def test_krein_class_size_policy_exit1(capsys, output, within):
    # checked before the entries are parsed, so an oversize class never runs for minutes
    assert krein_array_structure(_krein_of_class(MAX_CLASS)).d == MAX_CLASS
    assert within(1, main, ["check-scheme", "--krein", json.dumps(_krein_of_class(MAX_CLASS + 1)), "--output", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: class {MAX_CLASS + 1} exceeds the limit of {MAX_CLASS}\n"


@pytest.mark.parametrize("m", [10**300 + 7, 10**MAX_ENTRY_DIGITS + 1])
def test_krein_entry_size_policy_exit1(capsys, m, within):
    # a 300-digit entry once ran into a traceback from the 4300-digit limit on printing integers
    assert krein_array_structure(_krein_of_class(8, 10**MAX_ENTRY_DIGITS - 1)).d == 8
    assert within(1, main, ["check-scheme", "--krein", json.dumps(_krein_of_class(8, m))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: an entry exceeds the limit of {MAX_ENTRY_DIGITS} digits in numerator or denominator\n"


def test_scan_empty_grid_exit1():
    proc = run_cli("scan", "--m-max", "1")
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m-max", "1e3000"], f"grid has more than {MAX_CANDIDATES} candidates"),
        (["--m-max", "200"], f"grid has more than {MAX_CANDIDATES} candidates"),
        (["--m-max", "10", "--step", "1/1000"], f"grid has more than {MAX_CANDIDATES} candidates"),
        (["--m-max", "14", "--free-c3"], f"grid has more than {MAX_CANDIDATES} candidates"),
        (["--m-min=-1e30"], "m_min must be positive"),
        (["--m-min", "0"], "m_min must be positive"),
    ],
)
def test_scan_size_policy_exit1(capsys, argv, message, within):
    # counted before anything is enumerated, so an oversize grid never hangs
    assert within(5, main, ["scan", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


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
        ["scan", "--output", "json"],  # scan writes JSON lines and takes no --output
        ["check-graph", "--family", "petersen", "--theorem", "all"],  # the input decides which checks run
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


# -- a reader that closes stdout early ----------------------------------------------

VERIFY_CORPUS = str(Path(__file__).resolve().parent.parent / "scripts" / "verify_corpus.py")
FORCE_SCAN_ALARM = (
    "import sys; from qpolykit import checks, cli; "
    "real = checks.check_scan; checks.check_scan = lambda spec: (real(spec)[0], ['forced alarm']); "
    "sys.exit(cli.main(['scan', '--m-max', '6', '--free-c3']))"
)
FORCE_CORPUS_ALARM = (
    "import runpy, sys; from qpolykit import checks; real = checks.check_graph; "
    "checks.check_graph = lambda g, *a: (lambda r: (r[0], r[1], r[2] + ['forced alarm']))(real(g, *a)); "
    f"sys.argv = [{VERIFY_CORPUS!r}, '--json']; runpy.run_path(sys.argv[0], run_name='__main__')"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "qpolykit.cli", "scan", "--m-max", "6", "--free-c3"], 0),
        (["-c", FORCE_SCAN_ALARM], 2),
        (["-m", "qpolykit.cli", "check-scheme", "--from-graph", "heawood", "--output", "json"], 0),
        (["-m", "qpolykit.cli", "property-suite", "--seed", "3", "--n", "5", "--graphs", "1"], 0),
        ([VERIFY_CORPUS, "--json"], 0),
        (["-c", FORCE_CORPUS_ALARM], 2),
    ],
    ids=["scan", "scan_alarm", "check_scheme", "property_suite", "verify_corpus", "verify_corpus_alarm"],
)
def test_closed_stdout_exits_with_its_code_and_no_traceback(argv, code):
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader stops before the first byte
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=600) == code
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize(
    "value, text",
    [
        (0, "0"),
        (7, "7"),
        (-12, "-12"),
        (True, "1"),
        (False, "0"),
        (10**120 + 3, str(10**120 + 3)),
        (F(6, 4), "3/2"),
        (F(-5, 3), "-5/3"),
        (F(8, 4), "2"),
        (F(-(10**80) - 1, 7 * 10**40 + 3), f"{-(10**80) - 1}/{7 * 10**40 + 3}"),
        ("-4/6", "-2/3"),
    ],
)
def test_rat_str_formats_every_argument_as_its_fraction(value, text):
    # each argument type reads the same as its Fraction did
    assert rat_str(value) == text
    reference = F(value)
    assert text == (str(reference.numerator) if reference.denominator == 1 else f"{reference.numerator}/{reference.denominator}")
