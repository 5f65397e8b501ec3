"""The shared check pipeline: every problem and every alarm path fires.

Each fault-injection case flips one library verdict with monkeypatch and
runs the front end unchanged; the alarm must reach the report, the text and
the exit code.
"""

import importlib.util
import inspect
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from qpolykit import algebraics, checks, graphs, numberfield, scanner, schemes, tridiagonal
from qpolykit.cli import main
from qpolykit.families import heawood, parse_family_spec, petersen
from qpolykit.polynomials import RationalPoly
from qpolykit.schemes import AuditRecord

from helpers import line_graph

ROOT = Path(__file__).resolve().parent.parent
HEAWOOD = tridiagonal.TridiagonalSystem.from_intersection_numbers([3, 2, 2], [1, 1, 3])


def flip(monkeypatch, module, name, change):
    """Make module.name return change(real result)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: change(real(*a, **k)))


def violated(triple):
    """A TripleBoundResult whose every branch fails."""
    return replace(
        triple,
        branches=tuple(replace(b, check=replace(b.check, holds=False)) for b in triple.branches),
    )


# -- check_system ----------------------------------------------------------------------


def test_check_system_clean_on_both_equality_regimes():
    assert checks.check_system(HEAWOOD) == []
    assert checks.check_system(tridiagonal.TridiagonalSystem.from_intersection_numbers([3, 2], [1, 1])) == []


@pytest.mark.parametrize(
    "name, change, problem",
    [
        ("pair_bound", lambda r: replace(r, holds=False), "pair bound failed"),
        ("pair_bound", lambda r: replace(r, equality=True), "pair-bound equality must hold exactly when D = 2"),
        ("triple_bound", violated, "triple bound failed"),
        (
            "triple_bound",
            lambda r: SimpleNamespace(holds=True, equality=False),
            "triple-bound equality must hold exactly when D = 3",
        ),
        ("interlacing_check", lambda r: replace(r, passed=False), "interlacing failed"),
        (
            "charpoly_by_cofactor",
            lambda r: r * RationalPoly((F(1), F(1))),
            "recurrence disagrees with the cofactor characteristic polynomial",
        ),
    ],
)
def test_check_system_reports_each_flipped_verdict(monkeypatch, name, change, problem):
    flip(monkeypatch, tridiagonal, name, change)
    assert checks.check_system(HEAWOOD) == [problem]


def test_check_system_reads_the_pair_equality_from_the_comparison(monkeypatch):
    # every product comparison reports a tie: on a D = 3 system the pair
    # bound's equality flag must follow it and break "equality exactly when D = 2"
    real = tridiagonal._shifted_product
    monkeypatch.setattr(tridiagonal, "_shifted_product", lambda *a: (0, real(*a)[1]))
    assert HEAWOOD.d == 3
    assert checks.check_system(HEAWOOD) == ["pair-bound equality must hold exactly when D = 2"]


# -- check-graph, check-scheme and scan through cli.main -------------------------------------


def _non_q_polynomial_scheme_file(tmp_path):
    path = tmp_path / "line_petersen.json"
    path.write_text(json.dumps(schemes.scheme_from_graph(line_graph(petersen())).to_json_dict()))
    return ["check-scheme", "--input", str(path), "--format", "json"]


def _failing_audit(audit):
    return replace(audit, records=audit.records + (AuditRecord("injected", False),))


CASES = {
    "pair bound": (
        ["check-graph", "--family", "petersen"],
        graphs, "pair_bound_all_vertices", lambda r: replace(r, all_hold=False),
        "vertex pair bound violated",
    ),
    "pair-bound cross-check": (
        ["check-graph", "--family", "petersen"],
        graphs, "pair_bound_all_vertices", lambda r: replace(r, cross_check_ok=False),
        "pair-bound equality disagrees with the strong-regularity classification",
    ),
    "triple bound": (
        ["check-graph", "--family", "heawood"],
        graphs, "triple_bound_graph", violated,
        "triple bound violated on a distance-regular graph",
    ),
    "fundamental bound": (
        ["check-graph", "--family", "icosahedron"],
        graphs, "fundamental_bound", lambda r: replace(r, holds=False),
        "fundamental bound violated",
    ),
    "interlacing": (
        ["check-graph", "--family", "petersen"],
        graphs, "interlace_check", lambda r: replace(r, passed=False),
        "quotient interlacing violated",
    ),
    "krein nonnegativity": (
        ["check-scheme", "--from-graph", "petersen"],
        schemes, "krein", lambda r: replace(r, nonnegative=False),
        "negative Krein parameter on a verified scheme",
    ),
    "krein nonnegativity, not Q-polynomial": (
        _non_q_polynomial_scheme_file,
        schemes, "krein", lambda r: replace(r, nonnegative=False),
        "negative Krein parameter on a verified scheme",
    ),
    "spectral identity": (
        ["check-scheme", "--from-graph", "petersen"],
        schemes, "b1star_spectral_identity", lambda r: False,
        "ordering 0: Krein matrix spectrum differs from the dual eigenvalues",
    ),
    "dual pair bound": (
        ["check-scheme", "--from-graph", "petersen"],
        schemes, "dual_bounds", lambda r: replace(r, part1=replace(r.part1, holds=False)),
        "ordering 0: dual pair bound violated",
    ),
    "dual triple bound": (
        ["check-scheme", "--from-graph", "heawood"],
        schemes, "dual_bounds", lambda r: replace(r, part2=violated(r.part2)),
        "ordering 0: dual triple bound violated",
    ),
    "dual fundamental bound": (
        ["check-scheme", "--from-graph", "petersen"],
        schemes, "dual_fundamental_bound", lambda r: replace(r, holds=False),
        "ordering 0: dual fundamental bound violated",
    ),
    "dual-tight audit": (
        ["check-scheme", "--from-graph", "heawood"],
        schemes, "class3_dualtight_audit", _failing_audit,
        "ordering 0: dual-tight audit failed",
    ),
    "class-3 biconditional": (
        ["check-scheme", "--from-graph", "heawood"],
        schemes, "classify_class3_scheme", lambda r: replace(r, biconditional_ok=False),
        "dual-tightness disagrees with the symmetric-design classification",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("output", ["text", "json"])
def test_injected_fault_raises_alarm(case, output, monkeypatch, capsys, tmp_path):
    argv, module, name, change, alarm = CASES[case]
    if callable(argv):
        argv = argv(tmp_path)
    assert main([*argv, "--output", output]) == 0
    capsys.readouterr()
    flip(monkeypatch, module, name, change)
    assert main([*argv, "--output", output]) == 2
    out = capsys.readouterr().out
    if output == "json":
        report = json.loads(out)
        assert report["exit_code"] == 2
        assert alarm in report["alarms"]
    else:
        assert f"ALARM: {alarm}" in out.splitlines()
        assert out.splitlines()[-1] == "exit: 2"


def _raise_soundness_alarm(*args, **kwargs):
    raise schemes.SoundnessAlarm("injected broken invariant")


def _non_real_charpoly(g, _real=graphs.adjacency_charpoly):
    """The charpoly with a double root 1 traded for the pair +-i (Petersen)."""
    return _real(g).exact_div(RationalPoly((1, -2, 1))) * RationalPoly((1, 0, 1))


def _rootless(*args):
    """A defining polynomial whose roots, +-1000, lie in no enclosure of these runs."""
    return RationalPoly((-(10**6), 0, 1))


def _never_linear(a, b):
    """A gcd that is never linear: the defining polynomial of the root being adjoined."""
    return a


def _shifted_image(field, beta, _real=numberfield.adjoin_root):
    """A join whose image of the adjoined root is off by one."""
    new_field, gen_img, beta_img = _real(field, beta)
    return new_field, gen_img, beta_img + 1


INVARIANT_CASES = {
    "soundness alarm in find_q_orderings": (
        ["check-scheme", "--from-graph", "petersen"],
        schemes, "find_q_orderings", _raise_soundness_alarm,
        "internal invariant failed: injected broken invariant",
    ),
    "charpoly with non-real roots": (
        ["check-graph", "--family", "petersen"],
        graphs, "adjacency_charpoly", _non_real_charpoly,
        "internal invariant failed: adjacency spectrum must be totally real",
    ),
    # refinement loops capped by the Mahler root separation of their candidates
    "field value polynomial with no root in the enclosure": (
        ["check-scheme", "--from-graph", "cycle:n=5"],
        algebraics, "_defining_poly_image", _rootless,
        "internal invariant failed: the value is not a root of its defining polynomial",
    ),
    "tensor polynomial with no root at gamma + t*beta": (
        ["check-scheme", "--from-graph", "cycle:n=7"],
        numberfield, "_tensor_min_poly", _rootless,
        "internal invariant failed: gamma + t*beta is not isolated among the roots of its tensor polynomial",
    ),
    "join with a wrong image of the adjoined root": (
        ["check-scheme", "--from-graph", "cycle:n=7"],
        numberfield, "adjoin_root", _shifted_image,
        "internal invariant failed: adjoined root lost its defining relation",
    ),
    "no t makes the rewriting gcd linear": (
        ["check-scheme", "--from-graph", "cycle:n=7"],
        numberfield, "_gcd_monic", _never_linear,
        "internal invariant failed: no primitive element found; adjoin_root exhausted candidates",
    ),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
@pytest.mark.parametrize("output", ["text", "json"])
def test_broken_invariant_is_an_alarm_not_a_traceback(case, output, monkeypatch, capsys, within):
    argv, module, name, replacement, alarm = INVARIANT_CASES[case]
    monkeypatch.setattr(module, name, replacement)
    assert within(10, main, [*argv, "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    if output == "json":
        report = json.loads(captured.out)
        assert report["exit_code"] == 2
        assert report["alarms"] == [alarm]
    else:
        assert f"ALARM: {alarm}" in captured.out.splitlines()
        assert captured.out.splitlines()[-1] == "exit: 2"


def test_isolating_interval_without_a_sign_change_is_an_alarm(monkeypatch, capsys):
    # isolation certifies each root from its own signs: true variation
    # counts, but the polynomial's sign reads +1 at every point, from the
    # Sturm chain and from the recurrence that Petersen's quotient spectrum reads
    class Signs(list):
        true: list

    def chain_signs(rchain, m, k, _real=algebraics._chain_signs):
        s = Signs(_real(rchain, m, k))
        s.true = list(s)
        s[0] = 1
        return s

    def sign_counter(rec, _real=tridiagonal._sign_counter):
        count = _real(rec)
        return lambda n, q: (count(n, q)[0], 1)

    real_variations = algebraics.sign_variations
    monkeypatch.setattr(algebraics, "_chain_signs", chain_signs)
    monkeypatch.setattr(algebraics, "sign_variations", lambda s: real_variations(s.true))
    monkeypatch.setattr(tridiagonal, "_sign_counter", sign_counter)
    with pytest.raises(AssertionError, match="an isolating interval without a sign change"):
        algebraics.isolate_real_roots(RationalPoly((-2, 0, 1)))
    assert main(["check-graph", "--family", "petersen"]) == 2
    out = capsys.readouterr().out
    assert "ALARM: internal invariant failed: an isolating interval without a sign change" in out.splitlines()


def test_root_isolation_past_its_round_cap_is_an_alarm(monkeypatch, capsys, within):
    # a wrong root count: two roots left of 0 and none at or right of it, so
    # isolation would subdivide toward 0 forever without its round cap, from
    # the Sturm chain and from the recurrence that Petersen's quotient spectrum reads
    monkeypatch.setattr(algebraics, "_chain_signs", lambda rchain, m, k: [1, -1, 1] if m < 0 else [1, 1, 1])
    monkeypatch.setattr(tridiagonal, "_sign_counter", lambda rec: lambda n, q: (2, 1) if n < 0 else (0, 1))
    with pytest.raises(AssertionError, match="root isolation subdivided past its round cap"):
        within(1, algebraics.isolate_real_roots, RationalPoly((-2, 0, 1)))
    assert main(["check-graph", "--family", "petersen"]) == 2
    out = capsys.readouterr().out
    assert "ALARM: internal invariant failed: root isolation subdivided past its round cap" in out.splitlines()


def test_rational_comparison_past_its_round_cap_is_an_alarm(monkeypatch, capsys, within):
    # the quotient's top root of F_D forged onto [2, 3], where x^2 - 2 has no
    # root: comparing it with kappa = 3 would refine toward 3 forever
    real = tridiagonal.isolate_real_roots

    def forged(poly, *count):
        return real(poly, *count)[:-1] + [algebraics.AlgebraicReal(RationalPoly((-2, 0, 1)), 2, 3, True)]

    monkeypatch.setattr(tridiagonal, "isolate_real_roots", forged)
    assert within(10, main, ["check-graph", "--family", "petersen"]) == 2
    out = capsys.readouterr().out
    assert "ALARM: internal invariant failed: rational comparison refined past its round cap" in out.splitlines()


@pytest.mark.parametrize(
    "module, name",
    [
        (graphs, "quotient_spectrum"),
        (graphs, "interlace_check"),
        (graphs, "pair_bound_all_vertices"),
        (graphs, "intersection_array"),
        (graphs, "triple_bound_graph"),
        (graphs, "fundamental_bound"),
        (tridiagonal, "pair_bound"),
        (tridiagonal, "triple_bound"),
        (schemes, "find_q_orderings"),
        (schemes, "class3_dualtight_audit"),
        (schemes, "classify_class3_scheme"),
    ],
)
def test_theorem_functions_take_the_facts_they_read(module, name):
    # a parameter with a default would let a check recompute a fact that
    # its caller in this module has already derived
    params = inspect.signature(getattr(module, name)).parameters.values()
    assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []


def test_class3_classification_reuses_the_ordering_verdicts(monkeypatch, capsys):
    calls = {"dual_fundamental_bound": 0, "class3_dualtight_audit": 0}
    for name in calls:
        real = getattr(schemes, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(schemes, name, counted)
    assert main(["check-scheme", "--from-graph", "heawood", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["orderings"]) == 2 and report["classification"]["dual_tight"]
    assert calls == {"dual_fundamental_bound": 2, "class3_dualtight_audit": 2}


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name; returns a one-element counter."""
    real = getattr(module, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


def test_check_graph_classifies_the_graph_once(monkeypatch, capsys):
    count = _count_calls(monkeypatch, graphs, "classify_regularity")
    assert main(["check-graph", "--input", "data/examples/heawood.g6"]) == 0
    assert "triple bound" in capsys.readouterr().out
    assert count == [1]


@pytest.mark.parametrize("family", ["hamming:d=4,q=2", "heawood", "johnson:n=8,k=3"])
def test_check_graph_derives_the_quotient_once(monkeypatch, capsys, family):
    # interlacing and the triple bound read one quotient spectrum, the
    # triple and fundamental bounds one intersection array, and both one
    # row-sum system of the quotient around vertex 0
    counts = {"spectrum": _count_calls(monkeypatch, tridiagonal, "spectrum")}
    counts["intersection_array"] = _count_calls(monkeypatch, graphs, "intersection_array")
    real = tridiagonal.TridiagonalSystem.__post_init__
    built = []

    def counted(system):
        built.append((system.alpha, system.beta, system.gamma))
        return real(system)

    monkeypatch.setattr(tridiagonal.TridiagonalSystem, "__post_init__", counted)
    assert main(["check-graph", "--family", family, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"triple_bound", "fundamental_bound", "interlacing"} <= report.keys()
    assert counts == {"spectrum": [1], "intersection_array": [1]}
    q = graphs.quotient_matrix(parse_family_spec(family), 0)
    assert built == [(q.alpha, q.beta, q.gamma)]


def test_check_graph_builds_each_shifted_product_once(monkeypatch, capsys):
    # one build per bound, compared against every vertex's rhs: not n + 1
    in_graphs = _count_calls(monkeypatch, graphs, "shifted_subset_product")
    in_tridiagonal = _count_calls(monkeypatch, tridiagonal, "shifted_subset_product")
    g = heawood()
    graphs.pair_bound_all_vertices(g, graphs.spectrum_graph(g), graphs.classify_regularity(g))
    assert (in_graphs, in_tridiagonal) == ([1], [0])
    assert main(["check-graph", "--family", "heawood", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["triple_bound"]["branches"]) == 1
    # pair and fundamental bound in graphs, the triple bound's one branch in tridiagonal
    assert (in_graphs, in_tridiagonal) == ([3], [1])


@pytest.mark.parametrize("graph, spectra", [("cycle:n=7", 3), ("heawood", 2)])
def test_check_scheme_computes_one_dual_spectrum_per_ordering(monkeypatch, capsys, graph, spectra):
    # every ordering certifies its Q column once (the spectral identity); a
    # rational system also isolates F_D once for the bounds, a field system
    # takes the certified column as its spectrum
    s = schemes.scheme_from_graph(parse_family_spec(graph))
    e = schemes.eigendata(s)
    orderings = schemes.find_q_orderings(s, e, schemes.krein(s, e))
    rational = sum(qs.system.is_rational() for qs in orderings)  # cycle:n=7 all, heawood none
    isolated = _count_calls(monkeypatch, tridiagonal, "spectrum")
    certified = _count_calls(monkeypatch, tridiagonal, "certify_spectrum")
    assert main(["check-scheme", "--from-graph", graph, "--output", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["orderings"]) == spectra
    assert (isolated, certified) == ([rational], [spectra])


def _count_bfs(monkeypatch) -> list:
    real = graphs.Graph.distance_layers
    count = [0]

    def counted(self, x):
        count[0] += 1
        return real(self, x)

    monkeypatch.setattr(graphs.Graph, "distance_layers", counted)
    return count


def test_check_graph_runs_one_bfs_per_vertex(monkeypatch, capsys):
    # classify_regularity's quotients serve the diameter, the regularity
    # classes, the pair bound, interlacing and the intersection array
    count = _count_bfs(monkeypatch)
    assert main(["check-graph", "--family", "hamming:d=6,q=2", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["distance_regular"] and "interlacing" in report
    assert len(report["pair_bound"]["per_vertex"]) == 64
    assert count[0] <= 64 + 3


@pytest.mark.parametrize("graph, most", [("heawood", 14 + 3), ("petersen", 10 + 1)])
def test_check_scheme_from_graph_runs_one_bfs_per_vertex(monkeypatch, capsys, graph, most):
    # the distance relations come from the classification's quotients, and
    # the class-3 classification (Heawood) reads that same classification for
    # relation graph 1, the input graph
    count = _count_bfs(monkeypatch)
    assert main(["check-scheme", "--from-graph", graph, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ("classification" in report) == (graph == "heawood")
    assert count[0] <= most


def test_scan_computes_one_spectrum_per_survivor(monkeypatch):
    count = _count_calls(monkeypatch, tridiagonal, "spectrum")
    result = scanner.scan(scanner.GridSpec(m_max=F(10)))
    assert result.tallies["candidates"] == 3024
    assert result.tallies["survivors"] == 220
    assert count == [220]


def test_scan_free_c3_finding_is_not_an_alarm(capsys):
    # (m, b1*, b2*, c2*, c3*) = (4, 2, 3, 1, 2) is dual-tight with a3* = 2:
    # its audit fails as a finding outside the theorem's a3* = 0 hypothesis
    assert main(["scan", "--m-max", "4", "--free-c3"]) == 0
    captured = capsys.readouterr()
    assert "ALARM" not in captured.err
    records = [json.loads(line) for line in captured.out.splitlines()[:-1]]  # last: tallies
    finding = [
        r for r in records
        if (r["m"], r["b1_star"], r["b2_star"], r["c2_star"], r["c3_star"]) == ("4", "2", "3", "1", "2")
    ]
    assert finding[0]["dual_tight"] and finding[0]["audit_all_passed"] is False


def test_scan_survivor_check_alarm(monkeypatch, capsys):
    argv = ["scan", "--m-max", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    flip(monkeypatch, scanner, "class3_dualtight_audit", _failing_audit)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert '"audit_all_passed":false' in captured.out.replace(" ", "")
    assert "ALARM: dual-tight survivor violates the class-3 parameter consequences" in captured.err


@pytest.mark.parametrize(
    "name, change, bound",
    [
        ("pair_bound", lambda r: replace(r, holds=False), "pair"),
        ("triple_bound", violated, "triple"),
    ],
)
def test_scan_bound_failure_is_an_alarm(monkeypatch, capsys, name, change, bound):
    # the bounds hold on every valid tridiagonal system, so scan treats a
    # failure as check-scheme --krein does: an alarm, not a rejection stage
    krein = '{"type":"krein_array","class":3,"m":"4","b_star":["4","3","1"],"c_star":["1","3","4"]}'
    flip(monkeypatch, tridiagonal, name, change)
    assert main(["check-scheme", "--krein", krein]) == 2
    assert f"ALARM: ordering 0: dual {bound} bound violated" in capsys.readouterr().out.splitlines()
    assert main(["scan", "--m-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ALARM: internal invariant failed: dual {bound} bound fails at (m, b1*, b2*, c2*, c3*) = (")
    assert "Traceback" not in captured.err


def test_property_suite_graph_alarm(monkeypatch, capsys):
    flip(monkeypatch, graphs, "interlace_check", lambda r: replace(r, passed=False))
    assert main(["property-suite", "--seed", "3", "--n", "0", "--graphs", "2", "--output", "json"]) == 2
    violation = json.loads(capsys.readouterr().out)["violation"]
    assert violation["graph_index"] == 0 and violation["seed"] == 3
    assert violation["problems"] == ["quotient interlacing violated"]
    assert graphs.parse_graph6(violation["graph6"]).is_regular()


# -- scripts/verify_corpus.py ----------------------------------------------------------------


def _verify_corpus():
    spec = importlib.util.spec_from_file_location("verify_corpus", ROOT / "scripts" / "verify_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_corpus_clean_and_alarm(monkeypatch, capsys):
    script = _verify_corpus()
    assert script.main(["--json"]) == 0
    *rows, summary = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert summary == {"graphs_with_alarms": 0}
    assert len(rows) == 13 and all(row["alarms"] == [] for row in rows)
    dual_tight = {row["name"] for row in rows if row["dual_tight"]}
    assert dual_tight == {"biplane11_incidence", "biplane16_incidence", "heawood", "k33"}

    flip(monkeypatch, schemes, "dual_bounds", lambda r: replace(r, part1=replace(r.part1, holds=False)))
    assert script.main([]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "done, 13 graphs with alarms"


def test_spectral_identity_is_skipped_on_krein_arrays(monkeypatch, capsys):
    # an array's dual eigenvalues are its spectrum by definition, so the
    # identity cannot fail there and is not run
    def forbidden(qs):
        raise AssertionError("the identity must not run on a Krein array")

    monkeypatch.setattr(schemes, "b1star_spectral_identity", forbidden)
    doc = {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
    assert main(["check-scheme", "--krein", json.dumps(doc), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [o["b1star_spectral_identity"] for o in report["orderings"]] == [
        {"skipped": "the dual eigenvalues of a Krein array are its spectrum by definition"}
    ]


@pytest.mark.parametrize("output", ["text", "json"])
def test_krein_array_runs_the_scanner_filters(capsys, output):
    # implied q_33^3 = m_3 - 1 - q_23^3 = 3 - 1 - 5/2 < 0: no scheme has this array
    doc = {"type": "krein_array", "class": 3, "m": "5", "b_star": ["5", "2", "3/2"], "c_star": ["1", "1", "5"]}
    cand = scanner.KreinArrayCandidate(F(5), F(2), F(3, 2), F(1), F(5))
    assert scanner.check_candidate(cand).rejected_at == "krein_condition"
    assert main(["check-scheme", "--krein", json.dumps(doc), "--output", output]) == 0
    out = capsys.readouterr().out
    if output == "json":
        report = json.loads(out)
        assert report["alarms"] == []
        assert report["orderings"][0]["feasibility"] == {
            "rejected_at": "krein_condition",
            "reason": "implied q_33^3 is negative",
        }
    else:
        finding = "  finding: implied q_33^3 is negative on a Krein array, which need not belong to a scheme"
        assert finding in out.splitlines()


def test_krein_array_and_scanner_share_the_feasibility_filters(monkeypatch, capsys):
    calls = []
    real = schemes.class3_feasibility

    def counted(qs, genuine=True):
        calls.append(qs.provenance)
        return real(qs, genuine)

    monkeypatch.setattr(schemes, "class3_feasibility", counted)
    monkeypatch.setattr(scanner, "class3_feasibility", counted)
    scanner.check_candidate(scanner.KreinArrayCandidate(F(6), F(3), F(1), F(3), F(6)))
    doc = {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
    assert main(["check-scheme", "--krein", json.dumps(doc), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "feasibility" not in report["orderings"][0]
    assert calls == ["krein_array", "krein_array"]
