import contextlib
import io
import random
import tempfile
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolykit.algebraics import compare, compare_rational
from qpolykit.cli import main
from qpolykit.families import (
    complete_bipartite,
    complete_graph,
    corpus_graphs,
    cube,
    cycle,
    heawood,
    icosahedron,
    petersen,
)
from qpolykit.graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    classify_regularity,
    emit_graph6,
    fundamental_bound,
    interlace_check,
    intersection_array,
    pair_bound_all_vertices,
    parse_graph6,
    quotient_matrix,
    quotient_spectrum,
    random_regular_graph,
    spectrum_graph,
    triple_bound_graph,
)
from qpolykit.polynomials import squarefree_part
from qpolykit.tridiagonal import TridiagonalSystem


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 5)])


# -- graph6 --------------------------------------------------------------------


def test_graph6_two_vertex_empty():
    g = parse_graph6("A?")
    assert g.n == 2 and g.edge_count == 0
    assert emit_graph6(g) == "A?"


def test_graph6_k5():
    g = parse_graph6("D~{")
    assert g.n == 5 and g.edge_count == 10


def test_graph6_c5_roundtrip():
    g = cycle(5)
    s = emit_graph6(g)
    back = parse_graph6(s)
    assert back.edges() == g.edges()


def test_graph6_petersen_roundtrip_and_invariants():
    s = emit_graph6(petersen())
    g = parse_graph6(s)
    assert g.n == 10 and g.edge_count == 15 and g.is_regular() and g.degree(0) == 3


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A?").n == 2
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("?")  # zero vertices
    with pytest.raises(GraphError):
        parse_graph6(b"D\x10\x10")  # bytes out of range
    with pytest.raises(GraphError):
        parse_graph6("D~")  # truncated bit stream
    with pytest.raises(GraphError):
        parse_graph6("A?A?")  # trailing bytes
    with pytest.raises(GraphError):
        parse_graph6("A@")  # nonzero padding for n=2 (only 1 data bit)


def test_graph6_large_n_header():
    # one size byte up to n = 62, then the 4-byte header up to MAX_VERTICES
    for n in (62, 63, 70, MAX_VERTICES):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        s = emit_graph6(g)
        assert s.startswith("~") == (n > 62)
        back = parse_graph6(s)
        assert back.n == n and back.edges() == g.edges()


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_graph6_roundtrip_random_vs_networkx(n, seed):
    import networkx as nx

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph(n, edges)
    s = emit_graph6(g)
    assert parse_graph6(s).edges() == g.edges()
    nxg = nx.from_graph6_bytes(s.encode())
    assert sorted(tuple(sorted(e)) for e in nxg.edges()) == g.edges()
    assert nxg.number_of_nodes() == n


def test_json_graph_errors():
    with pytest.raises(GraphError):
        Graph.from_json_dict({"n": 3})
    with pytest.raises(GraphError):
        Graph.from_json_dict({"n": 3, "edges": [[0]]})
    g = Graph.from_json_dict({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert g.to_json_dict() == {"n": 3, "edges": [[0, 1], [1, 2]]}


# -- partitions and quotients -------------------------------------------------------


def _cell_sizes(qm) -> list:
    # |cell i| beta_i and |cell i+1| gamma_{i+1} both count the edges between the two cells
    sizes = [F(1)]
    for b, c in zip(qm.beta, qm.gamma):
        sizes.append(sizes[-1] * b / c)
    return sizes


def test_bfs_partition_cells():
    assert _cell_sizes(quotient_matrix(cycle(5), 0)) == [1, 2, 2]
    assert _cell_sizes(quotient_matrix(complete_bipartite(3, 3), 0)) == [1, 3, 2]
    assert _cell_sizes(quotient_matrix(petersen(), 0)) == [1, 3, 6]
    # an irregular, non-equitable partition: {0}, {1, 2}, {3}
    assert _cell_sizes(quotient_matrix(Graph(4, [(0, 1), (0, 2), (1, 3)]), 0)) == [1, 2, 1]


def test_bfs_partition_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        quotient_matrix(g, 0)
    with pytest.raises(GraphError):
        classify_regularity(g)


def test_quotient_matrices():
    qm = quotient_matrix(cycle(5), 0)
    assert (qm.alpha, qm.beta, qm.gamma) == ((F(0), F(0), F(1)), (F(2), F(1)), (F(1), F(1)))
    assert qm.equitable and qm.base == 0 and qm.eccentricity == 2
    qm = quotient_matrix(petersen(), 3)
    assert (qm.alpha, qm.beta, qm.gamma) == ((F(0), F(0), F(2)), (F(3), F(2)), (F(1), F(1)))
    qm = quotient_matrix(heawood(), 0)
    assert qm.beta == (F(3), F(2), F(2)) and qm.gamma == (F(1), F(1), F(3))
    assert all(a == 0 for a in qm.alpha)


def test_quotient_rational_averages_nonequitable():
    # vertices 1 and 2 sit in the same cell around 0 but differ in degree
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    qm = quotient_matrix(g, 0)
    assert not qm.equitable
    assert qm.beta[1] == F(1, 2)
    rep = classify_regularity(g)
    assert rep.quotients[0] == qm and not rep.quotients[0].equitable


# -- spectra -----------------------------------------------------------------------


def test_spectra():
    spec = spectrum_graph(cycle(5))
    assert spec.multiplicities == (1, 2, 2)
    assert spec.distinct[0].as_rational() == F(2)
    spec = spectrum_graph(petersen())
    assert [(e.as_rational(), m) for e, m in zip(spec.distinct, spec.multiplicities)] == [
        (F(3), 1),
        (F(1), 5),
        (F(-2), 4),
    ]
    spec = spectrum_graph(heawood())
    assert spec.multiplicities == (1, 6, 6, 1)
    assert spec.distinct[0].as_rational() == F(3) and spec.distinct[3].as_rational() == F(-3)


def test_graph_spectrum_keeps_the_squarefree_charpoly_on_the_corpus():
    for name, g in corpus_graphs().items():
        spec = spectrum_graph(g)
        assert spec.squarefree == squarefree_part(spec.charpoly), name
        assert spec.squarefree.degree == len(spec.distinct), name  # one simple root per eigenvalue
        assert spec.squarefree is spec.squarefree  # computed once


def test_spectrum_against_sympy():
    import sympy

    g = icosahedron()
    spec = spectrum_graph(g)
    m = sympy.zeros(g.n, g.n)
    for u in range(g.n):
        for v in g.adj[u]:
            m[u, v] = 1
    poly = m.charpoly()
    ours = [F(c.numerator, c.denominator) for c in spec.charpoly.coeffs]
    theirs = [sympy.Rational(c) for c in reversed(poly.all_coeffs())]
    assert [sympy.Rational(c.numerator, c.denominator) for c in ours] == theirs


# -- interlacing / classification -----------------------------------------------------


def test_interlace_examples():
    for g in (cycle(5), petersen()):
        rep = interlace_check(spectrum_graph(g), quotient_spectrum(classify_regularity(g)))
        assert rep.passed and rep.theta1_eq_tau1 and rep.thetamin_eq_taumin
    g = cycle(6)
    rep = interlace_check(spectrum_graph(g), quotient_spectrum(classify_regularity(g)))
    assert rep.passed


def test_classification_examples():
    rep = classify_regularity(petersen())
    assert rep.distance_regular and rep.strongly_regular and not rep.bipartite
    rep = classify_regularity(heawood())
    assert rep.distance_regular and rep.bipartite and not rep.strongly_regular
    path3 = Graph(3, [(0, 1), (1, 2)])
    rep = classify_regularity(path3)
    assert not rep.regular and rep.degree is None


def test_distance_biregular_detection():
    rep = classify_regularity(complete_bipartite(2, 3))
    assert rep.distance_regularised and not rep.distance_regular and rep.distance_biregular
    assert rep.bipartite and not rep.regular


# -- the vertex pair bound ----------------------------------------------------------------


def pair_bound(g: Graph):
    return pair_bound_all_vertices(g, spectrum_graph(g), classify_regularity(g))


def test_pair_bound_strongly_regular_cases():
    rep = pair_bound(petersen())
    assert rep.lhs == F(-2)
    assert all(v.rhs == F(-2) and v.equality for v in rep.per_vertex)
    assert rep.strongly_regular_verdict and rep.cross_check_ok
    rep = pair_bound(cycle(5))
    assert rep.lhs == F(-1) and rep.equality_everywhere and rep.strongly_regular_verdict


def test_pair_bound_strict_case():
    rep = pair_bound(heawood())
    assert all(v.rhs == F(-2) and v.holds and not v.equality for v in rep.per_vertex)
    assert not rep.strongly_regular_verdict and rep.cross_check_ok


def test_pair_bound_refusals():
    from qpolykit.families import complete_graph

    with pytest.raises(GraphError):
        pair_bound(complete_graph(4))
    with pytest.raises(GraphError):
        pair_bound(Graph(2, []))
    with pytest.raises(GraphError):
        pair_bound(Graph(4, [(0, 1), (2, 3)]))


def test_equality_iff_strongly_regular_on_corpus():
    for name, g in corpus_graphs().items():
        if not g.is_regular() or g.is_complete():
            continue
        rep = pair_bound(g)
        assert rep.all_hold, name
        assert rep.cross_check_ok, name


# -- intersection arrays and the bounds -------------------------------------------------------


def test_intersection_arrays():
    for g, b, c in (
        (heawood(), (3, 2, 2), (1, 1, 3)),
        (icosahedron(), (5, 2, 1), (1, 2, 5)),
        (cube(3), (3, 2, 1), (1, 2, 3)),
    ):
        system = intersection_array(classify_regularity(g))
        assert (system.beta, system.gamma, system.kappa) == (b, c, b[0])
    with pytest.raises(GraphError):
        intersection_array(classify_regularity(complete_bipartite(2, 3)))


def test_intersection_array_asserts_integer_entries():
    rep = classify_regularity(cube(3))
    q = rep.quotients[0]
    forged = replace(rep, quotients=(replace(q, alpha=(F(0), F(1, 2), F(3, 2), F(0))),) + rep.quotients[1:])
    with pytest.raises(AssertionError, match="non-integer"):
        intersection_array(forged)


def test_intersection_array_matches_quotients():
    for name in ("heawood", "icosahedron", "cube", "petersen"):
        g = corpus_graphs()[name if name != "cube" else "cube"]
        rep = classify_regularity(g)
        system = intersection_array(rep)
        assert rep.diameter == system.d and len(rep.quotients) == g.n
        for x in range(g.n):
            qm = rep.quotients[x]
            assert qm == quotient_matrix(g, x) and qm.equitable, (name, x)
            assert (qm.alpha, qm.beta, qm.gamma) == (system.alpha, system.beta, system.gamma), (name, x)


def triple_bound(g):
    classification = classify_regularity(g)
    return triple_bound_graph(classification, quotient_spectrum(classification))


def test_triple_bound_examples():
    res = triple_bound(heawood())
    (branch,) = res.branches
    assert branch.check.lhs == F(2) and branch.check.rhs == F(2) and branch.check.equality
    res = triple_bound(cube(3))
    assert all(b.check.lhs == F(0) and b.check.equality for b in res.branches)
    res = triple_bound(cube(4))
    assert all(b.check.holds and not b.check.equality for b in res.branches)
    with pytest.raises(GraphError, match="diameter >= 3"):
        triple_bound(petersen())  # diameter 2


def test_triple_bound_rejects_a_regular_graph_that_is_not_distance_regular():
    # the hexagonal prism is 3-regular of diameter 4, but its quotient
    # around a vertex is not equitable: a quotient spectrum exists, an
    # intersection array does not
    prism = Graph(
        12,
        [(i, (i + 1) % 6) for i in range(6)]
        + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        + [(i, i + 6) for i in range(6)],
    )
    classification = classify_regularity(prism)
    assert classification.regular and not classification.distance_regular and classification.diameter == 4
    with pytest.raises(GraphError, match="distance-regular"):
        triple_bound(prism)


def test_fundamental_bound_examples():
    def bound(g):
        classification = classify_regularity(g)
        return fundamental_bound(spectrum_graph(g), intersection_array(classification), classification.bipartite)

    rep = bound(icosahedron())
    assert rep.lhs == F(-20, 9) and rep.rhs == F(-20, 9)
    assert rep.equality and rep.tight and not rep.bipartite
    rep = bound(heawood())
    assert rep.rhs == F(0) and not rep.tight and rep.bipartite
    rep = bound(petersen())
    assert rep.lhs == F(4) and rep.rhs == F(0) and rep.holds and not rep.tight


def test_quotient_condition_always_satisfied_for_regular():
    rng = random.Random(3)
    for _ in range(6):
        g = random_regular_graph(rng, 10, 3)
        rep = classify_regularity(g)
        for x in range(0, g.n, 3):
            assert rep.quotients[x] == quotient_matrix(g, x)
            # the system's constructor raises unless the row-sum condition holds
            q = rep.quotients[x]
            assert TridiagonalSystem.from_entries(q.alpha, q.beta, q.gamma, F(3)).d == q.eccentricity
        q = rep.quotients[0]
        assert rep.quotient_system == TridiagonalSystem.from_entries(q.alpha, q.beta, q.gamma, F(3))


def test_complete_graphs_have_no_intersection_array():
    # a row-sum system needs D >= 2, so the array, and the fundamental bound, stop at diameter 1
    for n in (2, 4):
        rep = classify_regularity(complete_graph(n))
        assert rep.distance_regular and rep.diameter == 1
        with pytest.raises(GraphError, match="intersection array requires diameter >= 2"):
            intersection_array(rep)
        with pytest.raises(AssertionError, match="D must be at least 2"):
            quotient_spectrum(rep)


def test_random_regular_suite():
    rng = random.Random(17)
    for _ in range(8):
        n, k = rng.choice([(8, 3), (10, 3), (12, 4), (9, 4)])
        g = random_regular_graph(rng, n, k)
        if g.is_complete():
            continue
        spec = spectrum_graph(g)
        if spec.d < 2:
            continue
        classification = classify_regularity(g)
        rep = pair_bound_all_vertices(g, spec, classification)
        assert rep.all_hold and rep.cross_check_ok
        assert [v.rhs for v in rep.per_vertex] == [-quotient_matrix(g, x).beta[1] for x in range(g.n)]
        assert interlace_check(spec, quotient_spectrum(classification)).passed


def test_interlace_equality_implies_locally_distance_regular():
    # when both extreme eigenvalues are shared, the graph is
    # distance-regular around that vertex
    for name in ("c5", "petersen", "heawood", "icosahedron"):
        g = corpus_graphs()[name]
        classification = classify_regularity(g)
        rep = interlace_check(spectrum_graph(g), quotient_spectrum(classification))
        if rep.theta1_eq_tau1 and rep.thetamin_eq_taumin:
            assert classification.quotients[0].equitable


def test_triple_bound_equality_iff_diameter3_on_corpus():
    for name, g in corpus_graphs().items():
        rep = classify_regularity(g)
        if not rep.distance_regular or rep.diameter < 3:
            continue
        res = triple_bound_graph(rep, quotient_spectrum(rep))
        assert res.holds, name
        assert res.equality == (rep.diameter == 3), name


def test_girth_and_diameter():
    import networkx as nx

    assert nx.girth(nx.Graph(heawood().edges())) == 6
    assert nx.girth(nx.Graph(petersen().edges())) == 5
    assert classify_regularity(cycle(5)).diameter == 2
    assert classify_regularity(heawood()).diameter == 3
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert classify_regularity(path).diameter == 3
    assert [q.eccentricity for q in classify_regularity(path).quotients] == [3, 2, 2, 3]


# -- differential tests against networkx ---------------------------------------------------


def _check_against_networkx(g: Graph):
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    rep = classify_regularity(g)
    assert rep.distance_regular == nx.is_distance_regular(nxg)
    assert rep.strongly_regular == nx.is_strongly_regular(nxg)
    assert rep.bipartite == nx.is_bipartite(nxg)
    if rep.distance_regular:
        b, c = nx.intersection_array(nxg)
        if rep.diameter < 2:
            # a complete graph: {k; 1} is no row-sum system, which needs D >= 2
            assert (list(b), list(c)) == ([g.n - 1], [1])
            with pytest.raises(GraphError):
                intersection_array(rep)
        else:
            assert intersection_array(rep) == TridiagonalSystem.from_intersection_numbers(b, c)


def test_classification_agrees_with_networkx_on_the_corpus():
    for g in corpus_graphs().values():
        _check_against_networkx(g)


@settings(max_examples=25)
@given(st.integers(min_value=4, max_value=14), st.integers(min_value=2, max_value=5), st.integers(0, 10**6))
def test_classification_agrees_with_networkx_on_random_regular_graphs(n, k, seed):
    import networkx as nx

    if n * k % 2 or k >= n:
        return
    nxg = nx.random_regular_graph(k, n, seed=seed)
    if not nx.is_connected(nxg):
        return
    _check_against_networkx(Graph(n, [tuple(sorted(e)) for e in nxg.edges()]))


# -- graph6 robustness ----------------------------------------------------------------------


@st.composite
def _graph6_inputs(draw):
    """Arbitrary short bytes or text, or a small graph's encoding with a few byte edits."""
    kind = draw(st.sampled_from(("bytes", "text", "graph")))
    if kind == "bytes":
        return draw(st.binary(max_size=20))
    if kind == "text":
        return draw(st.text(max_size=20))
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    data = bytearray(emit_graph6(Graph(n, edges)).encode())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pos = draw(st.integers(min_value=0, max_value=len(data)))
        data[pos : pos + draw(st.integers(min_value=0, max_value=1))] = draw(st.binary(max_size=1))
    return bytes(data)


def test_graph6_rejects_non_ascii_text():
    with pytest.raises(GraphError):
        parse_graph6("oG\x90G")


@settings(max_examples=60)
@given(_graph6_inputs())
def test_graph6_input_parses_or_is_an_input_error(data):
    try:
        parse_graph6(data)
    except GraphError:
        pass
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.g6"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-graph", "--input", str(path)])
    assert code in (0, 1), (raw, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue()
