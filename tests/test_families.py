import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qpolykit.cli import main
from qpolykit.families import (
    SymmetricDesign,
    biplane_11,
    biplane_16,
    build,
    corpus_graphs,
    cube,
    fano,
    hamming,
    heawood,
    incidence_graph,
    johnson,
    load,
    manifest,
    parse_family_spec,
    petersen,
)
from qpolykit.graphs import Graph, classify_regularity, emit_graph6, intersection_array

from helpers import line_graph, linked_design_krein_array


def test_fano_properties():
    d = fano()  # construction raises unless the design's counts hold
    assert d.v == 7 and d.k == 3 and d.lam == 1
    # every pair in exactly one block, exhaustively
    for p in range(7):
        for q in range(p + 1, 7):
            assert sum(1 for b in d.blocks if p in b and q in b) == 1


def test_biplanes_validate():
    # construction checks the design, so building one is its validation
    assert (biplane_11().v, biplane_16().v) == (11, 16)


def test_design_validation_catches_faults():
    with pytest.raises(ValueError, match="invalid design: every point must lie in exactly k blocks"):
        SymmetricDesign(7, 3, 1, fano().blocks[:6] + (fano().blocks[0],))
    # dataclasses.replace goes through the same check
    with pytest.raises(ValueError, match="invalid design"):
        replace(fano(), lam=2)


def test_incidence_of_fano_is_the_heawood_graph():
    import networkx as nx

    g = incidence_graph(fano())
    assert g.n == 14 and g.is_regular() and g.degree(0) == 3
    assert nx.girth(nx.Graph(g.edges())) == 6
    # 3-regular girth-6 on 14 vertices pins the graph up to isomorphism
    system = intersection_array(classify_regularity(g))
    assert (system.beta, system.gamma) == ((3, 2, 2), (1, 1, 3))
    assert heawood().edges() == g.edges()


def test_builders():
    assert cube(3).n == 8 and cube(3).degree(0) == 3
    assert hamming(2, 3).n == 9 and hamming(2, 3).degree(0) == 4
    assert johnson(5, 2).n == 10 and johnson(5, 2).degree(0) == 6
    system = intersection_array(classify_regularity(build("icosahedron")))
    assert (system.beta, system.gamma) == ((5, 2, 1), (1, 2, 5))
    g = build("hamming", d=4, q=2)
    assert g.n == 16
    assert parse_family_spec("hamming:d=4,q=2").edges() == g.edges()


def test_builder_errors():
    with pytest.raises(ValueError):
        build("johnson", n=3, k=5)
    with pytest.raises(ValueError):
        johnson(3, 5)
    with pytest.raises(ValueError):
        build("nosuch")
    with pytest.raises(ValueError):
        build("cycle")  # missing n
    with pytest.raises(ValueError):
        build("petersen", n=5)  # extra parameter


def test_incidence_graph_is_not_a_family():
    # incidence graphs are built by incidence_graph(design), not by name
    with pytest.raises(ValueError, match="unknown family"):
        build("incidence_graph", design=fano())


def test_line_graph_of_petersen():
    lg = line_graph(petersen())
    assert lg.n == 15 and lg.is_regular() and lg.degree(0) == 4
    rep = classify_regularity(lg)
    assert rep.distance_regular and rep.diameter == 3
    system = intersection_array(rep)
    assert (system.beta, system.gamma) == ((4, 2, 1), (1, 1, 4))


def test_corpus_validators():
    for name, g in corpus_graphs().items():
        assert g.is_connected(), name
        assert g.edge_count > 0, name


def test_linked_design_krein_array_values():
    arr = linked_design_krein_array(2)
    assert arr == {
        "type": "krein_array",
        "class": 3,
        "m": "15",
        "b_star": ["15", "14", "1"],
        "c_star": ["1", "2", "15"],
    }
    with pytest.raises(ValueError):
        linked_design_krein_array(0)


def test_load_roundtrips(tmp_path: Path):
    g = petersen()
    p6 = tmp_path / "petersen.g6"
    p6.write_text(emit_graph6(g) + "\n")
    back = load(p6, "graph6")
    assert back.edges() == g.edges()

    pj = tmp_path / "petersen.json"
    pj.write_text(json.dumps(g.to_json_dict()))
    back = load(pj, "json_graph")
    assert back.edges() == g.edges()


def test_load_rejects_malformed(tmp_path: Path):
    multi = tmp_path / "two.g6"
    multi.write_text("A?\nA?\n")
    with pytest.raises(ValueError):
        load(multi, "graph6")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load(bad, "json_graph")
    with pytest.raises(ValueError):
        load(tmp_path / "missing.g6", "graph6")
    with pytest.raises(ValueError):
        load(bad, "nosuchformat")


def test_load_krein_malformed(capsys):
    # Krein arrays are read inline by check-scheme --krein, not from files
    doc = {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "?", "1"], "c_star": ["1", "3", "6"]}
    assert main(["check-scheme", "--krein", json.dumps(doc)]) == 1
    assert "input error" in capsys.readouterr().err


def test_load_scheme_semantic_error(tmp_path: Path):
    f = tmp_path / "s.json"
    # relations do not partition the off-diagonal pairs of a 3-point set
    f.write_text(json.dumps({"type": "relations", "n": 3, "relations": [[[0, 1]]]}))
    with pytest.raises(ValueError):
        load(f, "json_scheme")


def test_manifest_is_stable():
    m1 = manifest()
    m2 = manifest()
    assert m1 == m2
    assert set(m1) >= {"petersen", "heawood", "fano", "biplane_11"}
    shipped = Path(__file__).resolve().parent.parent / "data" / "corpus_manifest.json"
    if shipped.exists():
        assert json.loads(shipped.read_text()) == m1
