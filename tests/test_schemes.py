import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest
import sympy

from qpolykit.algebraics import compare
from qpolykit import schemes
from qpolykit.families import (
    biplane_11,
    corpus_graphs,
    cube,
    cycle,
    hamming,
    heawood,
    incidence_graph,
    johnson,
    petersen,
)
from qpolykit.graphs import classify_regularity
from qpolykit.linalg import charpoly
from qpolykit.numberfield import FieldElement, RealAlgebraicField, scalar_as_fraction
from qpolykit.polynomials import RationalPoly, squarefree_part
from qpolykit.schemes import (
    AssociationScheme,
    SchemeError,
    SoundnessAlarm,
    b1star_spectral_identity,
    class3_dualtight_audit,
    classify_class3_scheme,
    dual_bounds,
    dual_fundamental_bound,
    eigendata,
    find_q_orderings,
    krein,
    krein_array_structure,
    krein_oracle,
    scheme_from_graph,
    structure_from_dual_parameters,
)
from qpolykit.tridiagonal import row_sum_matrix, valencies

from helpers import line_graph, linked_design_krein_array


def heawood_scheme():
    return scheme_from_graph(heawood())


def orderings(s):
    """Every polynomial ordering of s, from its eigendata and Krein table."""
    e = eigendata(s)
    return find_q_orderings(s, e, krein(s, e))


def heawood_ordering():
    """The first ordering of the Heawood scheme, with the eigendata and Krein table the audit reads."""
    s = heawood_scheme()
    e = eigendata(s)
    table = krein(s, e)
    return find_q_orderings(s, e, table)[0], e, table


def classify(s):
    """The class-3 classification of s over the dual-tight flag of each ordering."""
    return classify_class3_scheme(s, [dual_fundamental_bound(qs).dual_tight for qs in orderings(s)])


def test_scheme_from_graph_examples():
    s = scheme_from_graph(petersen())
    assert s.n == 10 and s.d == 2 and s.valencies == (1, 3, 6)
    s = heawood_scheme()
    assert s.n == 14 and s.d == 3 and s.valencies == (1, 3, 6, 4)
    s = scheme_from_graph(cycle(5))
    assert s.n == 5 and s.d == 2


def test_scheme_from_graph_rejects_non_drg():
    from qpolykit.families import complete_bipartite

    with pytest.raises(SchemeError):
        scheme_from_graph(complete_bipartite(2, 3))


def test_verify_scheme_examples():
    # the axioms are checked when a scheme is built: a scheme that exists is one
    s = scheme_from_graph(petersen())
    assert s.p[1][1][1] == 0  # triangle-free
    with pytest.raises(SchemeError, match="scheme axioms fail: class must be at least 1"):
        AssociationScheme(3, 0, ((0, 0, 0),) * 3, (((1,),),))


def test_verify_scheme_tampered_p_table():
    # dataclasses.replace builds through the constructor, so it cannot make an invalid scheme
    s = scheme_from_graph(petersen())
    assert replace(s) == s
    p = [[[v for v in row] for row in block] for block in s.p]
    p[1][1][0] += 1  # break sum_j p[1][j]^0 = k_1
    with pytest.raises(SchemeError, match="scheme axioms fail") as exc:
        replace(s, p=tuple(tuple(tuple(r) for r in b) for b in p))
    assert any(w in str(exc.value) for w in ("sum_j", "valenc", "triangle"))
    with pytest.raises(SchemeError, match="valencies must sum"):
        replace(s, n=s.n + 1)


def test_relation_json_roundtrip_and_errors():
    s = scheme_from_graph(cycle(5))
    js = s.to_json_dict()
    back = AssociationScheme.from_json_dict(js)
    assert back.p == s.p
    with pytest.raises(SchemeError):
        AssociationScheme.from_json_dict({"type": "relations", "n": 3, "relations": [[[0, 1]]]})
    with pytest.raises(SchemeError):
        AssociationScheme.from_json_dict(
            {"type": "relations", "n": 3, "relations": [[[0, 1], [0, 2], [1, 2]], [[0, 1]]]}
        )


def _triple_loop_p(n: int, d: int, rel) -> tuple:
    """p[i][j][h] by a loop over every point triple; None where a count is not constant."""
    size = range(d + 1)
    p = [[[set() for _ in size] for _ in size] for _ in size]
    for x in range(n):
        for y in range(n):
            counts = [[0 for _ in size] for _ in size]
            for z in range(n):
                counts[rel(x, z)][rel(z, y)] += 1
            for i in size:
                for j in size:
                    p[i][j][rel(x, y)].add(counts[i][j])
    return tuple(tuple(tuple(c.pop() if len(c) == 1 else None for c in row) for row in block) for block in p)


def test_intersection_numbers_match_a_triple_loop():
    graphs = {name: g for name, g in corpus_graphs().items() if classify_regularity(g).distance_regular}
    graphs.update({"J(6,3)": johnson(6, 3), "H(3,3)": hamming(3, 3)})
    for name, g in graphs.items():
        s = scheme_from_graph(g)
        dist = [g.bfs_distances(x) for x in range(g.n)]
        assert s.p == _triple_loop_p(g.n, s.d, lambda x, y: dist[x][y]), name
        # the table is the classification's BFS rows themselves
        assert all(row is q.distances for row, q in zip(s.relation, s.graph_classification.quotients)), name
    # the cube's relations as distance 2, 1, 3, given as lists
    g = cube(3)
    dist = [g.bfs_distances(x) for x in range(g.n)]
    index = {0: 0, 2: 1, 1: 2, 3: 3}
    relations = [[(x, y) for x in range(g.n) for y in range(x + 1, g.n) if dist[x][y] == dd] for dd in (2, 1, 3)]
    s = AssociationScheme.from_relation_lists(g.n, relations)
    assert s.p == _triple_loop_p(g.n, 3, lambda x, y: index[dist[x][y]])


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(0, 1), (1, 2), (2, 3)]),  # a path: the valencies differ
        (6, [(x, (x + 1) % 6) for x in range(6)]),  # C6 and its complement: p_11^2 is 1 or 0
    ],
)
def test_a_table_that_is_not_a_scheme_is_rejected(n, edges):
    adjacent = {frozenset(e) for e in edges}
    rest = [(x, y) for x in range(n) for y in range(x + 1, n) if frozenset((x, y)) not in adjacent]
    oracle = _triple_loop_p(n, 2, lambda x, y: 0 if x == y else 1 if frozenset((x, y)) in adjacent else 2)
    assert None in {v for block in oracle for row in block for v in row}
    with pytest.raises(SchemeError, match="is not constant over relation"):
        AssociationScheme.from_relation_lists(n, [edges, rest])


def test_eigendata_petersen():
    s = scheme_from_graph(petersen())
    e = eigendata(s)
    rows = [[x.as_fraction() for x in row] for row in e.p_matrix]
    assert rows == [[1, 3, 6], [1, 1, -2], [1, -2, 1]]
    assert e.multiplicities == (1, 5, 4)


def test_eigendata_c5_golden():
    s = scheme_from_graph(cycle(5))
    e = eigendata(s)
    assert e.multiplicities == (1, 2, 2)
    # row 1 entry for the edge relation is (-1+sqrt5)/2
    from qpolykit.polynomials import RationalPoly
    from qpolykit.algebraics import isolate_real_roots

    golden = isolate_real_roots(RationalPoly((-1, 1, 1)))[-1]
    assert compare(e.p_matrix[1][1].to_algebraic(), golden) == 0


def test_eigendata_heawood():
    s = heawood_scheme()
    e = eigendata(s)
    assert s.valencies == (1, 3, 6, 4)
    assert e.multiplicities == (1, 6, 6, 1)
    assert e.field.degree == 2


# -- the Krylov basis of a generator candidate ------------------------------------------


def _b_matrix(s, u):
    """B_u = (p_{uj}^h)_{h,j}, the matrix of relation u in the regular representation."""
    return [[F(s.p[u][j][h]) for j in range(s.d + 1)] for h in range(s.d + 1)]


def _candidates(s):
    """(coeffs, g) for each generator candidate of s, in the order eigendata tries them."""
    b_mats = [_b_matrix(s, i) for i in range(s.d + 1)]
    size = range(s.d + 1)
    for coeffs in schemes._generator_candidates(s.d):
        yield coeffs, [[sum(c * b[r][col] for c, b in zip(coeffs, b_mats)) for col in size] for r in size]


def _at_matrix(poly, g):
    """poly(g) by Horner's rule, exactly."""
    size = range(len(g))
    acc = [[F(0) for _ in size] for _ in size]
    for c in reversed(poly.coeffs):
        acc = [[sum(acc[i][t] * g[t][j] for t in size) + (c if i == j else 0) for j in size] for i in size]
    return acc


def test_krylov_polynomials_on_every_distance_scheme():
    generating = 0
    for name, g in corpus_graphs().items():
        if not classify_regularity(g).distance_regular:
            continue
        s = scheme_from_graph(g)
        for coeffs, gen in _candidates(s):
            minimal = squarefree_part(charpoly(gen))
            krylov = schemes._krylov_polynomials(gen)
            # the Krylov basis is nonsingular exactly when the charpoly test finds a generator
            assert (krylov is not None) == (minimal.degree == s.d + 1), (name, coeffs)
            if krylov is None:
                continue
            generating += 1
            mp, polys = krylov
            assert mp == minimal, (name, coeffs)
            for u, poly in enumerate(polys):
                assert _at_matrix(poly, gen) == _b_matrix(s, u), (name, coeffs, u)
    assert generating > 50


def test_eigendata_past_a_candidate_that_does_not_generate():
    # the cube's relations as distance 2, 1, 3: B_1 (two disjoint K4) has only
    # two eigenvalues, so the second candidate, the cube itself, is the generator
    g = cube(3)
    dist = [g.bfs_distances(x) for x in range(g.n)]
    relations = [[(x, y) for x in range(g.n) for y in range(x + 1, g.n) if dist[x][y] == d] for d in (2, 1, 3)]
    s = AssociationScheme.from_relation_lists(g.n, relations)
    found = [schemes._krylov_polynomials(gen) is not None for _, gen in _candidates(s)]
    assert found[:2] == [False, True]
    e = eigendata(s)
    # P and the multiplicities as the charpoly generator test gave them
    assert [[x.as_fraction() for x in row] for row in e.p_matrix] == [
        [1, 3, 3, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 3, -3, -1],
    ]
    assert e.multiplicities == (1, 3, 3, 1)


def test_descending_permutation_and_a_forced_tie():
    assert schemes._descending_permutation([F(1), F(3), F(2), F(-5)]) == [1, 2, 0, 3]
    assert schemes._descending_permutation([F(1), F(3), F(1)]) is None
    s = heawood_scheme()
    e = eigendata(s)
    table = krein(s, e)
    qs = find_q_orderings(s, e, table)[0]
    e1 = qs.idempotent_order[1]
    tied = [list(row) for row in e.q_matrix]
    assert tied[2][e1] != tied[3][e1]
    tied[3][e1] = tied[2][e1]
    assert schemes._descending_permutation([row[e1] for row in tied]) is None
    forced = replace(e, q_matrix=tuple(map(tuple, tied)))
    with pytest.raises(SoundnessAlarm, match="tie"):
        schemes._structure_from_ordering(s, forced, table, list(qs.idempotent_order))


def test_krein_basics():
    s = scheme_from_graph(petersen())
    e = eigendata(s)
    kt = krein(s, e)
    assert kt.nonnegative
    assert kt.q[1][1][0].as_fraction() == 5  # q_{11}^0 = m_1
    for j in range(3):
        for h in range(3):
            assert kt.q[0][j][h].as_fraction() == (1 if j == h else 0)


def test_krein_oracle_matches_small():
    # rational, quadratic (c5, heawood) and cubic (the 7- and 9-cycles) fields
    corpus = corpus_graphs()
    graphs = {name: corpus[name] for name in ("c5", "petersen", "cube", "heawood", "biplane11_incidence")}
    graphs.update({"cycle:n=7": cycle(7), "cycle:n=9": cycle(9)})
    for name, g in graphs.items():
        s = scheme_from_graph(g)
        e = eigendata(s)
        kt = krein(s, e)
        oracle = krein_oracle(s, e)
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for h in range(s.d + 1):
                    assert (kt.q[i][j][h] - oracle[i][j][h]).is_zero(), (name, i, j, h)


@pytest.mark.parametrize("graph, d, reduces", [(heawood, 3, 60), (lambda: cycle(9), 4, 110)])
def test_krein_reduces_once_per_pair_product_and_per_triple(monkeypatch, graph, d, reduces):
    # at most (d+1)^2 (d+2)/2 full products (one w_ij[u] per pair i <= j and
    # relation u) and one dot per triple i <= j <= h, each one reduce; the
    # rational scalings reduce nothing
    s = scheme_from_graph(graph())
    e = eigendata(s)
    calls = {"reduce": 0, "dot": 0}
    real_reduce, real_dot = RealAlgebraicField.reduce, RealAlgebraicField.dot

    def reduce(self, coeffs):
        calls["reduce"] += 1
        return real_reduce(self, coeffs)

    def dot(self, xs, ys):
        calls["dot"] += 1
        return real_dot(self, xs, ys)

    monkeypatch.setattr(RealAlgebraicField, "reduce", reduce)
    monkeypatch.setattr(RealAlgebraicField, "dot", dot)
    krein(s, e)
    assert s.d == d
    assert calls == {"reduce": reduces, "dot": comb(d + 3, 3)}
    assert reduces <= (d + 1) ** 2 * (d + 2) // 2 + comb(d + 3, 3)


def _brute_force_orderings(s, e, kt):
    """All idempotent orderings with irreducible tridiagonal (q_{1,j}^h)."""
    d = s.d
    found = []
    for perm in permutations(range(1, d + 1)):
        order = (0,) + perm
        e1 = order[1]
        ok = True
        for a in range(d + 1):
            for b in range(d + 1):
                entry = kt.q[e1][order[a]][order[b]]
                if abs(a - b) >= 2 and not entry.is_zero():
                    ok = False
        for a in range(d):
            if not ok:
                break
            if kt.q[e1][order[a]][order[a + 1]].sign() <= 0:
                ok = False
            if kt.q[e1][order[a + 1]][order[a]].sign() <= 0:
                ok = False
        if ok:
            found.append(order)
    return found


def test_orderings_against_brute_force():
    for name in ("petersen", "cube", "heawood", "c6"):
        g = corpus_graphs()[name]
        s = scheme_from_graph(g)
        e = eigendata(s)
        kt = krein(s, e)
        mine = {qs.idempotent_order for qs in find_q_orderings(s, e, kt)}
        brute = set(_brute_force_orderings(s, e, kt))
        assert mine == brute, name


def test_non_q_polynomial_scheme_gives_empty_list():
    # the line graph of the Petersen graph: distance-regular of diameter 3,
    # verified non-polynomial on the idempotent side by exhaustive search
    s = scheme_from_graph(line_graph(petersen()))
    e = eigendata(s)
    kt = krein(s, e)
    assert _brute_force_orderings(s, e, kt) == []
    assert find_q_orderings(s, e, kt) == []


def test_petersen_ordering_values():
    s = scheme_from_graph(petersen())
    by_m = {int(qs.m): qs for qs in orderings(s)}
    qs = by_m[5]
    assert [t.as_fraction() for t in qs.dual_eigenvalues] == [5, F(5, 3), F(-5, 3)]
    assert qs.system.beta[1] == F(16, 9)


def test_b1star_system_examples():
    s = scheme_from_graph(petersen())
    qs = [q for q in orderings(s) if q.m == 5][0]
    system = qs.system
    assert system.d == 2 and system.kappa == F(5)

    qs, _, table = heawood_ordering()
    system = qs.system
    assert system.d == 3
    # column sums of the ordered Krein matrix (q_{1,j}^h) all equal m
    o = qs.idempotent_order
    for h in o:
        total = table.q[o[1]][o[0]][h]
        for j in o[1:]:
            total = total + table.q[o[1]][j][h]
        assert total == qs.m


def test_dual_pair_bound_petersen_equality():
    s = scheme_from_graph(petersen())
    qs = [q for q in orderings(s) if q.m == 5][0]
    res = dual_bounds(qs)
    assert res.part1.equality
    assert scalar_as_fraction(res.part1.lhs) == F(-16, 9)
    assert scalar_as_fraction(res.part1.rhs) == F(-16, 9)


def test_dual_triple_bound_heawood_equality():
    for qs in orderings(heawood_scheme()):
        res = dual_bounds(qs)
        assert res.part2 is not None and res.part2.holds and res.part2.equality
        assert not res.part1.equality  # class 3: the pair bound is strict


def test_linked_system_ratio():
    # the pair bound on the maximal linked-system arrays equals
    # -b1* * f/(f-1) with f = 2^(2t-1), exactly
    for t in (2, 3):
        qs = krein_array_structure(linked_design_krein_array(t))
        res = dual_bounds(qs)
        f = F(2 ** (2 * t - 1))
        b1 = qs.system.beta[1]
        lhs = scalar_as_fraction(res.part1.lhs)
        assert lhs == -b1 * f / (f - 1)
        assert res.part1.holds and not res.part1.equality


def test_dual_fundamental_bound_cases():
    qs = [q for q in orderings(scheme_from_graph(petersen())) if q.m == 5][0]
    res = dual_fundamental_bound(qs)
    assert res.holds and not res.equality and not res.dual_tight

    for qs in orderings(scheme_from_graph(cube(3))):
        res = dual_fundamental_bound(qs)
        assert res.q_bipartite and not res.dual_tight

    for qs in orderings(heawood_scheme()):
        res = dual_fundamental_bound(qs)
        assert res.equality and not res.q_bipartite and res.dual_tight


def test_audit_heawood_full_pass():
    qs, e, table = heawood_ordering()
    audit = class3_dualtight_audit(qs, dual_fundamental_bound(qs), e, table)
    assert audit.all_passed
    assert audit.b2star_is_1 and audit.b1star_eq_c2star and audit.q_antipodal
    assert audit.record("ratio_relation").passed
    assert audit.record("middle_square").passed
    assert audit.record("q233_formula").passed
    assert audit.record("m3_formula").passed


def test_audit_symbolic_family_instance():
    # b2* = 1 and b1* = c2*: the displayed factorization matches Vieta
    qs = structure_from_dual_parameters([F(6), F(3), F(1)], [F(1), F(3), F(6)])
    bound = dual_fundamental_bound(qs)
    assert bound.dual_tight
    audit = class3_dualtight_audit(qs, bound, None, None)
    assert audit.all_passed
    assert audit.record("charpoly_factorization").passed
    assert audit.record("sum_relation").passed
    assert audit.record("product_relation").passed


@pytest.mark.parametrize(
    "make",
    [
        heawood_ordering,
        lambda: (
            krein_array_structure(
                {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
            ),
            None,
            None,
        ),
    ],
    ids=["heawood_field_entries", "rational_krein_array"],
)
def test_charpoly_factorization_fails_on_a_perturbed_oracle(monkeypatch, make):
    from qpolykit import tridiagonal

    qs, e, table = make()
    bound = dual_fundamental_bound(qs)
    assert class3_dualtight_audit(qs, bound, e, table).record("charpoly_factorization").passed
    real = tridiagonal.charpoly_by_cofactor
    # heawood's oracle has field coefficients, the Krein array's is a RationalPoly
    assert isinstance(real(row_sum_matrix(qs.system)), RationalPoly) == (qs.provenance == "krein_array")
    for k in range(5):
        for delta in (F(1), F(-1, 7)):

            def perturbed(matrix):
                phi = real(matrix)
                if isinstance(phi, RationalPoly):
                    return phi + RationalPoly([0] * k + [delta])
                return phi[:k] + [phi[k] + delta] + phi[k + 1 :]

            monkeypatch.setattr(tridiagonal, "charpoly_by_cofactor", perturbed)
            assert class3_dualtight_audit(qs, bound, e, table).record("charpoly_factorization").passed is False


def test_audit_perturbed_array_fails():
    # dual-bound equality can hold at parameter level with b2* != 1, but the
    # multiplicity squeeze then fails: no genuine scheme lives here
    qs = structure_from_dual_parameters([F(10), F(7), F(4)], [F(1), F(2), F(10)])
    bound = dual_fundamental_bound(qs)
    assert bound.dual_tight
    audit = class3_dualtight_audit(qs, bound, None, None)
    assert not audit.all_passed
    assert not audit.b2star_is_1
    assert audit.record("multiplicity_bound").passed is False


def _bumped(table, i, j, h):
    """The Krein table with q_{ij}^h raised by 1."""
    q = [[list(row) for row in layer] for layer in table.q]
    q[i][j][h] = q[i][j][h] + 1
    return replace(table, q=tuple(tuple(map(tuple, layer)) for layer in q))


def test_audit_fails_on_perturbed_scheme_facts():
    # the audit reads q_23^3, q_33^3 and m_3 from the facts it is passed:
    # each perturbed value fails its own record and no other
    qs, e, table = heawood_ordering()
    bound = dual_fundamental_bound(qs)
    o = qs.idempotent_order
    assert class3_dualtight_audit(qs, bound, e, table).all_passed
    mults = list(e.multiplicities)
    mults[o[3]] += 1
    cases = {
        "q233_formula": (e, _bumped(table, o[2], o[3], o[3])),
        "multiplicity_bound": (e, _bumped(table, o[3], o[3], o[3])),
        "m3_formula": (replace(e, multiplicities=tuple(mults)), table),
    }
    for name, (eig, tab) in cases.items():
        audit = class3_dualtight_audit(qs, bound, eig, tab)
        assert [r.name for r in audit.records if r.passed is False] == [name]


def test_audit_rejects_facts_that_do_not_match_the_structure():
    qs, e, table = heawood_ordering()
    bound = dual_fundamental_bound(qs)
    for facts in ((None, None), (e, None), (None, table)):
        with pytest.raises(SchemeError, match="eigendata and a Krein table"):
            class3_dualtight_audit(qs, bound, *facts)
    array = structure_from_dual_parameters([F(6), F(3), F(1)], [F(1), F(3), F(6)])
    with pytest.raises(SchemeError, match="eigendata and a Krein table"):
        class3_dualtight_audit(array, dual_fundamental_bound(array), e, table)


def test_spectral_identity_everywhere():
    for name, g in corpus_graphs().items():
        s = scheme_from_graph(g)
        for qs in orderings(s):
            assert b1star_spectral_identity(qs), name


@pytest.mark.parametrize("graph", [petersen(), heawood(), cycle(7)], ids=["rational", "quadratic", "cubic"])
def test_spectral_identity_compares_the_q_column_with_the_krein_system(graph):
    # the identity must read eigendata's Q column, not the system's own spectrum
    for qs in orderings(scheme_from_graph(graph)):
        assert b1star_spectral_identity(qs)
        col = qs.q_column
        moved = replace(qs, q_column=col[:-1] + (col[-1] - 1,))
        assert moved.system is qs.system
        assert not b1star_spectral_identity(moved)


def test_spectral_identity_is_decided_in_the_field(monkeypatch):
    # one route for rational and field orderings alike: F_D is evaluated at
    # the Q column in its number field, with no comparison of isolated roots
    import sys

    def forbidden(*args, **kwargs):
        raise AssertionError("the identity must not leave the number field")

    named = [(name, qs) for name, g in corpus_graphs().items() for qs in orderings(scheme_from_graph(g))]
    assert {qs.system.is_rational() for _, qs in named if qs.system} == {True, False}
    modules = [m for name, m in sys.modules.items() if name.startswith("qpolykit.")]
    for module in modules:
        if getattr(module, "compare", None) is compare:
            monkeypatch.setattr(module, "compare", forbidden)
    monkeypatch.setattr(FieldElement, "to_algebraic", forbidden)
    for name, qs in named:
        if qs.system is not None:
            assert b1star_spectral_identity(qs), name


def test_dual_bound_equalities_track_class_on_corpus():
    # pair-bound equality exactly at class 2; triple-bound equality exactly
    # at class 3, for every polynomial ordering in the corpus
    for name, g in corpus_graphs().items():
        s = scheme_from_graph(g)
        for qs in orderings(s):
            res = dual_bounds(qs)
            assert res.part1.holds, name
            assert res.part1.equality == (qs.d == 2), name
            if qs.d >= 3:
                assert res.part2.holds, name
                assert res.part2.equality == (qs.d == 3), name


def test_dual_multiplicities_heawood():
    qs = orderings(heawood_scheme())[0]
    mults = valencies(qs.system)
    vals = [scalar_as_fraction(m) for m in mults]
    assert vals == [1, 6, 6, 1]


def test_classification_end_to_end():
    rep = classify(heawood_scheme())
    assert rep.dual_tight and rep.incidence_relation == 1
    assert rep.design_params == (7, 3, 1)
    assert rep.biconditional_ok

    rep = classify(scheme_from_graph(incidence_graph(biplane_11())))
    assert rep.dual_tight and rep.design_params == (11, 5, 2)
    assert rep.biconditional_ok

    rep = classify(scheme_from_graph(cube(3)))
    assert not rep.dual_tight and rep.incidence_relation is None
    assert rep.biconditional_ok


def test_classification_alarms_when_the_flags_contradict_the_design():
    # Heawood is the incidence graph of the Fano plane, so orderings that all
    # read not dual-tight contradict the design side
    rep = classify_class3_scheme(heawood_scheme(), [False, False])
    assert not rep.dual_tight and rep.design_params == (7, 3, 1)
    assert rep.biconditional_ok is False
    rep = classify_class3_scheme(scheme_from_graph(cube(3)), [True])
    assert rep.dual_tight and rep.incidence_relation is None
    assert rep.biconditional_ok is False


def test_pq_identity_catches_a_perturbed_off_diagonal_entry():
    # C8's P has four zeros P[j][u] with u != j; raising Q[u][j] at one
    # keeps (PQ)[j][j] = |X| and breaks (PQ)[0][j], since P[0][u] = k_u
    s = scheme_from_graph(cycle(8))
    e = eigendata(s)
    schemes._verify_pq_identity(e.field, e.p_matrix, e.q_matrix, s.n)
    spots = [(u, j) for j, row in enumerate(e.p_matrix) for u, x in enumerate(row) if u != j and x == 0]
    assert len(spots) == 4
    for u, j in spots:
        q = [list(row) for row in e.q_matrix]
        q[u][j] = q[u][j] + 1
        assert e.field.dot(e.p_matrix[j], [row[j] for row in q]) == s.n  # the diagonal still holds
        with pytest.raises(AssertionError, match=re.escape("PQ = |X| I fails")):
            schemes._verify_pq_identity(e.field, e.p_matrix, tuple(map(tuple, q)), s.n)


def test_classification_counts_orderings_from_the_flags():
    s = heawood_scheme()
    rep = classify_class3_scheme(s, [False, True])
    assert rep.orderings == 2 and rep.to_json_dict()["orderings"] == 2
    assert rep.dual_tight and rep.biconditional_ok
    assert classify_class3_scheme(s, [False]).orderings == 1
    with pytest.raises(SchemeError, match="no polynomial ordering"):
        classify_class3_scheme(s, [])


def test_classification_degenerate_design_excluded():
    # C6 is the incidence graph of the complete 2-(3,2,1) design; its scheme
    # is Q-bipartite, so admitting the degenerate design would false-alarm
    rep = classify(scheme_from_graph(cycle(6)))
    assert not rep.dual_tight
    assert rep.incidence_relation is None
    assert rep.biconditional_ok


def test_krein_array_parse_errors():
    with pytest.raises(SchemeError):
        krein_array_structure({"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "?", "1"], "c_star": ["1", "3", "6"]})
    with pytest.raises(SchemeError):
        krein_array_structure({"type": "krein_array", "class": 3, "m": "6", "b_star": ["5", "3", "1"], "c_star": ["1", "3", "6"]})
    with pytest.raises(SchemeError):
        krein_array_structure({"type": "krein_array", "class": 1, "m": "6", "b_star": ["6"], "c_star": ["1"]})
    with pytest.raises(SchemeError):
        krein_array_structure({"type": "relations", "n": 3, "relations": []})


def test_krein_array_structure_runs_dual_side():
    qs = krein_array_structure(
        {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
    )
    assert qs.provenance == "krein_array"
    assert dual_fundamental_bound(qs).dual_tight


# -- sympy oracle: eigenmatrices, multiplicities and Krein tables --------------------------
#
# Field elements are lifted to sympy polynomials in the field's generator y
# and all arithmetic below is sympy's, modulo the field's modulus.

Y, X = sympy.symbols("y x")


def sym_rational(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def sympy_lift(field):
    """(modulus, lift): the field's modulus and its elements as sympy polynomials in y."""
    modulus = sum(sym_rational(c) * Y**k for k, c in enumerate(field.modulus.coeffs))

    def lift(el):
        return sum(sym_rational(c) * Y**k for k, c in enumerate(el.coeffs))

    return modulus, lift


def sympy_product_of_roots(values, mults, modulus):
    """prod (x - v)^m as coefficients in Q[y]/(modulus), constant term first."""
    acc = [sympy.Integer(1)]
    for v, m in zip(values, mults):
        for _ in range(m):
            shifted = [sympy.Integer(0)] + acc
            acc = [sympy.rem(sympy.expand(c - v * d), modulus, Y) for c, d in zip(shifted, acc + [0])]
    return acc


def sympy_charpoly(rows):
    return list(reversed(sympy.Matrix(rows).charpoly(X).all_coeffs()))


@pytest.mark.parametrize("graph", [petersen(), heawood(), cycle(7)], ids=["petersen", "heawood", "cycle:n=7"])
def test_eigenmatrix_and_krein_table_against_sympy(graph):
    s = scheme_from_graph(graph)
    e = eigendata(s)
    table = krein(s, e)
    modulus, lift = sympy_lift(e.field)
    d, n = s.d, s.n
    p = [[lift(v) for v in row] for row in e.p_matrix]
    # column u of P is the eigenvalue multiset of B_u = (p_{uj}^h)
    for u in range(d + 1):
        b_u = [[s.p[u][j][h] for j in range(d + 1)] for h in range(d + 1)]
        column = [p[j][u] for j in range(d + 1)]
        assert sympy_product_of_roots(column, [1] * (d + 1), modulus) == sympy_charpoly(b_u)
    # the eigenvalue P[j][1] of the adjacency matrix has multiplicity m_j
    adjacency = [[1 if y in graph.adj[x] else 0 for y in range(n)] for x in range(n)]
    thetas = [p[j][1] for j in range(d + 1)]
    assert sympy_product_of_roots(thetas, e.multiplicities, modulus) == sympy_charpoly(adjacency)
    # q_ij^h = (m_i m_j / n) sum_u P_iu P_ju P_hu / k_u^2
    m, k = e.multiplicities, s.valencies
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                formula = sympy.Rational(m[i] * m[j], n) * sum(
                    p[i][u] * p[j][u] * p[h][u] / k[u] ** 2 for u in range(d + 1)
                )
                assert sympy.rem(sympy.expand(formula - lift(table.q[i][j][h])), modulus, Y) == 0
