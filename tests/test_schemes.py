from dataclasses import replace
from fractions import Fraction as F
from itertools import permutations

import pytest
import sympy

from qpolykit.algebraics import compare
from qpolykit.families import (
    biplane_11,
    corpus_graphs,
    cube,
    cycle,
    heawood,
    incidence_graph,
    line_graph,
    linked_design_krein_array,
    petersen,
)
from qpolykit.numberfield import FieldElement, scalar_as_fraction
from qpolykit.polynomials import RationalPoly
from qpolykit.schemes import (
    AssociationScheme,
    SchemeError,
    b1star_spectral_identity,
    class3_dualtight_audit,
    classify_class3_scheme,
    dual_bounds,
    dual_fundamental_bound,
    dual_multiplicities,
    eigendata,
    find_q_orderings,
    krein,
    krein_array_structure,
    krein_oracle,
    scheme_from_graph,
    structure_from_dual_parameters,
    verify_scheme,
)
from qpolykit.tridiagonal import validate


def heawood_scheme():
    return scheme_from_graph(heawood())


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
    s = scheme_from_graph(petersen())
    rep = verify_scheme(s)
    assert rep.ok
    assert s.p[1][1][1] == 0  # triangle-free
    identity_only = AssociationScheme(3, 0, None, (((1,),),))
    assert not verify_scheme(identity_only).ok


def test_verify_scheme_tampered_p_table():
    s = scheme_from_graph(petersen())
    p = [[[v for v in row] for row in block] for block in s.p]
    p[1][1][0] += 1  # break sum_j p[1][j]^0 = k_1
    tampered = AssociationScheme(s.n, s.d, None, tuple(tuple(tuple(r) for r in b) for b in p))
    rep = verify_scheme(tampered)
    assert not rep.ok
    assert any("sum_j" in v or "valenc" in v or "triangle" in v for v in rep.violations)


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
    assert e.valencies == (1, 3, 6, 4)
    assert e.multiplicities == (1, 6, 6, 1)
    assert e.field.degree == 2


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
    for name in ("c5", "petersen", "cube", "heawood"):
        g = corpus_graphs()[name]
        s = scheme_from_graph(g)
        e = eigendata(s)
        kt = krein(s, e)
        oracle = krein_oracle(s, e)
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for h in range(s.d + 1):
                    assert (kt.q[i][j][h] - oracle[i][j][h]).is_zero(), (name, i, j, h)


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
    orderings = find_q_orderings(s)
    by_m = {int(qs.m): qs for qs in orderings}
    qs = by_m[5]
    assert [t.as_fraction() for t in qs.dual_eigenvalues] == [5, F(5, 3), F(-5, 3)]
    assert qs.b_star[1].as_fraction() == F(16, 9)


def test_b1star_system_examples():
    s = scheme_from_graph(petersen())
    qs = [q for q in find_q_orderings(s) if q.m == 5][0]
    system = qs.system
    assert system.d == 2 and system.kappa == F(5)
    assert validate(system).ok

    qs = find_q_orderings(heawood_scheme())[0]
    system = qs.system
    assert system.d == 3 and validate(system).ok
    # column sums of the ordered Krein matrix all equal m
    for h in range(4):
        total = qs.b1star[0][h]
        for j in range(1, 4):
            total = total + qs.b1star[j][h]
        assert total == qs.m


def test_dual_pair_bound_petersen_equality():
    s = scheme_from_graph(petersen())
    qs = [q for q in find_q_orderings(s) if q.m == 5][0]
    res = dual_bounds(qs)
    assert res.part1.equality
    assert scalar_as_fraction(res.part1.lhs) == F(-16, 9)
    assert scalar_as_fraction(res.part1.rhs) == F(-16, 9)


def test_dual_triple_bound_heawood_equality():
    for qs in find_q_orderings(heawood_scheme()):
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
        b1 = qs.b_star[1]
        lhs = scalar_as_fraction(res.part1.lhs)
        assert lhs == -b1 * f / (f - 1)
        assert res.part1.holds and not res.part1.equality


def test_dual_fundamental_bound_cases():
    qs = [q for q in find_q_orderings(scheme_from_graph(petersen())) if q.m == 5][0]
    res = dual_fundamental_bound(qs)
    assert res.holds and not res.equality and not res.dual_tight

    for qs in find_q_orderings(scheme_from_graph(cube(3))):
        res = dual_fundamental_bound(qs)
        assert res.q_bipartite and not res.dual_tight

    for qs in find_q_orderings(heawood_scheme()):
        res = dual_fundamental_bound(qs)
        assert res.equality and not res.q_bipartite and res.dual_tight


def test_audit_heawood_full_pass():
    qs = find_q_orderings(heawood_scheme())[0]
    audit = class3_dualtight_audit(qs)
    assert audit.all_passed
    assert audit.b2star_is_1 and audit.b1star_eq_c2star and audit.q_antipodal
    assert audit.record("ratio_relation").passed
    assert audit.record("middle_square").passed
    assert audit.record("q233_formula").passed
    assert audit.record("m3_formula").passed


def test_audit_symbolic_family_instance():
    # b2* = 1 and b1* = c2*: the displayed factorization matches Vieta
    qs = structure_from_dual_parameters(F(6), [F(6), F(3), F(1)], [F(1), F(3), F(6)])
    bound = dual_fundamental_bound(qs)
    assert bound.dual_tight
    audit = class3_dualtight_audit(qs, bound)
    assert audit.all_passed
    assert audit.record("charpoly_factorization").passed
    assert audit.record("sum_relation").passed
    assert audit.record("product_relation").passed


@pytest.mark.parametrize(
    "make",
    [
        lambda: find_q_orderings(heawood_scheme())[0],
        lambda: krein_array_structure(
            {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
        ),
    ],
    ids=["heawood_field_entries", "rational_krein_array"],
)
def test_charpoly_factorization_fails_on_a_perturbed_oracle(monkeypatch, make):
    from qpolykit import tridiagonal

    qs = make()
    assert class3_dualtight_audit(qs).record("charpoly_factorization").passed
    real = tridiagonal.charpoly_by_cofactor
    # heawood's oracle has field coefficients, the Krein array's is a RationalPoly
    assert isinstance(real(qs.b1star), RationalPoly) == (qs.provenance == "krein_array")
    for k in range(5):
        for delta in (F(1), F(-1, 7)):

            def perturbed(matrix):
                phi = real(matrix)
                if isinstance(phi, RationalPoly):
                    return phi + RationalPoly([0] * k + [delta])
                return phi[:k] + [phi[k] + delta] + phi[k + 1 :]

            monkeypatch.setattr(tridiagonal, "charpoly_by_cofactor", perturbed)
            assert class3_dualtight_audit(qs).record("charpoly_factorization").passed is False


def test_audit_perturbed_array_fails():
    # dual-bound equality can hold at parameter level with b2* != 1, but the
    # multiplicity squeeze then fails: no genuine scheme lives here
    qs = structure_from_dual_parameters(F(10), [F(10), F(7), F(4)], [F(1), F(2), F(10)])
    bound = dual_fundamental_bound(qs)
    assert bound.dual_tight
    audit = class3_dualtight_audit(qs, bound)
    assert not audit.all_passed
    assert not audit.b2star_is_1
    assert audit.record("multiplicity_bound").passed is False


def test_spectral_identity_everywhere():
    for name, g in corpus_graphs().items():
        s = scheme_from_graph(g)
        for qs in find_q_orderings(s):
            assert b1star_spectral_identity(qs), name


@pytest.mark.parametrize("graph", [petersen(), heawood(), cycle(7)], ids=["rational", "quadratic", "cubic"])
def test_spectral_identity_compares_the_q_column_with_the_krein_system(graph):
    # the identity must read eigendata's Q column, not the system's own spectrum
    for qs in find_q_orderings(scheme_from_graph(graph)):
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

    orderings = [
        (name, qs) for name, g in corpus_graphs().items() for qs in find_q_orderings(scheme_from_graph(g))
    ]
    assert {qs.system.is_rational() for _, qs in orderings if qs.system} == {True, False}
    modules = [m for name, m in sys.modules.items() if name.startswith("qpolykit.")]
    for module in modules:
        if getattr(module, "compare", None) is compare:
            monkeypatch.setattr(module, "compare", forbidden)
    monkeypatch.setattr(FieldElement, "to_algebraic", forbidden)
    for name, qs in orderings:
        if qs.system is not None:
            assert b1star_spectral_identity(qs), name


def test_dual_bound_equalities_track_class_on_corpus():
    # pair-bound equality exactly at class 2; triple-bound equality exactly
    # at class 3, for every polynomial ordering in the corpus
    for name, g in corpus_graphs().items():
        s = scheme_from_graph(g)
        for qs in find_q_orderings(s):
            res = dual_bounds(qs)
            assert res.part1.holds, name
            assert res.part1.equality == (qs.d == 2), name
            if qs.d >= 3:
                assert res.part2.holds, name
                assert res.part2.equality == (qs.d == 3), name


def test_dual_multiplicities_heawood():
    qs = find_q_orderings(heawood_scheme())[0]
    mults = dual_multiplicities(qs)
    vals = [scalar_as_fraction(m) for m in mults]
    assert vals == [1, 6, 6, 1]


def test_classification_end_to_end():
    rep = classify_class3_scheme(heawood_scheme())
    assert rep.dual_tight and rep.incidence_relation == 1
    assert rep.design_params == (7, 3, 1)
    assert rep.biconditional_ok

    rep = classify_class3_scheme(scheme_from_graph(incidence_graph(biplane_11())))
    assert rep.dual_tight and rep.design_params == (11, 5, 2)
    assert rep.biconditional_ok

    rep = classify_class3_scheme(scheme_from_graph(cube(3)))
    assert not rep.dual_tight and rep.incidence_relation is None
    assert rep.biconditional_ok


def test_classification_degenerate_design_excluded():
    # C6 is the incidence graph of the complete 2-(3,2,1) design; its scheme
    # is Q-bipartite, so admitting the degenerate design would false-alarm
    rep = classify_class3_scheme(scheme_from_graph(cycle(6)))
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


def test_from_p_numbers_supports_full_dual_side():
    s = scheme_from_graph(cycle(7))
    point_free = AssociationScheme.from_p_numbers(s.p)
    assert not point_free.has_points and point_free.n == 7
    e = eigendata(point_free)
    assert e.multiplicities == (1, 2, 2, 2)
    assert len(find_q_orderings(point_free, e)) == 3
    with pytest.raises(SchemeError):
        krein_oracle(point_free, e)


def test_krein_array_structure_runs_dual_side():
    qs = krein_array_structure(
        {"type": "krein_array", "class": 3, "m": "6", "b_star": ["6", "3", "1"], "c_star": ["1", "3", "6"]}
    )
    assert qs.provenance == "krein_array"
    rep = classify_class3_scheme(qs)
    assert rep.dual_tight
    assert not rep.primal_available
    assert rep.incidence_relation is None


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
    m, k = e.multiplicities, e.valencies
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                formula = sympy.Rational(m[i] * m[j], n) * sum(
                    p[i][u] * p[j][u] * p[h][u] / k[u] ** 2 for u in range(d + 1)
                )
                assert sympy.rem(sympy.expand(formula - lift(table.q[i][j][h])), modulus, Y) == 0
