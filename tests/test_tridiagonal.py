import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolykit import algebraics, tridiagonal
from qpolykit.algebraics import AlgebraicReal, ProductValue, compare, compare_rational, isolate_real_roots, product_enclosure
from qpolykit.checks import check_system
from qpolykit.families import cycle, heawood
from qpolykit.numberfield import RealAlgebraicField, eval_rational_poly
from qpolykit.polynomials import RationalPoly
from qpolykit.schemes import eigendata, find_q_orderings, krein, scheme_from_graph
from qpolykit.serialize import value_json
from qpolykit.tridiagonal import (
    InvalidSystem,
    TridiagonalSystem,
    certify_spectrum,
    charpoly_by_cofactor,
    compare_shifted_product,
    f_polynomials,
    interlacing_check,
    pair_bound,
    random_system,
    reduced_matrix,
    shifted_subset_product,
    spectrum,
    triple_bound,
)

from helpers import endpoint_product_bound, from_roots

C5 = TridiagonalSystem.from_entries([F(0), F(0), F(1)], [F(2), F(1)], [F(1), F(1)], F(2))
HEAWOOD = TridiagonalSystem.from_intersection_numbers([3, 2, 2], [1, 1, 3])
CUBE = TridiagonalSystem.from_intersection_numbers([3, 2, 1], [1, 2, 3])
H42 = TridiagonalSystem.from_intersection_numbers([4, 3, 2, 1], [1, 2, 3, 4])
ICOSA = TridiagonalSystem.from_intersection_numbers([5, 2, 1], [1, 2, 5])
PETERSEN_Q = TridiagonalSystem.from_intersection_numbers([3, 2], [1, 1])


def test_validate_examples():
    # a system is validated when it is built: a valid one exists, an invalid one raises
    assert (C5.d, HEAWOOD.d) == (2, 3)
    with pytest.raises(InvalidSystem) as exc:
        TridiagonalSystem.from_entries([F(0), F(0), F(1)], [F(2), F(1)], [F(2), F(1)], F(2))
    assert any("gamma_1" in v for v in exc.value.violations)
    assert HEAWOOD.alpha == (F(0), F(0), F(0), F(0))


def test_validate_reports_every_violation():
    with pytest.raises(InvalidSystem) as exc:
        TridiagonalSystem.from_entries([F(1), F(-1), F(1)], [F(2), F(1)], [F(1), F(1)], F(0))
    assert len(exc.value.violations) >= 3
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == "invalid tridiagonal system: " + "; ".join(exc.value.violations)


def test_every_route_to_a_system_rejects_an_invalid_one():
    # D = 3 with gamma_1 = 2: rows still sum to kappa, so only one clause fails
    alpha, beta, gamma, kappa = (F(0), F(0), F(0), F(2)), (F(4), F(2), F(2)), (F(2), F(2), F(2)), F(4)
    for build in (
        lambda: TridiagonalSystem(3, alpha, beta, gamma, kappa),
        lambda: TridiagonalSystem.from_entries(alpha, beta, gamma, kappa),
        lambda: TridiagonalSystem.from_intersection_numbers(beta, gamma),
        lambda: replace(H42, d=3, alpha=alpha, beta=beta, gamma=gamma, kappa=kappa),
    ):
        with pytest.raises(InvalidSystem, match="gamma_1 must equal 1") as exc:
            build()
        assert exc.value.violations == ("gamma_1 must equal 1",)


@pytest.mark.parametrize(
    "entry, rest",
    [(spectrum, ()), (f_polynomials, ()), (pair_bound, (None,)), (triple_bound, (None,))],
    ids=["spectrum", "f_polynomials", "pair_bound", "triple_bound"],
)
def test_every_entry_point_rejects_an_invalid_system(entry, rest):
    # an entry point only receives built systems, so the gamma_1 = 2 entries raise
    # before it runs, on every call: an invalid system is never remembered as valid
    entries = (F(0), F(0), F(0), F(2)), (F(4), F(2), F(2)), (F(2), F(2), F(2)), F(4)
    for _ in range(2):
        with pytest.raises(InvalidSystem, match="gamma_1 must equal 1") as exc:
            entry(TridiagonalSystem.from_entries(*entries), *rest)
        assert exc.value.violations == ("gamma_1 must equal 1",)
    # the same call on a valid D = 4 system runs
    assert entry(H42, *(spectrum(H42) for _ in rest)) is not None


def test_replace_cannot_make_an_invalid_system():
    assert replace(HEAWOOD) == HEAWOOD
    with pytest.raises(InvalidSystem) as exc:
        replace(HEAWOOD, kappa=F(4))
    assert exc.value.violations == tuple(f"row {i} must sum to kappa" for i in range(4))
    with pytest.raises(InvalidSystem, match="D must be at least 2"):
        replace(PETERSEN_Q, d=1, alpha=PETERSEN_Q.alpha[:2], beta=PETERSEN_Q.beta[:1], gamma=PETERSEN_Q.gamma[:1])


def _row_sum_problems(d, alpha, beta, gamma, kappa) -> list[str]:
    """The failed clauses of the row-sum condition, written out apart from the constructor."""
    out = ["D must be at least 2"] if d < 2 else []
    if (len(alpha), len(beta), len(gamma)) != (d + 1, d, d):
        return out + ["entry counts must be alpha: D+1, beta: D, gamma: D"]
    out += ["kappa must be positive"] * (kappa <= 0)
    out += ["alpha_0 must equal 0"] * (alpha[0] != 0)
    out += [f"alpha_{i} must be nonnegative" for i in range(d + 1) if alpha[i] < 0]
    out += [f"beta_{i} must be positive" for i in range(d) if beta[i] <= 0]
    out += ["gamma_1 must equal 1"] * (gamma[0] != 1)
    out += [f"gamma_{i} must be positive" for i in range(1, d + 1) if gamma[i - 1] <= 0]
    padded_beta, padded_gamma = list(beta) + [0], [0] + list(gamma)
    out += [
        f"row {i} must sum to kappa"
        for i in range(d + 1)
        if alpha[i] + padded_beta[i] + padded_gamma[i] != kappa
    ]
    return out


_entry = st.fractions(min_value=-1, max_value=4, max_denominator=2)
_kappa = st.fractions(min_value=-1, max_value=12, max_denominator=2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(_entry, min_size=d + 1, max_size=d + 1),
            st.lists(_entry, min_size=d, max_size=d),
            st.lists(_entry, min_size=d, max_size=d),
            _kappa,
        )
    ),
    st.booleans(),
)
def test_construction_matches_an_independent_row_sum_predicate(entries, fix_rows):
    d, alpha, beta, gamma, kappa = entries
    if fix_rows:
        # aim at the valid region: beta_0 = kappa, gamma_1 = 1 and every row summing to kappa
        beta, gamma = [kappa] + beta[1:], [F(1)] + gamma[1:]
        alpha = [kappa - ([0] + gamma)[i] - (beta + [0])[i] for i in range(d + 1)]
    expected = _row_sum_problems(d, alpha, beta, gamma, kappa)
    try:
        system = TridiagonalSystem(d, tuple(alpha), tuple(beta), tuple(gamma), kappa)
    except InvalidSystem as exc:
        assert list(exc.violations) == expected
    else:
        assert expected == [] and system.d == d


def test_a_valid_system_is_validated_once(monkeypatch):
    calls = [0]
    real = TridiagonalSystem.__post_init__

    def counted(system):
        calls[0] += 1
        return real(system)

    monkeypatch.setattr(TridiagonalSystem, "__post_init__", counted)
    system = TridiagonalSystem.from_intersection_numbers([4, 3, 2, 1], [1, 2, 3, 4])
    report = spectrum(system)
    pair_bound(system, report)
    triple_bound(system, report)
    f_polynomials(system)
    assert calls == [1]
    # the system is its entries, nothing else
    assert system == TridiagonalSystem.from_intersection_numbers([4, 3, 2, 1], [1, 2, 3, 4])


def test_reduced_matrix_examples():
    assert reduced_matrix(C5) == ((F(-1), F(1)), (F(1), F(0)))
    rm = reduced_matrix(HEAWOOD)
    assert [rm[i][i] for i in range(3)] == [F(-1), F(0), F(-2)]
    assert [rm[0][1], rm[1][2]] == [F(2), F(2)]
    assert [rm[1][0], rm[2][1]] == [F(1), F(1)]
    generic = TridiagonalSystem.from_entries(
        [F(0), F(3), F(3)], [F(7), F(3)], [F(1), F(4)], F(7)
    )
    rm2 = reduced_matrix(generic)
    assert rm2[0][0] == F(-1) and rm2[1][1] == F(7) - F(3) - F(4)


def test_f_polynomials_examples():
    fs = f_polynomials(C5)
    assert fs[2] == RationalPoly((-1, 1, 1))
    fs = f_polynomials(HEAWOOD)
    f3 = fs[3]
    s2 = isolate_real_roots(RationalPoly((-2, 0, 1)))[-1]
    roots = isolate_real_roots(f3)
    assert roots[0].as_rational() == F(-3)
    assert compare(roots[2], s2) == 0


def test_f2_at_minus_one_is_minus_beta1():
    rng = random.Random(11)
    for _ in range(25):
        s = random_system(rng, rng.randint(2, 5))
        fs = f_polynomials(s)
        assert fs[2].evaluate(-1) == -s.beta[1]


def test_spectrum_examples():
    rep = spectrum(C5)
    assert rep.eigenvalues[0].as_rational() == F(2)
    golden_hi = isolate_real_roots(RationalPoly((-1, 1, 1)))[-1]
    assert compare(rep.eigenvalues[1], golden_hi) == 0
    rep = spectrum(HEAWOOD)
    shown = [value_json(e) for e in rep.eigenvalues]
    assert [shown[0], shown[3]] == [{"rational": "3"}, {"rational": "-3"}]
    assert [shown[1]["approx"], shown[2]["approx"]] == pytest.approx([2**0.5, -(2**0.5)])
    rep = spectrum(ICOSA)
    s5 = isolate_real_roots(RationalPoly((-5, 0, 1)))[-1]
    assert compare(rep.eigenvalues[1], s5) == 0
    assert rep.eigenvalues[2].as_rational() == F(-1)
    assert compare(rep.eigenvalues[3], s5.mul_rational(-1)) == 0


def test_spectrum_certifies_known_roots():
    # HEAWOOD's roots sqrt(2) > -sqrt(2) > -3 in Q(sqrt(2)) are certified on
    # the rational system; tied, ascending or foreign values are not
    from qpolykit.numberfield import RealAlgebraicField

    field, r2 = RealAlgebraicField.from_root(AlgebraicReal(RationalPoly((-2, 0, 1)), 1, 2))
    minus3 = field.constant(-3)
    rep = certify_spectrum(HEAWOOD, (r2, -r2, minus3))
    assert rep.eigenvalues == (F(3), r2, -r2, minus3) and rep.f_polys == ()
    for bad in ((r2, r2, minus3), (minus3, -r2, r2), (-r2, r2, minus3)):
        with pytest.raises(AssertionError, match="strictly descending"):
            certify_spectrum(HEAWOOD, bad)
    with pytest.raises(AssertionError, match="annihilate"):
        certify_spectrum(HEAWOOD, (r2, -r2, field.constant(-2)))
    with pytest.raises(ValueError):
        certify_spectrum(HEAWOOD, (r2, -r2))
    # rational known roots: the 4-cycle {2, 1; 1, 2} has spectrum 2, 0, -2
    c4 = TridiagonalSystem.from_intersection_numbers([2, 1], [1, 2])
    assert certify_spectrum(c4, (F(0), F(-2))).eigenvalues == (F(2), F(0), F(-2))
    with pytest.raises(AssertionError, match="strictly descending"):
        certify_spectrum(c4, (F(-2), F(0)))


# -- F_D evaluated by its recurrence, with no polynomial ------------------------------


def field_of(coeffs):
    """The field of the largest root of the rational polynomial coeffs."""
    return RealAlgebraicField.from_root(isolate_real_roots(RationalPoly(coeffs))[-1])[0]


SQRT2_FIELD = field_of((-2, 0, 1))
COS7_FIELD = field_of((-1, -2, 1, 1))  # 2cos(2 pi/7)


def scheme_orderings(*graphs):
    """(system, q_column) of every polynomial ordering of the graphs' schemes."""
    out = []
    for g in graphs:
        s = scheme_from_graph(g)
        e = eigendata(s)
        out += [(qs.system, qs.q_column) for qs in find_q_orderings(s, e, krein(s, e))]
    return out


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([SQRT2_FIELD, COS7_FIELD]),
    st.lists(st.fractions(-5, 5, max_denominator=4), min_size=1, max_size=3),
)
def test_recurrence_evaluator_matches_the_cofactor_charpoly(seed, d, field, coeffs):
    system = random_system(random.Random(seed), d)
    x = field.element(coeffs)
    oracle = charpoly_by_cofactor(reduced_matrix(system))
    assert tridiagonal._f_d_at(system, x) == eval_rational_poly(oracle.coeffs, x)
    assert tridiagonal._f_d_at(system, coeffs[0]) == oracle.evaluate(coeffs[0])


def test_recurrence_evaluator_on_scheme_systems():
    # cycle:n=7 has rational systems with a spectrum in the cubic field;
    # heawood has systems with entries in Q(sqrt2)
    cases = scheme_orderings(cycle(7), heawood())
    assert {system.is_rational() for system, _ in cases} == {True, False}
    for system, q_column in cases:
        gen = q_column[1].field.generator()
        oracle = charpoly_by_cofactor(reduced_matrix(system))
        coeffs = oracle.coeffs if isinstance(oracle, RationalPoly) else oracle
        for x in (gen, gen * gen - F(1, 3), F(5, 2), 1 / (gen + 7)) + q_column[1:]:
            assert tridiagonal._f_d_at(system, x) == horner(coeffs, x)
        assert all(tridiagonal._f_d_at(system, x) == 0 for x in q_column[1:])


def test_certified_spectrum_builds_no_polynomial(monkeypatch):
    def forbidden(system):
        raise AssertionError("a certified spectrum must not build F_0..F_D")

    monkeypatch.setattr(tridiagonal, "f_polynomials", forbidden)
    r2 = SQRT2_FIELD.generator()
    rep = certify_spectrum(HEAWOOD, (r2, -r2, F(-3)))
    assert rep.eigenvalues == (F(3), r2, -r2, F(-3)) and rep.f_polys == ()
    assert interlacing_check(rep).passed  # vacuously: no F_1 .. F_{D-1}
    for system, q_column in scheme_orderings(cycle(7), heawood()):
        rep = certify_spectrum(system, q_column[1:])
        assert rep.eigenvalues[1:] == q_column[1:] and rep.f_polys == ()
    with pytest.raises(AssertionError, match="annihilate"):
        certify_spectrum(HEAWOOD, (r2, -r2, F(-2)))


def test_f_polynomials_rejects_field_systems():
    field_systems = [system for system, _ in scheme_orderings(heawood()) if not system.is_rational()]
    assert field_systems
    for system in field_systems:
        with pytest.raises(ValueError, match="need candidate eigenvalues"):
            f_polynomials(system)
        with pytest.raises(ValueError, match="need candidate eigenvalues"):
            spectrum(system)
    assert all(isinstance(f, RationalPoly) for f in f_polynomials(HEAWOOD))


def test_full_charpoly_factorization():
    # charpoly of the full (D+1)x(D+1) matrix equals (x - kappa) * F_D
    for system in (C5, HEAWOOD, CUBE):
        d = system.d
        kappa = system.kappa
        full = [[F(0)] * (d + 1) for _ in range(d + 1)]
        for i in range(d + 1):
            full[i][i] = system.alpha[i]
            if i < d:
                full[i][i + 1] = system.beta[i]
            if i >= 1:
                full[i][i - 1] = system.gamma[i - 1]
        cp = charpoly_by_cofactor(full)
        fd = f_polynomials(system)[d]
        assert cp == RationalPoly((-kappa, 1)) * fd


def test_interlacing_examples():
    rep = spectrum(C5)
    assert interlacing_check(rep).passed
    # alpha_{2,2} < -1 < alpha_{2,1}
    a22, a21 = isolate_real_roots(rep.f_polys[2])
    assert compare_rational(a22, F(-1)) < 0 < compare_rational(a21, F(-1))
    assert interlacing_check(spectrum(HEAWOOD)).passed


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_spectrum_isolates_only_f_d(monkeypatch, d):
    # the spectrum is F_D's roots; interlacing reads F_1 .. F_D through Cauchy indices and isolates nothing
    system = random_system(random.Random(d), d)
    real = algebraics.isolate_real_roots
    degrees = []

    def counted(poly, *count):
        degrees.append(poly.degree)
        return real(poly, *count)

    monkeypatch.setattr(tridiagonal, "isolate_real_roots", counted)
    monkeypatch.setattr(algebraics, "isolate_real_roots", counted)
    rep = spectrum(system)
    assert degrees == [d]
    degrees.clear()
    assert interlacing_check(rep).passed
    assert degrees == []


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_recurrence_isolation_matches_the_sturm_chain(d, seed):
    # F_0 .. F_D is a Sturm sequence of F_D: it drives the subdivision to the chain's intervals
    system = random_system(random.Random(seed), d)
    via_chain = isolate_real_roots(f_polynomials(system)[-1])
    via_recurrence = list(reversed(spectrum(system).eigenvalues[1:]))
    assert [(r.poly, r.lo, r.hi) for r in via_recurrence] == [(r.poly, r.lo, r.hi) for r in via_chain]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_spectrum_builds_no_sturm_chain_and_no_round_cap(monkeypatch, d):
    calls = []
    for name in ("squarefree_part", "sturm_chain", "_round_cap"):
        real = getattr(algebraics, name)
        monkeypatch.setattr(algebraics, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    for seed in range(20):
        spectrum(random_system(random.Random(seed), d))
    assert calls == []


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("member", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_a_recurrence_coefficient_off_by_one_is_caught(monkeypatch, d, member, delta):
    # F_D and the sign counter read the same coefficients: a wrong one gives a
    # wrong F_D, which the cofactor oracle or an isolation alarm must catch
    system = random_system(random.Random(d), d)
    real = tridiagonal._integer_recurrence
    first = 0 if member == 1 else 1  # e_1 is no coefficient: F_{-1} does not exist
    for i in range(first, d):

        def off(system, _i=i):
            rec = list(real(system))
            rec[member] = list(rec[member])
            rec[member][_i] += delta
            return tuple(rec)

        monkeypatch.setattr(tridiagonal, "_integer_recurrence", off)
        problems = check_system(system)
        assert any(
            p == "recurrence disagrees with the cofactor characteristic polynomial"
            or p.startswith("internal invariant failed: ")
            for p in problems
        ), (i, problems)


@pytest.mark.parametrize("system", [C5, H42], ids=["C5", "H42"])
def test_interlacing_fails_when_the_last_row_does_not_interlace(system):
    rep = spectrum(system)
    shifted = tuple(r.add_rational(100) for r in rep.eigenvalues[1:])
    assert not interlacing_check(replace(rep, eigenvalues=rep.eigenvalues[:1] + shifted)).passed


def isolate_and_compare(report) -> bool:
    """The former verdict, kept as an oracle: isolate the roots of F_1 .. F_{D-1}, compare neighbours."""
    rows = []  # rows[i-1]: the roots of F_i, descending
    for i, f in enumerate(report.f_polys[1:-1], start=1):
        roots = isolate_real_roots(f)
        if len(roots) != i:
            return False
        rows.append(tuple(reversed(roots)))
    rows.append(report.eigenvalues[1:])
    return all(
        compare(upper[j], lower[j - 1]) < 0 and compare(lower[j - 1], upper[j - 1]) < 0
        for lower, upper in zip(rows, rows[1:])
        for j in range(1, len(upper))
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.tuples(st.integers(1, 5), st.integers(-40, 40), st.integers(1, 4))),
)
def test_interlacing_verdict_matches_isolate_and_compare(d, seed, perturbation):
    rep = spectrum(random_system(random.Random(seed), d))
    if perturbation is not None:
        # F_i + c for one 1 <= i <= D - 1: the same degree, often no longer interlacing
        i, num, den = perturbation
        i = 1 + (i - 1) % (d - 1)
        fs = list(rep.f_polys)
        fs[i] = fs[i] + RationalPoly((F(num, den),))
        rep = replace(rep, f_polys=tuple(fs))
    assert interlacing_check(rep).passed is isolate_and_compare(rep)


def _with_f(rep, i, poly):
    fs = list(rep.f_polys)
    fs[i] = poly
    return replace(rep, f_polys=tuple(fs))


@pytest.mark.parametrize(
    "system, i, poly",
    [
        # F_2 of H(4,2) made x^2 + 1: a complex pair instead of two real roots
        (H42, 2, RationalPoly((1, 0, 1))),
        # F_1 = x + 1 and a quadratic sharing its root -1
        (H42, 2, from_roots([-1, 3])),
        # Heawood: F_2 sharing F_3's rational root -3, then its irrational roots +-sqrt 2
        (HEAWOOD, 2, from_roots([-3, 1])),
        (HEAWOOD, 2, RationalPoly((-2, 0, 1))),
        # real roots that do not interlace: both above F_1's root, or one below every root of F_3
        (H42, 2, from_roots([0, 1])),
        (HEAWOOD, 2, from_roots([-4, 0])),
    ],
    ids=["complex-pair", "shared-root-with-f1", "shared-rational-root", "shared-irrational-roots", "outside", "below"],
)
def test_interlacing_negative_cases(system, i, poly):
    rep = _with_f(spectrum(system), i, poly)
    assert not interlacing_check(rep).passed
    assert not isolate_and_compare(rep)


def test_interlacing_reads_the_eigenvalues_not_their_intervals():
    # C5: (-1 +- sqrt 5) / 2 on overlapping intervals, still strictly descending
    rep = spectrum(C5)
    f2 = rep.f_polys[2]
    loose = replace(rep, eigenvalues=(rep.eigenvalues[0], AlgebraicReal(f2, F(-3, 2), 1), AlgebraicReal(f2, -2, F(1, 2))))
    assert interlacing_check(loose).passed and isolate_and_compare(loose)
    # icosahedron: -sqrt 5 on [-3, -1], whose upper end is the eigenvalue -1, a root of F_3
    rep = spectrum(ICOSA)
    assert rep.eigenvalues[2].as_rational() == -1
    minus_sqrt5 = AlgebraicReal(RationalPoly((-5, 0, 1)), -3, -1)
    root_end = replace(rep, eigenvalues=rep.eigenvalues[:3] + (minus_sqrt5,))
    assert interlacing_check(root_end).passed and isolate_and_compare(root_end)


@pytest.mark.parametrize("system", [C5, HEAWOOD, H42], ids=["C5", "Heawood", "H42"])
def test_interlacing_fails_on_reversed_eigenvalues(system):
    rep = spectrum(system)
    assert interlacing_check(rep).passed
    reversed_rep = replace(rep, eigenvalues=rep.eigenvalues[:1] + tuple(reversed(rep.eigenvalues[1:])))
    assert not interlacing_check(reversed_rep).passed
    assert not isolate_and_compare(reversed_rep)


def test_lemma_examples():
    r = endpoint_product_bound(F(0), F(0), F(1), F(1), F(1, 2))
    assert r.holds and r.equality
    assert r.f_t.as_fraction() == F(-1, 4)
    r = endpoint_product_bound(F(-2), F(-1), F(1), F(2), F(0))
    assert r.holds and not r.equality
    assert r.f_t.as_fraction() == F(-4) and r.g_t.as_fraction() == F(-1)
    r = endpoint_product_bound(F(-2), F(-1), F(1), F(2), F(-1))
    assert r.holds and not r.equality
    assert r.f_t.as_fraction() == F(-3) and r.g_t.as_fraction() == F(0)
    # irrational endpoints: a = -sqrt3, b = -sqrt2, c = sqrt2, d = 2, t = 1
    s2, s3 = (isolate_real_roots(RationalPoly((-n, 0, 1)))[-1] for n in (2, 3))
    r = endpoint_product_bound(s3.mul_rational(-1), s2.mul_rational(-1), s2, F(2), F(1))
    assert r.holds and not r.equality
    # f_t = (1 + sqrt3)(1 - 2) = -1 - sqrt3, g_t = (1 + sqrt2)(1 - sqrt2) = -1
    assert compare(r.f_t.to_algebraic(), s3.add_rational(1).mul_rational(-1)) == 0
    assert r.g_t.as_fraction() == F(-1)


def test_lemma_preconditions():
    with pytest.raises(ValueError):
        endpoint_product_bound(F(0), F(1), F(1), F(2), F(1))  # b < c violated
    with pytest.raises(ValueError):
        endpoint_product_bound(F(0), F(0), F(1), F(1), F(2))  # t outside [b, c]


def test_pair_bound_examples():
    res = pair_bound(C5, spectrum(C5))
    assert res.lhs == F(-1) and res.rhs == F(-1) and res.equality
    res = pair_bound(HEAWOOD, spectrum(HEAWOOD))
    assert res.rhs == F(-2) and res.holds and not res.equality
    # lhs = -2 - 2 sqrt2
    s2 = isolate_real_roots(RationalPoly((-2, 0, 1)))[-1]
    assert compare(res.lhs, s2.mul_rational(-2).add_rational(-2)) == 0
    res = pair_bound(PETERSEN_Q, spectrum(PETERSEN_Q))
    assert res.lhs == F(-2) and res.rhs == F(-2) and res.equality


def test_triple_bound_examples():
    res = triple_bound(HEAWOOD, spectrum(HEAWOOD))
    assert res.hypothesis_sign == 1
    (branch,) = res.branches
    assert branch.branch == "lower"
    assert branch.check.lhs == F(2) and branch.check.rhs == F(2) and branch.check.equality

    res = triple_bound(CUBE, spectrum(CUBE))
    assert res.hypothesis_sign == 0
    assert {b.branch for b in res.branches} == {"lower", "upper"}
    assert all(b.check.lhs == F(0) and b.check.rhs == F(0) and b.check.equality for b in res.branches)

    res = triple_bound(H42, spectrum(H42))
    assert res.hypothesis_sign == 0
    assert all(b.check.holds and not b.check.equality for b in res.branches)
    vals = {b.branch: b.check.lhs for b in res.branches}
    assert vals["lower"] == F(9) and vals["upper"] == F(-9)


def test_shifted_subset_product_paths():
    rep = spectrum(H42)
    fd = rep.f_polys[-1]
    roots = rep.eigenvalues[1:]  # 2, 0, -2, -4
    full = shifted_subset_product(fd, roots, range(len(roots)), 1)
    assert full == F(9)
    sub = shifted_subset_product(fd, roots, [0, 3], 1)
    assert sub == F(-9)
    # a factor equal to the negated shift makes the product exactly zero
    cube_rep = spectrum(CUBE)  # 1, -1, -3
    assert shifted_subset_product(cube_rep.f_polys[-1], cube_rep.eigenvalues[1:], [1, 2], 1) == F(0)


def test_root_table_first_entry_is_minus_one():
    for system in (C5, HEAWOOD, H42):
        rep = spectrum(system)
        assert isolate_real_roots(rep.f_polys[1])[0].as_rational() == F(-1)


def test_json_roundtrip():
    js = HEAWOOD.to_json_dict()
    assert js == {
        "kappa": "3",
        "alpha": ["0", "0", "0", "0"],
        "beta": ["3", "2", "2"],
        "gamma": ["1", "1", "3"],
    }
    fractions = {key: [F(v) for v in vals] for key, vals in js.items() if key != "kappa"}
    back = TridiagonalSystem.from_entries(fractions["alpha"], fractions["beta"], fractions["gamma"], F(js["kappa"]))
    assert back == HEAWOOD


def test_equality_cases_randomized_small():
    # check_system covers both bounds with their equality cases (D = 2 and
    # D = 3 exactly), interlacing, and the cofactor oracle
    rng = random.Random(2024)
    for _ in range(30):
        d = rng.randint(2, 6)
        system = random_system(rng, d)
        assert check_system(system) == []


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_random_systems_always_validate(seed, d):
    rng = random.Random(seed)
    system = random_system(rng, d)  # construction raises unless the system is valid
    assert system.d == d
    assert system.beta[0] == system.kappa and system.gamma[0] == 1


def test_refinement_budget_never_changes_verdicts(monkeypatch):
    # a tiny budget forces the exact algebraic fallback; every verdict must
    # agree with the default-budget run
    rng = random.Random(99)
    cases = []
    for _ in range(6):
        d = rng.randint(4, 6)
        system = random_system(rng, d)
        rep = spectrum(system)
        cases.append((system, rep))
    baseline = []
    for system, rep in cases:
        p = pair_bound(system, rep)
        t = triple_bound(system, rep)
        baseline.append((p.holds, p.equality, t.holds, t.equality))
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 4)
    for (system, rep), expect in zip(cases, baseline):
        p = pair_bound(system, rep)
        t = triple_bound(system, rep)
        assert (p.holds, p.equality, t.holds, t.equality) == expect


def test_exact_fallback_detects_product_equality(monkeypatch):
    # two irrational factors on each side and an exactly rational product:
    # intervals can never separate, so the resolvent phase must certify 0
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 4)
    poly = RationalPoly((-2, 0, 1)) * RationalPoly((-8, 0, 1))
    roots = isolate_real_roots(poly)[::-1]  # 2sqrt2, sqrt2, -sqrt2, -2sqrt2
    top, bottom = (shifted_subset_product(poly, roots, subset, 0) for subset in ([0, 1], [2, 3]))
    assert isinstance(top, ProductValue) and len(top.factors) == 2
    assert compare_shifted_product(top, F(4)) == 0
    assert compare_shifted_product(top, F(5)) == -1
    # a rhs too close for the enclosure: the one resolvent root it meets decides
    assert compare_shifted_product(top, 4 + F(1, 10**20)) == -1
    assert compare_shifted_product(bottom, F(3)) == 1


def test_exact_fallback_builds_the_resolvent_at_the_values_own_shift(monkeypatch, within):
    # (x^2 - 2x - 1)(x^2 - 2x - 7) has the roots 1 +- sqrt2 and 1 +- 2sqrt2: shifted by -1,
    # the top two multiply to exactly 4, which only the resolvent of the shifted poly has as a root
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 4)
    poly = RationalPoly((-1, -2, 1)) * RationalPoly((-7, -2, 1))
    value = shifted_subset_product(poly, isolate_real_roots(poly)[::-1], [0, 1], -1)
    assert isinstance(value, ProductValue) and (value.poly, value.shift) == (poly, -1)
    assert within(10, compare_shifted_product, value, F(4)) == 0
    assert within(10, compare_shifted_product, value, 4 + F(1, 10**20)) == -1


def test_exact_phase_still_decides_a_distant_rhs_by_the_enclosure(monkeypatch):
    # with no budget the exact phase starts at once, and the enclosure alone
    # still decides a rhs far from the product 4
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 0)
    poly = RationalPoly((-2, 0, 1)) * RationalPoly((-8, 0, 1))
    value = shifted_subset_product(poly, isolate_real_roots(poly)[::-1], [0, 1], 0)  # 2sqrt2 * sqrt2 = 4
    assert isinstance(value, ProductValue)
    assert compare_shifted_product(value, F(100)) == -1
    assert compare_shifted_product(value, F(-100)) == 1


def test_rootless_resolvent_at_a_tie_is_an_alarm_not_a_hang(monkeypatch, within):
    # the exact phase is capped by the Mahler root separation of the resolvent
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 0)
    monkeypatch.setattr(tridiagonal, "_subset_product_resolvent", lambda *a: RationalPoly((-(10**6), 0, 1)))
    poly = RationalPoly((-2, 0, 1)) * RationalPoly((-8, 0, 1))
    value = shifted_subset_product(poly, isolate_real_roots(poly)[::-1], [0, 1], 0)  # 2sqrt2 * sqrt2 = 4
    with pytest.raises(AssertionError, match="not a root of its subset-product resolvent"):
        within(10, compare_shifted_product, value, F(4))


def test_pair_bound_product_factors_are_descending():
    # a D = 6 pair bound with two irrational roots on each side stays a
    # ProductValue; its factors are theta_1 + 1 then theta_6 + 1
    rng = random.Random(31)
    system = random_system(rng, 6)
    rep = spectrum(system)
    value = pair_bound(system, rep).lhs
    assert isinstance(value, ProductValue)
    top, bottom = value.factors
    assert compare(top, rep.eigenvalues[1].add_rational(1)) == 0
    assert compare(bottom, rep.eigenvalues[6].add_rational(1)) == 0
    assert compare(top, bottom) > 0


def test_direct_resultant_product_matches_subset_comparison():
    # (theta_1 + 1)(theta_D + 1) enclosed from sympy's own isolation of F_D;
    # D = 6 has no pair-bound equality, so the enclosure excludes the rhs
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for _ in range(3):
        system = random_system(rng, 6)
        rep = spectrum(system)
        fd = rep.f_polys[-1]
        rhs = -system.beta[1]
        sym_fd = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(fd.coeffs)], x)
        isolating = [iv for iv, _ in sym_fd.intervals(eps=sympy.Rational(1, 10**12))]  # ascending
        (lo_d, hi_d), (lo_1, hi_1) = isolating[0], isolating[-1]
        corners = [(a + 1) * (b + 1) for a in (lo_1, hi_1) for b in (lo_d, hi_d)]
        lo, hi = min(corners), max(corners)
        sym_rhs = sympy.Rational(rhs.numerator, rhs.denominator)
        assert sym_rhs < lo or hi < sym_rhs
        value = shifted_subset_product(fd, rep.eigenvalues[1:], [0, system.d - 1], 1)
        assert isinstance(value, ProductValue)
        assert compare_shifted_product(value, rhs) == (1 if sym_rhs < lo else -1)


# -- the cofactor oracle on its own -----------------------------------------------------

oracle_entries = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def dense_rational_matrices(draw):
    """Square rational matrices of order 1 to 6, any shape of zeros."""
    n = draw(st.integers(1, 6))
    return [draw(st.lists(oracle_entries, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(dense_rational_matrices())
def test_cofactor_oracle_matches_sympy(m):
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]).charpoly()
    coeffs = [F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert charpoly_by_cofactor(m) == RationalPoly(coeffs)


def test_cofactor_oracle_keeps_the_coefficients_of_a_field_matrix():
    # a matrix over Q(gamma), gamma the largest root of x^3 + 4x^2 + 3x - 1, with
    # rational and irrational entries: the coefficient list it gave when it
    # expanded rational input in Fractions too
    field, g = RealAlgebraicField.from_root(isolate_real_roots(RationalPoly((-1, 3, 4, 1)))[-1])
    e = field.element
    m = [
        [g, e((F(1, 2), -1)), e(()), e((3, 0, F(-2, 7)))],
        [e((-1,)), g * g, e((0, F(5, 3))), e((1,))],
        [e((2, 1, 1)), e(()), e((F(-4, 5),)), g],
        [e((0, 0, 1)), e((7,)), e((1, -1)), e((F(1, 6), 2))],
    ]
    got = charpoly_by_cofactor(m)
    assert [c.coeffs for c in got] == [
        (F(6577, 180), F(-11789, 84), F(-10657, 180)),
        (F(1373, 84), F(-961, 70), F(-3401, 105)),
        (F(-1003, 210), F(-1999, 210), F(-1873, 210)),
        (F(19, 30), F(-3), F(-1)),
        (F(1),),
    ]
    assert all(c.field is field for c in got)


def test_cofactor_oracle_names_nothing_it_checks():
    # the oracle, with its nested functions and its two list helpers, never
    # reaches for the recurrence, its integer scaling or linalg
    forbidden = {
        "_integer_recurrence", "_f_polynomials", "f_polynomials", "_scaled_int_poly",
        "_sign_counter", "charpoly", "linalg",
    }

    def names(code) -> set:
        out = set(code.co_names) | set(code.co_varnames) | set(code.co_freevars)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names(const)
        return out

    for func in (charpoly_by_cofactor, tridiagonal._cofactor_mul, tridiagonal._cofactor_add):
        assert not names(func.__code__) & forbidden, func.__name__
    assert "expand" in names(charpoly_by_cofactor.__code__)  # nested code objects are read


# -- products of shifted roots, each on its own polynomial ---------------------------


def test_shifted_product_factors_keep_their_own_polynomials():
    # roots of x^2 - 2 and x^2 - 7 isolated separately, with their product as poly
    first, second = RationalPoly((-2, 0, 1)), RationalPoly((-7, 0, 1))
    roots = isolate_real_roots(first) + isolate_real_roots(second)
    order = sorted(range(4), key=lambda i: roots[i].lo, reverse=True)
    roots = [roots[i] for i in order]  # sqrt7, sqrt2, -sqrt2, -sqrt7
    assert [r.poly for r in roots] == [second, first, first, second]
    for s in (1, F(-2, 3)):
        value = shifted_subset_product(first * second, roots, [0, 2], s)
        assert isinstance(value, ProductValue)
        assert [f.poly for f in value.factors] == [roots[0].poly.shift(-s), roots[2].poly.shift(-s)]
        assert (value.poly, value.shift) == (first * second, s)
        # compare_shifted_product starts from [lo, hi], which must enclose exactly these factors
        assert (value.lo, value.hi) == product_enclosure(value.factors)
        old_route = ProductValue([roots[i].add_rational(s) for i in (0, 2)], first * second, F(s))
        assert value_json(value) == value_json(old_route)


def test_shifted_product_shifts_each_root_polynomial_once(monkeypatch):
    # a D = 6 triple-bound product: three irrational roots on each side, all of F_6
    system = random_system(random.Random(31), 6)
    rep = spectrum(system)
    fd, roots = rep.f_polys[-1], rep.eigenvalues[1:]
    assert all(r.as_rational() is None and r.poly is roots[0].poly for r in roots)
    shifts = []
    real = RationalPoly.shift
    monkeypatch.setattr(RationalPoly, "shift", lambda p, r: shifts.append(p) or real(p, r))
    value = shifted_subset_product(fd, roots, [0, 4, 5], 1)
    assert isinstance(value, ProductValue) and len(value.factors) == 3
    assert shifts == [roots[0].poly]
