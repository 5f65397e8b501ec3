import json
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qpolykit import numberfield
from qpolykit.algebraics import AlgebraicReal, apply_rational_poly, compare, isolate_real_roots
from qpolykit.cli import main
from qpolykit.numberfield import (
    RealAlgebraicField,
    _minimal_factor,
    _tensor_min_poly,
    adjoin_root,
    exact_sign,
    field_containing,
    scalar_as_fraction,
)
from qpolykit.polynomials import RationalPoly, irreducible_factors


def root(coeffs, index=-1):
    return isolate_real_roots(RationalPoly(coeffs))[index]


def test_quadratic_field_basics():
    field, gen = RealAlgebraicField.from_root(root((-2, 0, 1)))
    assert field.degree == 2
    assert gen * gen == 2
    assert gen.inverse() * gen == 1
    assert (gen - 1).sign() == 1 and (gen - 2).sign() == -1
    assert gen.to_algebraic().poly.sign_at(0) == -1


def test_zero_test_with_reducible_modulus():
    # modulus (x^2-2)(x^2-9): the selected root is sqrt2
    modulus = RationalPoly((-2, 0, 1)) * RationalPoly((-9, 0, 1))
    field, gen = RealAlgebraicField.from_root(AlgebraicReal(modulus, F(1), F(3, 2)))
    e = gen * gen - 2  # zero at sqrt2, nonzero at the +-3 components
    assert e.is_zero()
    assert field.degree <= 2  # discovering the zero split the modulus


def test_inverse_splits_reducible_modulus():
    modulus = RationalPoly((-2, 0, 1)) * RationalPoly((-9, 0, 1))
    field, gen = RealAlgebraicField.from_root(AlgebraicReal(modulus, F(1), F(3, 2)))
    inv = (gen - 3).inverse()  # gen - 3 is a zero divisor mod the full modulus
    assert inv * (gen - 3) == 1


def test_adjoin_sqrt3_to_sqrt2():
    field, gen = RealAlgebraicField.from_root(root((-2, 0, 1)))
    field2, img2, img3 = adjoin_root(field, root((-3, 0, 1)))
    assert img2 * img2 == 2
    assert img3 * img3 == 3
    prod = img2 * img3
    assert prod * prod == 6
    x = sympy.symbols("x")
    mp = sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3), x)
    assert field2.degree % sympy.Poly(mp, x).degree() == 0


def test_field_containing_conjugates():
    mu = RationalPoly((18, 0, -11, 0, 1))  # (x^2-2)(x^2-9)
    roots = isolate_real_roots(mu)
    field, elems = field_containing(roots)
    assert field.degree <= 4
    assert (elems[1] + elems[2]).as_fraction() == 0  # -sqrt2 + sqrt2
    assert (elems[1] * elems[2]).as_fraction() == -2
    assert elems[0].as_fraction() == -3 and elems[3].as_fraction() == 3


def test_field_containing_cyclic_cubic():
    # the cubic with roots 2cos(2 pi j/7): lambda_2 = lambda_1^2 - 2
    mu = RationalPoly((-1, -2, 1, 1))
    roots = isolate_real_roots(mu)
    assert len(roots) == 3
    field, elems = field_containing(roots)
    for el in elems:
        acc = field.constant(-1) + el * (-2) + el * el + el * el * el
        assert acc.is_zero()
    assert (elems[2] * elems[2] - 2 - elems[1]).is_zero() or (
        (elems[2] * elems[2] - 2 - elems[0]).is_zero()
    )


def test_scalar_helpers():
    field, gen = RealAlgebraicField.from_root(root((-2, 0, 1)))
    assert exact_sign(F(-3)) == -1
    assert exact_sign(gen) == 1
    assert gen - gen == 0
    assert scalar_as_fraction(field.constant(F(5, 3))) == F(5, 3)
    assert scalar_as_fraction(gen) is None


def test_scalar_helpers_on_algebraic_reals():
    s2 = root((-2, 0, 1))
    assert exact_sign(s2) == 1 and exact_sign(s2.mul_rational(-1)) == -1
    assert exact_sign(AlgebraicReal.from_rational(0)) == 0
    assert scalar_as_fraction(s2) is None
    third = AlgebraicReal(RationalPoly((-1, 3)) * RationalPoly((-2, 0, 1)), F(1, 3), 1)  # a root at an end: the point
    assert scalar_as_fraction(third) == F(1, 3)
    assert scalar_as_fraction(AlgebraicReal(RationalPoly((-1, 3)), 0, 1, True)) == F(1, 3)


def test_division_errors():
    field, gen = RealAlgebraicField.from_root(root((-2, 0, 1)))
    with pytest.raises(ZeroDivisionError):
        (gen - gen).inverse()


# the minimal polynomials of 2cos(2 pi/7) and 2cos(2 pi/11), which generate the
# cubic field of cycle:n=7 and the degree-5 field of cycle:n=11
CYCLE7_CUBIC = (-1, -2, 1, 1)
CYCLE11_QUINTIC = (1, 3, -3, -4, 1, 1)


def assert_canonical(elems):
    """Every element is a canonical residue, and == is equality of residues."""
    for el in elems:
        assert len(el.coeffs) - 1 < el.field.degree  # a residue's degree is below the modulus'
        assert not el.coeffs or el.coeffs[-1] != 0
    for a in elems:
        for b in elems:
            assert (a == b) == (a.coeffs == b.coeffs)


def test_field_ops_agree_with_resultant_arithmetic():
    # dual route: field arithmetic in Q(sqrt n) against sympy's exact a + b sqrt n
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def coordinates(expr, n) -> list:
        """[a, b] with expr = a + b sqrt n, read off sympy's exact form."""
        expr = sympy.expand(sympy.radsimp(expr))
        b = expr.coeff(sympy.sqrt(n))
        a = sympy.expand(expr - b * sympy.sqrt(n))
        assert a.is_Rational and b.is_Rational
        return [F(int(c.p), int(c.q)) for c in (a, b)]

    @settings(max_examples=15)
    @given(
        st.integers(min_value=2, max_value=7).filter(lambda n: n not in (4,)),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def check(n, a0, a1, b0, b1):
        field, gen = RealAlgebraicField.from_root(root((-n, 0, 1)))
        e1 = field.element([F(a0), F(a1)])
        e2 = field.element([F(b0), F(b1)])
        v1 = a0 + a1 * sympy.sqrt(n)
        v2 = b0 + b1 * sympy.sqrt(n)
        results = [(e1 + e2, v1 + v2), (e1 - e2, v1 - v2), (e1 * e2, v1 * v2)]
        if not e2.is_zero():
            results.append((e1 / e2, v1 / v2))
        for el, expr in results:
            assert el == field.element(coordinates(expr, n))
        assert_canonical([e1, e2] + [el for el, _ in results])
        assert (e1 - e1).is_zero()
        assert e1.sign() == sympy.sign(v1)

    check()

    # the same in the cubic and quintic cycle fields, against sympy modulo the modulus
    y = sympy.Symbol("y")

    def lift(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * y**k for k, c in enumerate(coeffs))

    def coords(expr) -> list:
        return [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, y).all_coeffs())]

    fields = [RealAlgebraicField.from_root(root(m))[0] for m in (CYCLE7_CUBIC, CYCLE11_QUINTIC)]
    small = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=8)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(fields), small, small)
    def check_cycle_field(field, c1, c2):
        mod = lift(field.modulus.coeffs)
        e1, e2 = field.element(c1), field.element(c2)
        v1, v2 = lift(c1), lift(c2)
        results = [(e1 + e2, v1 + v2), (e1 - e2, v1 - v2), (e1 * e2, v1 * v2)]
        if not e2.is_zero():
            results.append((e1 / e2, v1 * sympy.invert(v2, mod, y)))
        for el, expr in results:
            assert el.coeffs == field.element(coords(sympy.rem(sympy.expand(expr), mod, y))).coeffs
        assert_canonical([e1, e2] + [el for el, _ in results])

    check_cycle_field()


def test_zero_tests_and_equality_never_refine_the_generator(monkeypatch):
    field, gen = RealAlgebraicField.from_root(root(CYCLE11_QUINTIC))
    a, b = gen * gen - 2, gen + 1
    calls = [0]
    real_refine = AlgebraicReal.refine

    def counted(self):
        calls[0] += 1
        return real_refine(self)

    monkeypatch.setattr(AlgebraicReal, "refine", counted)
    assert a != 0 and not a.is_zero() and b != 0
    assert a - a == 0 and (a - a).is_zero()
    assert a != b and not (a == b) and a == a * 1 and a != 2
    assert a.as_fraction() is None and not (a == 2)
    assert calls == [0]
    # a sign does refine gamma: 2cos(2 pi/11) is not decided against 1.68 by its isolating box
    assert (gen - F(168, 100)).sign() == 1 and calls[0] > 0


def sympy_count(p: RationalPoly, lo: F, hi: F) -> int:
    x = sympy.symbols("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    return sp.count_roots(sympy.Rational(lo), sympy.Rational(hi))


def reference_join(field, beta, t_last):
    """adjoin_root's isolation, counted by sympy on the whole tensor polynomial.

    The old generator's interval carries over from one t to the next and
    beta's restarts, as in adjoin_root; returns (modulus, lo, hi) for t_last.
    """
    pb = _minimal_factor(beta)
    gen = field.generator_value()
    for t in range(1, t_last + 1):
        mpoly = _tensor_min_poly(field.modulus, pb, t)
        cur_b = beta
        while True:
            lo, hi = gen.lo + t * cur_b.lo, gen.hi + t * cur_b.hi
            if lo < hi and mpoly.sign_at(lo) != 0 and mpoly.sign_at(hi) != 0:
                if sympy_count(mpoly, lo, hi) == 1:
                    break
            gen, cur_b = gen.refine(), cur_b.refine()
    (modulus,) = [f for f in irreducible_factors(mpoly) if f.sign_at(lo) != f.sign_at(hi)]
    return modulus, lo, hi


@pytest.mark.parametrize("old, new", [((-2, 0, 1), (-3, 0, 1)), (CYCLE7_CUBIC, CYCLE7_CUBIC), (CYCLE11_QUINTIC, (-2, 0, 1))])
def test_adjoin_root_isolates_as_the_whole_tensor_polynomial_does(old, new):
    field, _ = RealAlgebraicField.from_root(root(old))
    beta = root(new, 0)
    joined, gen_img, beta_img = adjoin_root(field, beta)
    t = ((joined.generator() - gen_img) / beta_img).as_fraction()
    assert t is not None and t.denominator == 1
    gen = joined.generator_value()
    assert (joined.modulus, gen.lo, gen.hi) == reference_join(field, beta, int(t))


def test_mixed_fraction_arithmetic():
    field, gen = RealAlgebraicField.from_root(root((-2, 0, 1)))
    v = (1 - gen) * (1 + gen)
    assert v.as_fraction() == -1
    assert (F(1, 2) * gen * gen).as_fraction() == 1
    assert (gen / gen).as_fraction() == 1


@pytest.mark.parametrize("n", range(5, 13))
def test_cycle_schemes_have_phi_half_q_orderings(n, capsys):
    # the Q-orderings of the n-gon's distance scheme are E_0, E_j, E_2j, ...
    # for the phi(n)/2 classes of units j mod n up to sign
    assert main(["check-scheme", "--from-graph", f"cycle:n={n}", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["q_polynomial"] is True
    assert len(report["orderings"]) == sympy.totient(n) // 2


def test_cycle7_fields_never_exceed_the_cubic(monkeypatch, capsys):
    degrees = set()
    real = RealAlgebraicField.reduce

    def counted(self, coeffs):
        degrees.add(self.degree)
        return real(self, coeffs)

    monkeypatch.setattr(RealAlgebraicField, "reduce", counted)
    assert main(["check-scheme", "--from-graph", "cycle:n=7"]) == 0
    capsys.readouterr()
    assert max(degrees) == 3


# Q(sqrt5), the pentagon's eigenvalue field, and the 7-cycle's cubic eigenvalue field
DOT_FIELDS = [RealAlgebraicField.from_root(root(m))[0] for m in ((-1, 1, 1), CYCLE7_CUBIC)]
SMALL_COEFFS = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=6)


@given(st.sampled_from(DOT_FIELDS), st.lists(st.tuples(SMALL_COEFFS, SMALL_COEFFS), max_size=5))
def test_dot_is_the_sum_of_the_products(field, pairs):
    xs = [field.element(a) for a, _ in pairs]
    ys = [field.element(b) for _, b in pairs]
    total = field.constant(0)
    for x, y in zip(xs, ys):
        total = total + x * y
    got = field.dot(xs, ys)
    assert got.coeffs == total.coeffs
    assert_canonical([got, total])


@given(
    st.sampled_from(DOT_FIELDS),
    SMALL_COEFFS,
    st.one_of(st.integers(min_value=-5, max_value=5), st.fractions(min_value=-3, max_value=3, max_denominator=6)),
)
def test_rational_scaling_is_the_product_by_the_constant(field, coeffs, r):
    x = field.element(coeffs)
    scaled = x * r
    assert scaled.coeffs == (x * field.constant(r)).coeffs
    assert (r * x).coeffs == scaled.coeffs
    assert (x * 0).coeffs == () and (x * F(0)).coeffs == ()
    assert_canonical([x, scaled])


def test_dot_takes_paired_elements_of_its_own_field():
    field, gen = DOT_FIELDS[0], DOT_FIELDS[0].generator()
    other = DOT_FIELDS[1].generator()
    assert field.dot([], []).coeffs == ()
    with pytest.raises(ValueError, match="different fields"):
        field.dot([gen], [other])
    with pytest.raises(ValueError):
        field.dot([gen, gen], [gen])


def test_field_sign_past_its_round_cap_is_an_alarm(within):
    # a field on a forged generator: x^2 - 2 has no root on [3, 4], bisection
    # closes in on 4, and the enclosure of gamma - 4 never leaves 0
    field = RealAlgebraicField(AlgebraicReal(RationalPoly((-2, 0, 1)), 3, 4, True))
    with pytest.raises(AssertionError, match="^field sign refined past its round cap$"):
        within(10, field.element((-4, 1)).sign)
    # a genuine field signs an element that needs many rounds
    _, g = RealAlgebraicField.from_root(isolate_real_roots(RationalPoly((-2, 0, 1)))[-1])
    assert exact_sign(g - F(141421356237309504880168872, 10**26)) == 1
    assert exact_sign(g - F(141421356237309504880168873, 10**26)) == -1


def test_each_field_value_is_converted_once_per_generator_interval(monkeypatch, capsys):
    field, gen = RealAlgebraicField.from_root(root(CYCLE7_CUBIC))
    v = gen * gen - 1
    first = v.to_algebraic()
    assert v.to_algebraic() is first and (gen * gen - 1).to_algebraic() is first
    # a sign decision refines gamma in place: the next conversion starts from the new interval,
    # as a fresh one would, and is the same number
    before = field.generator_value()
    (gen - (before.lo + before.hi) / 2).sign()
    g = field.generator_value()
    assert g.hi - g.lo < before.hi - before.lo
    again = v.to_algebraic()
    assert again is not first and compare(again, first) == 0
    fresh = apply_rational_poly(RationalPoly(v.coeffs), field.generator_value())
    assert (again.poly, again.lo, again.hi) == (fresh.poly, fresh.lo, fresh.hi)
    # a report converts each value once: Heawood repeats 23 values 76 times
    calls = []

    def counted(q, a):
        calls.append((q.coeffs, a.lo, a.hi))
        return apply_rational_poly(q, a)

    monkeypatch.setattr(numberfield, "apply_rational_poly", counted)
    assert main(["check-scheme", "--from-graph", "heawood", "--output", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 23
