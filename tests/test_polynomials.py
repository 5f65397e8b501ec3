from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpolykit.polynomials import (
    RationalPoly,
    cauchy_root_bound,
    count_real_roots,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
)

X = RationalPoly.x()
ONE = RationalPoly.one()


def test_difference_of_squares():
    p = (X + ONE) * (X - ONE)
    assert p == RationalPoly((-1, 0, 1))


def test_recurrence_step_for_pentagon_quotient():
    # (x - 0)(x + 1) - 1 with kappa=2, beta_1=1, gamma_2=1
    f1 = RationalPoly((1, 1))
    f2 = X * f1 - ONE
    assert f2 == RationalPoly((-1, 1, 1))


def test_zero_annihilator():
    p = RationalPoly((3, -2, 5))
    assert (p * RationalPoly.zero()).is_zero


def test_degree_and_leading_invariants():
    p = RationalPoly((1, 2, 0, 0))
    assert p.degree == 1 and p.leading == 2
    assert RationalPoly.zero().degree == -1


def test_sturm_chain_quadratic():
    chain = sturm_chain(RationalPoly((-2, 0, 1)))
    assert [q.coeffs for q in chain] == [(F(-2), F(0), F(1)), (F(0), F(2)), (F(2),)]
    assert count_real_roots(RationalPoly((-2, 0, 1)), F(-2), F(2)) == 2


def test_sturm_chain_linear():
    chain = sturm_chain(RationalPoly((1, 1)))
    assert [q.coeffs for q in chain] == [(F(1), F(1)), (F(1),)]


def test_no_real_roots():
    assert count_real_roots(RationalPoly((1, 0, 1))) == 0
    assert count_real_roots(RationalPoly((1, 0, 1)), F(-100), F(100)) == 0


def test_sturm_chain_of_zero_raises():
    with pytest.raises(ValueError):
        sturm_chain(RationalPoly.zero())


def test_sign_at():
    f2 = RationalPoly((-1, 1, 1))  # x^2 + x - 1
    assert f2.sign_at(-1) == -1
    assert RationalPoly((-2, 0, 1)).sign_at(0) == -1
    heawood_f3 = RationalPoly((-6, -2, 3, 1))
    assert heawood_f3.sign_at(-1) == -1
    assert heawood_f3.evaluate(-1) == -2


def test_divmod_exact():
    p = RationalPoly((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
    q, r = p.divmod(RationalPoly((-2, 1)))
    assert r.is_zero
    assert q * RationalPoly((-2, 1)) == p


def test_gcd_and_squarefree():
    p = RationalPoly((-1, 1)) * RationalPoly((-1, 1)) * RationalPoly((-2, 1))
    g = poly_gcd(p, p.derivative())
    assert g == RationalPoly((-1, 1))
    assert squarefree_part(p) == (RationalPoly((-1, 1)) * RationalPoly((-2, 1))).monic()
    decomp = squarefree_decomposition(p)
    assert decomp == [(RationalPoly((-2, 1)), 1), (RationalPoly((-1, 1)), 2)]


def test_shift_and_scale_arg():
    p = RationalPoly((-2, 0, 1))  # x^2 - 2
    assert p.shift(1) == RationalPoly((-1, 2, 1))  # (x+1)^2 - 2
    # roots of scale_arg(r) are r * roots
    q = p.scale_arg(2)
    assert q.sign_at(F(2 * 3, 2)) == q.sign_at(3)  # same polynomial applied consistently
    assert q.evaluate(2) == p.evaluate(1)


def test_cauchy_bound_contains_roots():
    p = RationalPoly((-6, 11, -6, 1))
    bound = cauchy_root_bound(p)
    assert count_real_roots(p, -bound - 1, bound + 1) == 3


@st.composite
def rational_roots(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return [
        F(draw(st.integers(min_value=-8, max_value=8)), draw(st.integers(min_value=1, max_value=4)))
        for _ in range(n)
    ]


@given(rational_roots())
def test_product_of_linear_factors_counts(roots):
    p = RationalPoly.from_roots(roots)
    distinct = len(set(roots))
    assert count_real_roots(p) == distinct


@given(rational_roots(), rational_roots())
def test_gcd_of_root_products(r1, r2):
    p, q = RationalPoly.from_roots(r1), RationalPoly.from_roots(r2)
    g = poly_gcd(p, q)
    common = set(r1) & set(r2)
    expected = RationalPoly.from_roots(sorted(common)).monic() if common else ONE
    # gcd of squarefree parts matches the common roots exactly
    gsf = poly_gcd(squarefree_part(p), squarefree_part(q))
    assert gsf == expected
    # and the plain gcd has the same distinct roots
    assert squarefree_part(g) == expected if not g.is_zero else False


@given(rational_roots())
def test_sympy_charpoly_agreement(roots):
    import sympy

    x = sympy.symbols("x")
    p = RationalPoly.from_roots(roots)
    expr = sympy.prod([x - sympy.Rational(r.numerator, r.denominator) for r in roots])
    ours = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    assert sympy.expand(ours.as_expr() - expr) == 0
