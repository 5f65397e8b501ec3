import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qpolykit import polynomials
from qpolykit.algebraics import isolate_real_roots, roots_in
from qpolykit.polynomials import (
    RationalPoly,
    cauchy_root_bound,
    irreducible_factors,
    poly_gcd,
    squarefree_decomposition,
    signed_remainder_sequence,
    squarefree_part,
    sturm_chain,
)

from helpers import from_roots

X = RationalPoly((0, 1))
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


def fraction_sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    """The canonical Sturm chain p, p', -rem(...), ... by Fraction Euclid: the reference."""
    chain = [p]
    if p.degree >= 1:
        chain.append(p.derivative())
        while chain[-1].degree >= 1:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r)
    return chain


def fraction_remainder_sequence(p: RationalPoly, q: RationalPoly) -> list[RationalPoly]:
    """The canonical signed remainder sequence p, q, -rem(p, q), ... by Fraction Euclid."""
    chain = [p]
    if not q.is_zero:
        chain.append(q)
        while chain[-1].degree >= 1:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r)
    return chain


def count_roots(p: RationalPoly, lo: F | None = None, hi: F | None = None) -> int:
    """Distinct real roots of p in [lo, hi] by isolation, the whole line by default.

    Checked against sympy's count before it is returned.
    """
    roots = isolate_real_roots(p)
    sp = _sympy_poly(squarefree_part(p))
    if lo is None:
        assert len(roots) == sp.count_roots()
        return len(roots)
    lo, hi = F(lo), F(hi)
    n = len(roots_in(roots, lo, hi))
    assert n == sp.count_roots(sympy.Rational(lo), sympy.Rational(hi))
    return n


def assert_positive_multiples(chain, reference):
    assert len(chain) == len(reference)
    for q, c in zip(chain, reference):
        assert q.degree == c.degree
        factor = q.leading / c.leading
        assert factor > 0 and q == c.scale(factor)


def test_sturm_chain_quadratic():
    # the chain is primitive: (x^2 - 2, x, 1), the canonical (x^2 - 2, 2x, 2) up to positive factors
    p = RationalPoly((-2, 0, 1))
    chain = sturm_chain(p)
    assert [q.degree for q in chain] == [2, 1, 0]
    assert [q.leading > 0 for q in chain] == [True, True, True]
    assert_positive_multiples(chain, fraction_sturm_chain(p))
    assert count_roots(p, F(-2), F(2)) == 2


def test_sturm_chain_across_a_degree_gap():
    # rem(x^4 + x + 1, 4x^3 + 1) has degree 1, so the next pseudo-remainder has
    # delta = 2 and a divisor with negative lead: lc^(delta + 1) < 0
    p = RationalPoly((1, 1, 0, 0, 1))
    chain = sturm_chain(p)
    assert [q.degree for q in chain] == [4, 3, 1, 0]
    assert [q.leading > 0 for q in chain] == [True, True, False, True]
    assert_positive_multiples(chain, fraction_sturm_chain(p))
    assert count_roots(p) == 0


def test_sturm_chain_linear():
    chain = sturm_chain(RationalPoly((1, 1)))
    assert [q.coeffs for q in chain] == [(F(1), F(1)), (F(1),)]


def test_no_real_roots():
    assert count_roots(RationalPoly((1, 0, 1))) == 0
    assert count_roots(RationalPoly((1, 0, 1)), F(-100), F(100)) == 0


def test_counts_include_roots_at_the_ends():
    p = RationalPoly((-1, 3)) * RationalPoly((-2, 0, 1))  # roots 1/3 and +-sqrt2
    assert count_roots(p, F(1, 3), F(1, 3)) == 1
    assert count_roots(p, F(1, 3), F(2)) == 2
    assert count_roots(p, F(-2), F(1, 3)) == 2
    assert count_roots(p, F(-1), F(1, 4)) == 0


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
    assert count_roots(p, -bound, bound) == 3


@st.composite
def rational_roots(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return [
        F(draw(st.integers(min_value=-8, max_value=8)), draw(st.integers(min_value=1, max_value=4)))
        for _ in range(n)
    ]


@given(rational_roots())
def test_product_of_linear_factors_counts(roots):
    p = from_roots(roots)
    distinct = len(set(roots))
    assert count_roots(p) == distinct


@given(rational_roots(), rational_roots())
def test_gcd_of_root_products(r1, r2):
    p, q = from_roots(r1), from_roots(r2)
    g = poly_gcd(p, q)
    common = set(r1) & set(r2)
    expected = from_roots(sorted(common)).monic() if common else ONE
    # gcd of squarefree parts matches the common roots exactly
    gsf = poly_gcd(squarefree_part(p), squarefree_part(q))
    assert gsf == expected
    # and the plain gcd has the same distinct roots
    assert squarefree_part(g) == expected if not g.is_zero else False


@given(rational_roots())
def test_sympy_charpoly_agreement(roots):
    import sympy

    x = sympy.symbols("x")
    p = from_roots(roots)
    expr = sympy.prod([x - sympy.Rational(r.numerator, r.denominator) for r in roots])
    ours = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    assert sympy.expand(ours.as_expr() - expr) == 0


# -- factoring over Z, against sympy.factor_list ----------------------------------


def _sympy_factors(p: RationalPoly) -> list[tuple[F, ...]]:
    """The distinct monic irreducible factors of p by sympy, as coefficient tuples."""
    import sympy

    x = sympy.symbols("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    out = []
    for factor, _ in sympy.factor_list(poly.as_expr(), x)[1]:
        cs = sympy.Poly(factor, x).monic().all_coeffs()[::-1]
        out.append(tuple(F(int(c.p), int(c.q)) for c in cs))
    return sorted(out, key=lambda cs: (len(cs), cs))


def _product(polys) -> RationalPoly:
    out = ONE
    for q in polys:
        out = out * q
    return out


small_int_polys = st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0)


@given(st.lists(small_int_polys, min_size=1, max_size=4), rational_roots())
def test_factors_of_products_agree_with_sympy(polys, roots):
    p = _product([RationalPoly(cs) for cs in polys]) * from_roots(roots)
    factors = irreducible_factors(p)
    assert [q.coeffs for q in factors] == _sympy_factors(p)
    assert _product(factors) == squarefree_part(p)


def _chebyshev_minus_two(n: int) -> RationalPoly:
    """C_n(x) - 2, where C_n(2 cos t) = 2 cos(nt): roots 2cos(2 pi k/n), k = 0..n-1."""
    c_prev, c = RationalPoly((2,)), X
    for _ in range(n - 1):
        c_prev, c = c, X * c - c_prev
    return c - RationalPoly((2,))


@pytest.mark.parametrize("n", range(1, 31))
def test_factors_of_chebyshev_are_the_cos_minimal_polynomials(n):
    # one factor per divisor d of n: the minimal polynomial of 2cos(2 pi/d),
    # of degree phi(d)/2 for d >= 3 and 1 for d = 1, 2
    import sympy

    p = _chebyshev_minus_two(n)
    factors = irreducible_factors(p)
    assert [q.coeffs for q in factors] == _sympy_factors(p)
    expected = sorted(1 if d <= 2 else sympy.totient(d) // 2 for d in sympy.divisors(n))
    assert sorted(q.degree for q in factors) == expected


def _swinnerton_dyer(k: int) -> RationalPoly:
    """The minimal polynomial of sqrt2 + sqrt3 + ... + sqrt(p_k), of degree 2^k."""
    import sympy

    x = sympy.symbols("x")
    value = sum(sympy.sqrt(sympy.prime(i)) for i in range(1, k + 1))
    cs = sympy.Poly(sympy.minimal_polynomial(value, x), x).all_coeffs()[::-1]
    return RationalPoly([int(c) for c in cs])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_swinnerton_dyer_polynomials(k):
    # irreducible over Q, yet a product of factors of degree <= 2 modulo every
    # prime: recombination must reject every subset, and find the pairs below
    s = _swinnerton_dyer(k)
    assert irreducible_factors(s) == (s,)
    shifted = s.shift(1)
    p = s * shifted * RationalPoly((-3, 1))
    assert irreducible_factors(p) == tuple(sorted((s, shifted, RationalPoly((-3, 1))), key=lambda q: (q.degree, q.coeffs)))
    if k <= 3:
        assert [q.coeffs for q in irreducible_factors(p)] == _sympy_factors(p)


def test_hensel_lift_reaches_past_twice_the_bound():
    f = [int(c) for c in (_swinnerton_dyer(3) * _chebyshev_minus_two(7).scale(3)).coeffs]
    f = list(polynomials._int_coeffs(squarefree_part(RationalPoly(f))))
    p = next(polynomials._good_primes(f))
    rng = random.Random(0)
    fp = polynomials._monic_mod([c % p for c in f], p)
    modular = [u for g, k in polynomials._distinct_degree(fp, p) for u in polynomials._equal_degree(g, k, p, rng)]
    bound = 2 ** (len(f) - 2) * sum(abs(c) for c in f)
    lifted, m = polynomials._hensel_lift(f, modular, p, bound)
    assert m > 2 * bound
    assert all(u[-1] == 1 and [c % p for c in u] == v for u, v in zip(lifted, modular))
    prod = [f[-1]]
    for u in lifted:
        prod = polynomials._mul_mod(prod, u, m)
    assert prod == [c % m for c in f]


def test_factors_of_constants_and_linears():
    assert irreducible_factors(RationalPoly((5,))) == ()
    assert irreducible_factors(RationalPoly((3, 6))) == (RationalPoly((F(1, 2), 1)),)
    assert irreducible_factors(RationalPoly((F(-1, 4), 0, 1))) == (RationalPoly((F(-1, 2), 1)), RationalPoly((F(1, 2), 1)))


# -- integer sign evaluation and Taylor shift ------------------------------------------

rational_polys = st.lists(st.fractions(-9, 9, max_denominator=7), max_size=9).map(RationalPoly)
points = st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=10**6))


@given(rational_polys, points)
def test_sign_at_is_the_sign_of_evaluate(p, t):
    v = p.evaluate(t)
    assert p.sign_at(t) == (v > 0) - (v < 0)


@given(st.fractions(-9, 9, max_denominator=7), points)
def test_sign_at_of_constants_and_zero(c, t):
    assert RationalPoly((c,)).sign_at(t) == (c > 0) - (c < 0)
    assert RationalPoly.zero().sign_at(t) == 0


def fraction_shift(p: RationalPoly, r: F) -> RationalPoly:
    """p(x + r) by Horner in Q[x]: the Fraction loop the integer shift replaced."""
    if r == 0 or p.is_zero:
        return p
    acc = [F(0)]
    for c in reversed(p.coeffs):
        nxt = [F(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] += a * r
            nxt[i + 1] += a
        nxt[0] += c
        acc = nxt
    return RationalPoly(acc)


@given(rational_polys, st.fractions(-20, 20, max_denominator=30))
def test_shift_matches_the_fraction_loop_and_sympy(p, r):
    got = p.shift(r)
    assert got == fraction_shift(p, r)
    x = sympy.symbols("x")
    shifted = x + sympy.Rational(r.numerator, r.denominator)
    expr = sum(sympy.Rational(c.numerator, c.denominator) * shifted**i for i, c in enumerate(p.coeffs))
    want = [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())] if p.coeffs else []
    assert got == RationalPoly(want)


# -- primitive Sturm chains, against the Fraction chain and sympy -------------------

nonzero_fractions = st.fractions(-9, 9, max_denominator=7).filter(lambda c: c != 0)
# degree 1..16, leading coefficients negative and non-unit too; some with a
# repeated factor; about half the other coefficients zero, so that remainders
# drop by more than one degree
sturm_inputs = st.builds(
    lambda cs, lead, square: RationalPoly(cs + [lead]) * square * square,
    st.lists(st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=7)), min_size=1, max_size=12),
    nonzero_fractions,
    st.sampled_from([ONE, ONE, ONE, RationalPoly((-1, 1)), RationalPoly((F(1, 3), 0, -2))]),
)


def _sympy_poly(p: RationalPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], sympy.symbols("x"))


@given(rational_polys, rational_polys, rational_polys)
def test_poly_gcd_matches_sympy(p, q, common):
    # a shared factor makes the gcd nontrivial; either operand may be the longer one, or zero
    zero = RationalPoly.zero()
    for a, b in ((p * common, q * common), (q * common, p * common), (p, q), (p, zero), (zero, q), (zero, zero)):
        got = poly_gcd(a, b)
        if a.is_zero and b.is_zero:
            assert got.is_zero
            continue
        expected = sympy.gcd(_sympy_poly(a).set_domain(sympy.QQ), _sympy_poly(b).set_domain(sympy.QQ)).monic()
        assert got == RationalPoly([F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())])


@given(sturm_inputs)
def test_sturm_chain_is_the_fraction_chain_up_to_positive_factors(p):
    assert_positive_multiples(sturm_chain(p), fraction_sturm_chain(p))


@given(sturm_inputs, sturm_inputs)
def test_signed_remainder_sequence_is_the_fraction_sequence_up_to_positive_factors(p, q):
    if q.degree > p.degree:
        p, q = q, p
    assert_positive_multiples(signed_remainder_sequence(p, q), fraction_remainder_sequence(p, q))


def test_signed_remainder_sequence_reads_the_cauchy_index():
    # (x - 1)(x - 3) and x - 2 interlace: index 2 over the line, 1 over (0, 2] and over (2, 4]
    q, p = from_roots([1, 3]), from_roots([2])
    seq = signed_remainder_sequence(q, p)

    def v(t):
        return polynomials.sign_variations([s.sign_at(t) for s in seq])

    assert (v(-100) - v(100), v(0) - v(2), v(2) - v(4)) == (2, 1, 1)
    # x - 4 lies outside: the jumps at 1 and 3 cancel
    seq = signed_remainder_sequence(q, from_roots([4]))
    assert v(-100) - v(100) == 0
    with pytest.raises(ValueError):
        signed_remainder_sequence(p, q)


@given(sturm_inputs, st.lists(st.tuples(points, points), min_size=1, max_size=4))
def test_root_counts_and_isolation_agree_with_sympy(p, intervals):
    # intervals may be points and may end at roots: the counts are of [lo, hi]
    sp = _sympy_poly(p)
    roots = isolate_real_roots(p)
    for a, b in intervals:
        lo, hi = sorted((F(a), F(b)))
        assert len(roots_in(roots, lo, hi)) == sp.count_roots(sympy.Rational(lo), sympy.Rational(hi))
    # the roots as roots_in left them still isolate
    assert len(roots) == sp.count_roots()
    for r in roots:
        assert sp.count_roots(sympy.Rational(r.lo), sympy.Rational(r.hi)) == 1
