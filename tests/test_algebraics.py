from fractions import Fraction as F
import re
from pathlib import Path
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpolykit import algebraics
from qpolykit.algebraics import (
    AlgebraicReal,
    _defining_poly_image,
    apply_rational_poly,
    compare,
    compare_rational,
    isolate_real_roots,
    isolate_real_roots_with_multiplicity,
)
from qpolykit.graphs import adjacency_charpoly, random_regular_graph
from qpolykit.numberfield import _tensor_min_poly
from qpolykit.polynomials import (
    RationalPoly,
    _int_coeffs,
    cauchy_root_bound,
    poly_gcd,
    sign_variations,
    squarefree_part,
    sturm_chain,
)
from qpolykit.serialize import value_json

from helpers import from_roots


def sqrt_of(n: int) -> AlgebraicReal:
    roots = isolate_real_roots(RationalPoly((-n, 0, 1)))
    return roots[-1]


def sympy_count(p: RationalPoly, lo: F | None = None, hi: F | None = None) -> int:
    """Distinct real roots of p in [lo, hi], the whole line by default, counted by sympy."""
    sp = sympy.Poly(sym(squarefree_part(p), X), X)
    return sp.count_roots() if lo is None else sp.count_roots(sympy.Rational(lo), sympy.Rational(hi))


def test_isolation_golden_quadratic():
    roots = isolate_real_roots(RationalPoly((-1, 1, 1)))  # x^2 + x - 1
    assert len(roots) == 2
    lo, hi = roots
    assert compare_rational(lo, F(-2)) > 0 and compare_rational(lo, F(-3, 2)) < 0
    assert compare_rational(hi, F(1, 2)) > 0 and compare_rational(hi, F(1)) < 0


def test_isolation_rational_roots_exact():
    p = from_roots([1, 2, 3])
    roots = isolate_real_roots(p)
    assert [r.as_rational() for r in roots] == [F(1), F(2), F(3)]


def test_isolation_heawood_reduced_cubic():
    # brute-force characteristic polynomial of the 3x3 reduced matrix
    p = RationalPoly((-6, -2, 3, 1))  # (x+3)(x^2-2)
    roots = isolate_real_roots(p)
    assert len(roots) == 3
    assert roots[0].as_rational() == F(-3)
    assert compare(roots[1], sqrt_of(2).mul_rational(-1)) == 0
    assert compare(roots[2], sqrt_of(2)) == 0


def test_isolation_counts_match_sturm():
    # sympy counts by its own Sturm sequences
    for coeffs in [(-1, 1, 1), (-6, -2, 3, 1), (2, 0, -3, 0, 1), (1, 0, 1), (-4, 0, 1, 0, 1)]:
        p = RationalPoly(coeffs)
        assert len(isolate_real_roots(p)) == sympy_count(p)


def test_multiplicities():
    p = from_roots([1, 1, 2])
    out = isolate_real_roots_with_multiplicity(p)
    assert [(r.as_rational(), m) for r, m in out] == [(F(1), 2), (F(2), 1)]


def test_compare_examples():
    s2 = sqrt_of(2)
    assert compare_rational(s2, F(3, 2)) < 0
    other = isolate_real_roots(RationalPoly((-4, 0, 2)))[-1]  # independent isolation
    assert compare(s2, other) == 0
    golden = isolate_real_roots(RationalPoly((-1, 1, 1)))[-1]
    assert compare_rational(golden, F(-1)) > 0


def test_compare_total_order_transitivity_randomized():
    import random

    rng = random.Random(5)
    pool = []
    for _ in range(8):
        c0 = rng.randint(-6, 6)
        c1 = rng.randint(-4, 4)
        p = RationalPoly((c0, c1, 1))
        pool.extend(isolate_real_roots(p))
        pool.append(AlgebraicReal.from_rational(F(rng.randint(-8, 8), rng.randint(1, 4))))
    for _ in range(120):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab, bc, ac = compare(a, b), compare(b, c), compare(a, c)
        assert ab == -compare(b, a)
        if ab <= 0 and bc <= 0:
            assert ac <= 0
        if ab >= 0 and bc >= 0:
            assert ac >= 0


def test_refinement_stability():
    s2 = sqrt_of(2)
    refined = s2.refined_to(F(1, 10**6))
    assert compare(refined, s2) == 0
    assert compare_rational(refined, F(3, 2)) < 0
    assert refined.hi - refined.lo <= F(1, 10**6)


def test_arithmetic_against_sympy_minimal_polys():
    # the rational arithmetic and the inverse keep a minimal polynomial minimal
    x = sympy.symbols("x")

    def sympy_minpoly(expr) -> RationalPoly:
        coeffs = sympy.Poly(sympy.minimal_polynomial(expr, x), x).all_coeffs()
        return RationalPoly([F(int(c)) for c in reversed(coeffs)]).monic()

    v = sqrt_of(2).mul_rational(3).add_rational(-1)  # 3 sqrt2 - 1
    assert v.poly.monic() == sympy_minpoly(3 * sympy.sqrt(2) - 1)
    inv = v.inverse()
    assert inv.poly.monic() == sympy_minpoly(1 / (3 * sympy.sqrt(2) - 1))
    assert compare_rational(inv, F(3, 10)) > 0 and compare_rational(inv, F(3, 10) + F(1, 100)) < 0
    assert compare(inv.inverse(), v) == 0


def test_mixed_arithmetic():
    s5 = sqrt_of(5)
    golden = isolate_real_roots(RationalPoly((-1, 1, 1)))[-1]  # (-1+sqrt5)/2
    assert compare(golden.mul_rational(2).add_rational(1), s5) == 0
    assert golden.add_rational(F(1, 2)).mul_rational(2) == s5
    neg = s5.mul_rational(-1)
    assert compare_rational(neg, F(-2)) < 0 and compare_rational(neg, F(-9, 4)) > 0


def test_zero_product_and_inverse_errors():
    s2 = sqrt_of(2)
    zero = AlgebraicReal.from_rational(0)
    assert s2.mul_rational(0).as_rational() == 0
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_apply_rational_poly():
    s2 = sqrt_of(2)
    val = apply_rational_poly(RationalPoly((1, 2, 1)), s2)  # (x+1)^2 at sqrt2 = 3 + 2 sqrt2
    assert compare(val, s2.mul_rational(2).add_rational(3)) == 0
    assert val.poly.degree <= 2


def test_isolation_interval_invariants():
    p = RationalPoly((-1, 1, 1)) * RationalPoly((-2, 0, 1))
    roots = isolate_real_roots(p)
    assert len(roots) == 4
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo or compare(a, b) < 0
    for r in roots:
        assert sympy_count(r.poly, r.lo, r.hi) == 1 or r.is_rational


@given(
    st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=4
    )
)
def test_isolation_recovers_constructed_roots(roots):
    p = from_roots(roots)
    found = isolate_real_roots(p)
    expected = sorted(set(roots))
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert compare_rational(got, want) == 0


# -- every resultant against sympy.resultant -------------------------------------------

X, Y = sympy.symbols("x y")


def squarefree_int_poly(coeffs, rational_roots) -> RationalPoly:
    p = RationalPoly(coeffs)
    for r in rational_roots:
        p = p * RationalPoly((-r, 1))
    return RationalPoly(_int_coeffs(squarefree_part(p)))


squarefree_int_polys = st.builds(
    squarefree_int_poly,
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    st.lists(st.integers(-3, 3), max_size=2),
).filter(lambda p: p.degree >= 1)


def report_approx(v: AlgebraicReal) -> float:
    """The float a report shows for v: its "approx", or its exact "rational"."""
    shown = value_json(v)
    return shown["approx"] if "approx" in shown else float(F(shown["rational"]))


def sym(p: RationalPoly, var):
    return sum(sympy.Rational(c.numerator, c.denominator) * var**k for k, c in enumerate(p.coeffs))


def sympy_squarefree(expr) -> RationalPoly:
    coeffs = sympy.Poly(expr, X).sqf_part().monic().all_coeffs()
    return RationalPoly([F(int(c.p), int(c.q)) for c in reversed(coeffs)])


@given(squarefree_int_polys, st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=4))
def test_image_polynomial_matches_sympy_resultant(pa, qc):
    q = RationalPoly(qc)
    res = sympy.resultant(sym(pa, Y), X - sym(q, Y), Y)
    assert squarefree_part(_defining_poly_image(q, pa)) == sympy_squarefree(res)
    for root in isolate_real_roots(pa):
        val = apply_rational_poly(q, root)
        assert abs(report_approx(val) - float(q.evaluate(root.refined_to(F(1, 10**15)).lo))) < 1e-9


@given(squarefree_int_polys, squarefree_int_polys, st.integers(1, 4))
def test_tensor_min_poly_matches_sympy_resultant(m1, m2, t):
    b = sympy.expand(sym(m2, Y).subs(Y, (X - Y) / t) * t**m2.degree)
    res = sympy.resultant(sym(m1, Y), b, Y)
    assert _tensor_min_poly(m1.monic(), m2.monic(), t) == sympy_squarefree(res)


@pytest.mark.parametrize(
    "name, run",
    [("_defining_poly_image", lambda: apply_rational_poly(RationalPoly((1, 1, 1)), sqrt_of(2)))],
)
def test_rootless_defining_polynomial_is_an_alarm_not_a_hang(name, run, monkeypatch, within):
    # the refinement loop is capped by the Mahler separation of the candidates
    monkeypatch.setattr(algebraics, name, lambda *a: RationalPoly((-(10**6), 0, 1)))
    with pytest.raises(AssertionError, match="not a root of its defining polynomial"):
        within(10, run)


# -- the integer bisection kernel against a Fraction bisection -----------------------
#
# The reference below is the Fraction bisection the kernel replaced, kept here
# only as the oracle: the kernel must reach the same interval at every step,
# the same exact hits and the same verdicts.


def ref_sign(p: RationalPoly, t: F) -> int:
    v = p.evaluate(t)
    return (v > 0) - (v < 0)


def ref_refine(p: RationalPoly, lo: F, hi: F) -> tuple[F, F]:
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    s = ref_sign(p, mid)
    if s == 0:
        return mid, mid
    if s == ref_sign(p, lo):
        return mid, hi
    return lo, mid


def ref_refined_to(p, lo, hi, width):
    while hi - lo > width:
        lo, hi = ref_refine(p, lo, hi)
    return lo, hi


def ref_compare_rational(a: AlgebraicReal, r: F) -> int:
    ra = a.as_rational()
    if ra is not None:
        return (ra > r) - (ra < r)
    lo, hi = a.lo, a.hi
    if lo <= r <= hi and ref_sign(a.poly, r) == 0:
        return 0
    while lo <= r <= hi:
        lo, hi = ref_refine(a.poly, lo, hi)
        if lo == hi:
            return (lo > r) - (lo < r)
    return 1 if lo > r else -1


def ref_compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    ra, rb = a.as_rational(), b.as_rational()
    if ra is not None and rb is not None:
        return (ra > rb) - (ra < rb)
    if rb is not None:
        return ref_compare_rational(a, rb)
    if ra is not None:
        return -ref_compare_rational(b, ra)
    (alo, ahi), (blo, bhi) = (a.lo, a.hi), (b.lo, b.hi)
    rounds = 0
    while True:
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
        if rounds == algebraics.REFINE_BUDGET:
            g = poly_gcd(a.poly, b.poly)
            if g.degree >= 1 and sympy_count(g, max(alo, blo), min(ahi, bhi)) >= 1:
                return 0
        alo, ahi = ref_refine(a.poly, alo, ahi)
        blo, bhi = ref_refine(b.poly, blo, bhi)
        if blo == bhi:
            return ref_compare_rational(AlgebraicReal(a.poly, alo, ahi, True), blo)
        if alo == ahi:
            return -ref_compare_rational(AlgebraicReal(b.poly, blo, bhi, True), alo)
        rounds += 1


def ref_integer_collapse(a: AlgebraicReal) -> tuple[F, F]:
    lo, hi = a.lo, a.hi
    while hi - lo >= 1:
        lo, hi = ref_refine(a.poly, lo, hi)
    n = -((-lo) // 1)
    if n <= hi and ref_sign(a.poly, F(n)) == 0:
        return F(n), F(n)
    return lo, hi


def ref_isolation(p: RationalPoly) -> list[AlgebraicReal]:
    """isolate_real_roots' subdivision before its integer collapse, in Fractions, counted by sympy.

    [-B, B], B one more than the Cauchy bound of the squarefree part, is
    split at midpoints, each moved off a root by a quarter of its interval,
    then an eighth, and so on; an interval that holds one root is kept.
    """
    sf = squarefree_part(p)
    c = sf.coeffs
    if sf.degree == 1:
        return [AlgebraicReal.from_rational(-c[0] / c[1])]
    bound = 2 + max(abs(x) for x in c[:-1]) / abs(c[-1])
    out, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = sympy_count(sf, lo, hi)  # neither end is a root
        if n == 1:
            out.append(AlgebraicReal(sf, lo, hi, True))
        elif n > 1:
            mid, nudge = (lo + hi) / 2, (hi - lo) / 4
            while ref_sign(sf, mid) == 0:
                mid, nudge = mid + nudge, nudge / 2
            stack += [(lo, mid), (mid, hi)]
    return out


def isolation_collapses_like_the_reference(p: RationalPoly) -> bool:
    got = [(r.lo, r.hi) for r in isolate_real_roots(p)]
    return got == sorted(ref_integer_collapse(a) for a in ref_isolation(p))


def ref_inverse_interval(a: AlgebraicReal) -> tuple[F, F]:
    lo, hi = a.lo, a.hi
    while lo <= 0 <= hi:
        lo, hi = ref_refine(a.poly, lo, hi)
    return (1 / hi, 1 / lo) if lo != hi else (1 / lo, 1 / lo)


def sympy_roots(p: RationalPoly) -> list[AlgebraicReal]:
    """Real roots of p from sympy's isolating intervals (not ours).

    sympy's intervals are closed, and one may end at another root; those
    are left out, and isolate_real_roots stands in when none is left.
    """
    out = []
    for (lo, hi), _ in sympy.Poly(sym(p, X), X).intervals():
        try:
            out.append(AlgebraicReal(p, F(int(lo.p), int(lo.q)), F(int(hi.p), int(hi.q))))
        except ValueError:
            pass
    return out or isolate_real_roots(p)


def random_squarefree(coeffs: list[int]) -> RationalPoly | None:
    p = RationalPoly(coeffs)
    if p.degree < 1:
        return None
    return RationalPoly(_int_coeffs(squarefree_part(p)))


kernel_polys = st.builds(
    random_squarefree, st.lists(st.integers(-20, 20), min_size=2, max_size=13)
).filter(lambda p: p is not None and sympy_count(p) >= 1)
widths = st.builds(F, st.integers(1, 1000), st.integers(1, 10**15))


def same(a: AlgebraicReal, interval: tuple[F, F]) -> bool:
    return (a.lo, a.hi) == interval


@settings(max_examples=60, deadline=None)
@given(kernel_polys, widths, st.fractions(-30, 30, max_denominator=64), st.data())
def test_kernel_matches_fraction_bisection(p, width, r, data):
    roots = sympy_roots(p)
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots + isolate_real_roots(p)))
    # interval by interval, one step at a time
    cur, lo, hi = a, a.lo, a.hi
    for _ in range(12):
        cur = cur.refine()
        lo, hi = ref_refine(cur.poly, lo, hi)
        assert same(cur, (lo, hi))
    # a drawn width, and one 42 levels down
    deep = (a.hi - a.lo) / 2**42
    for w in (width, deep):
        assert same(a.refined_to(w), ref_refined_to(a.poly, a.lo, a.hi, w))
        # values whose sign at lo was carried over, not recomputed
        for v in (a.add_rational(r), a.mul_rational(-3), a.mul_rational(F(2, 5))):
            assert same(v.refined_to(w), ref_refined_to(v.poly, v.lo, v.hi, w))
    assert compare_rational(a, r) == ref_compare_rational(a, r)
    for x in (a.lo, a.hi, (a.lo + a.hi) / 2):
        assert compare_rational(a, x) == ref_compare_rational(a, x)
    assert compare(a, b) == ref_compare(a, b)
    assert compare(b, a) == ref_compare(b, a)
    assert isolation_collapses_like_the_reference(p)
    if a.as_rational() != 0:
        assert same(a.inverse(), ref_inverse_interval(a))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-40, 40),
    st.integers(0, 6),
    st.integers(1, 15),
    st.integers(0, 6),
    kernel_polys,
    widths,
)
def test_kernel_collapses_on_a_dyadic_midpoint(m, j, left, t, q, width):
    # the root r = m / 2^j sits left / (16 2^t) of the way into an interval of
    # width 16 2^t w: a dyadic fraction, so some bisection midpoint is r
    r = F(m, 2**j)
    w = F(1, 2 ** (j + 3))
    lo, hi = r - left * w, r + (16 * 2**t - left) * w
    p = RationalPoly((-m, 2**j)) * q
    try:
        a = AlgebraicReal(p, lo, hi)
    except ValueError:  # q has a root in the interval too
        return
    # r is a grid point t + 4 levels down, so bisection hits it before the interval is this narrow
    tiny = (a.hi - a.lo) / 2 ** (t + 5)
    ref_lo, ref_hi = ref_refined_to(a.poly, a.lo, a.hi, tiny)
    assert ref_lo == ref_hi == r  # the reference hits the root exactly
    hit = a.refined_to(tiny)
    assert hit.is_rational and hit.as_rational() == r
    deep = (a.hi - a.lo) / 2**42
    for w in (width, deep):
        assert same(a.refined_to(w), ref_refined_to(a.poly, a.lo, a.hi, w))
    assert compare_rational(a, r) == 0
    for x in (r - w / 3, r + w / 5):
        assert compare_rational(a, x) == ref_compare_rational(a, x)
    assert compare(a, AlgebraicReal.from_rational(r)) == 0
    assert isolation_collapses_like_the_reference(p)
    if r != 0:
        assert same(a.inverse(), ref_inverse_interval(a))


def test_isolation_collapses_an_integer_root_that_a_halving_hits():
    # (x - 3)(x^2 - 2) on [-8, 8]: 3 is isolated on [2, 4], and the first halving lands on it
    p = RationalPoly((-3, 1)) * RationalPoly((-2, 0, 1))
    isolated = ref_isolation(p)
    assert [(a.lo, a.hi) for a in isolated if a.lo <= 3 <= a.hi] == [(2, 4)]
    assert ref_refine(p, F(2), F(4)) == (3, 3)
    assert isolation_collapses_like_the_reference(p)
    three = isolate_real_roots(p)[-1]
    assert (three.lo, three.hi) == (3, 3) and three.poly == RationalPoly((-3, 1))
    # 1/2 of (2x - 1)(x^2 - 2) is isolated on [0, 1] and hit too, but stays a point of the cubic
    q = RationalPoly((-1, 2)) * RationalPoly((-2, 0, 1))
    assert ref_refine(q, F(0), F(1)) == (F(1, 2), F(1, 2))
    assert isolation_collapses_like_the_reference(q)
    half = isolate_real_roots(q)[1]
    assert (half.lo, half.hi, half.poly.degree, half._sign_lo) == (F(1, 2), F(1, 2), 3, 0)


def test_refined_to_returns_a_value_already_fit_without_a_bisection(monkeypatch):
    built = []

    class Counting(algebraics._Bisection):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(algebraics, "_Bisection", Counting)
    s2 = sqrt_of(2)
    width = s2.hi - s2.lo
    for w in (width, width * 3, F(10**9)):
        assert s2.refined_to(w) is s2
    assert built == []
    narrower = s2.refined_to(width / 2)
    assert len(built) == 1 and narrower.hi - narrower.lo <= width / 2


@st.composite
def jacobi_charpolys(draw):
    """det(xI - J) for a symmetric integer tridiagonal J of order 20..40 with a nonzero off-diagonal.

    Such a polynomial is totally real with simple roots.
    """
    n = draw(st.integers(20, 40))
    a = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    prev, cur = RationalPoly((1,)), RationalPoly((-a[0], 1))
    for ak, bk in zip(a[1:], b):
        prev, cur = cur, RationalPoly((-ak, 1)) * cur - prev.scale(bk * bk)
    return cur


@settings(max_examples=12, deadline=None)
@given(jacobi_charpolys(), st.data())
def test_descent_matches_fraction_bisection_at_high_degree(p, data):
    roots = isolate_real_roots(p)
    assert len(roots) == p.degree
    a = data.draw(st.sampled_from(roots))
    for levels in (12, 40, 64):
        w = (a.hi - a.lo) / 2**levels
        got = a.refined_to(w)
        assert same(got, ref_refined_to(a.poly, a.lo, a.hi, w))
        assert got._sign_lo == ref_sign(a.poly, got.lo)


def counting(monkeypatch, *names: str) -> list[int]:
    """Count the calls of the named kernel methods, together."""
    calls = [0]
    for name in names:
        real = getattr(algebraics._Bisection, name)

        def counted(self, *args, _real=real):
            calls[0] += 1
            return _real(self, *args)

        monkeypatch.setattr(algebraics._Bisection, name, counted)
    return calls


def test_refining_to_a_report_width_takes_ten_evaluations(monkeypatch):
    # the largest root of x^3 - 3x - 1, 2 cos(pi/9), as isolation leaves it
    a = isolate_real_roots(RationalPoly((-1, -3, 0, 1)))[-1]
    assert (a.lo, a.hi) == (F(15, 8), F(5, 2))
    calls = counting(monkeypatch, "sign", "value")
    got = a.refined_to(F(1, 10**12))
    assert same(got, ref_refined_to(a.poly, a.lo, a.hi, F(1, 10**12)))
    # 40 levels down, where bisection evaluates once per level
    assert (a.hi - a.lo) / (got.hi - got.lo) == 2**40
    assert calls == [10]


def test_a_refine_step_evaluates_one_sign(monkeypatch):
    # the sign at lo is carried from isolation and kept by every step
    s2 = sqrt_of(2)
    calls = counting(monkeypatch, "sign")
    values = counting(monkeypatch, "value")
    cur = s2
    for _ in range(10):
        cur = cur.refine()
    assert calls == [10] and values == [0]
    # refined_to descends on values, never on signs, and takes at most one per level
    cur.refined_to(cur.hi - cur.lo)  # no level: no evaluation
    assert calls == [10] and values == [0]
    cur.refined_to((cur.hi - cur.lo) / 1024)  # ten levels
    assert calls == [10] and 0 < values[0] <= 10
    # add_rational and mul_rational carry the sign over, for either sign of r
    for v in (cur.add_rational(F(1, 3)), cur.mul_rational(F(-5, 7)), cur.mul_rational(3)):
        calls[0] = 0
        v.refine()
        assert calls == [1]
    # a value built without it pays once for the sign at lo
    fresh = AlgebraicReal(s2.poly, s2.lo, s2.hi, _checked=True)
    calls[0] = 0
    fresh.refine().refine()
    assert calls == [3]


@settings(max_examples=80, deadline=None)
@given(kernel_polys, st.integers(-40, 40), st.integers(0, 4), st.integers(1, 63), st.data())
def test_refined_to_is_bisection_at_every_depth(q, m, j, left, data):
    # besides q's own roots, the root r = m / 2^j of p = (2^j x - m) q on an interval
    # of width 64 w with r at left / 64 of the way in: bisection hits r within six levels
    r, w = F(m, 2**j), F(1, 2 ** (j + 2))
    values = sympy_roots(q)
    try:
        values.append(AlgebraicReal(RationalPoly((-m, 2**j)) * q, r - left * w, r + (64 - left) * w))
    except ValueError:  # q has a root in the interval too
        pass
    a = data.draw(st.sampled_from(values))
    for depth in range(17):
        width = (a.hi - a.lo) / 2**depth
        got = a.refined_to(width)
        assert same(got, ref_refined_to(a.poly, a.lo, a.hi, width)), depth
        assert got._sign_lo == ref_sign(a.poly, got.lo)


def forbid_normalize(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the unchecked constructor certified a value")

    monkeypatch.setattr(algebraics, "_normalize", forbidden)


def test_isolation_certifies_each_root_with_one_sturm_count(monkeypatch):
    # isolate_real_roots builds its roots from its own Sturm signs, not
    # through the unchecked constructor, which would isolate them again
    forbid_normalize(monkeypatch)
    p = RationalPoly((-1, 1, 1)) * RationalPoly((-2, 0, 1)) * RationalPoly((-3, 0, 0, 1))
    roots = isolate_real_roots(p)
    assert len(roots) == 5
    for r in roots:
        assert r.poly.sign_at(r.lo) == r._sign_lo == -r.poly.sign_at(r.hi)


@settings(max_examples=60, deadline=None)
@given(kernel_polys, st.data())
def test_inverse_matches_sympy_without_the_unchecked_constructor(p, data):
    a = data.draw(st.sampled_from(isolate_real_roots(p)))
    if a.as_rational() == 0:
        return
    with pytest.MonkeyPatch.context() as mp:
        forbid_normalize(mp)
        inv = a.inverse()
    if not inv.is_rational:
        # the monic reversal x^n q(1/x) of a.poly = x^k q, by sympy
        coeffs = sympy.Poly(sym(a.poly, X), X).all_coeffs()
        assert inv.poly == sympy_squarefree(sympy.Poly(coeffs[::-1], X).as_expr())
    # [inv.lo, inv.hi] isolates a root of inv.poly, and its inverse is a
    assert sympy_count(inv.poly, inv.lo, inv.hi) == 1
    lo, hi = max(a.lo, 1 / inv.hi), min(a.hi, 1 / inv.lo)
    assert lo <= hi and sympy_count(a.poly, lo, hi) == 1


def test_compare_decides_a_forced_tie_by_a_sign_change_of_the_gcd(monkeypatch):
    # no refinement before the gcd: overlapping intervals go straight to it
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 0)
    gcds = []
    real_gcd = algebraics.poly_gcd
    monkeypatch.setattr(algebraics, "poly_gcd", lambda a, b: gcds.append(b) or real_gcd(a, b))
    p = RationalPoly((-2, 0, 1))
    s2 = isolate_real_roots(p)[-1]
    below, same_root, above = isolate_real_roots(p * RationalPoly((-3, 0, 1)))[1:]  # -sqrt2, sqrt2, sqrt3
    assert compare(s2, same_root) == 0 and compare(same_root, s2) == 0 and gcds
    assert compare(s2, below) == 1 and compare(below, s2) == -1
    assert compare(s2, above) == -1 and compare(above, s2) == 1


def test_compare_past_its_round_cap_is_an_alarm(monkeypatch, within):
    # a gcd that misses the tie leaves two equal values that never separate
    monkeypatch.setattr(algebraics, "poly_gcd", lambda a, b: RationalPoly.one())
    s2 = sqrt_of(2)
    other = isolate_real_roots(RationalPoly((-2, 0, 1)) * RationalPoly((-5, 1)))[1]  # sqrt2 of (x^2 - 2)(x - 5)
    assert other.poly.degree == 3 and compare_rational(other, F(1)) > 0 and compare_rational(other, F(2)) < 0
    with pytest.raises(AssertionError, match="^comparison refined past its round cap$"):
        within(10, compare, s2, other)
    # distinct values still separate under the same faulty gcd
    assert compare(s2, sqrt_of(3)) == -1


def test_rational_comparison_past_its_round_cap_is_an_alarm(within):
    # a forged value: x^2 - 2 has no root on [3, 4], so bisection keeps the
    # upper half and 4 never leaves the interval
    forged = AlgebraicReal(RationalPoly((-2, 0, 1)), 3, 4, True)
    with pytest.raises(AssertionError, match="^rational comparison refined past its round cap$"):
        within(10, compare_rational, forged, 4)
    # a genuine value that refines past the budget still compares
    s2 = sqrt_of(2)
    near = s2.refined_to(F(1, 2**80))
    assert compare_rational(s2, near.lo) == 1 and compare_rational(s2, near.hi) == -1


def test_inverse_past_its_round_cap_is_an_alarm(within):
    # a forged value: x^2 - 2 has no root on [-1, 0], so bisection keeps the
    # upper half and 0 never leaves the interval
    forged = AlgebraicReal(RationalPoly((-2, 0, 1)), -1, 0, True)
    with pytest.raises(AssertionError, match="^inverse refined past its round cap$"):
        within(10, forged.inverse)
    # a genuine value whose interval straddles 0 for many rounds still inverts
    tiny = isolate_real_roots(RationalPoly((-1, 0, 2**160)))[-1]  # 2^-80
    assert tiny.inverse() == 2**80


def test_exact_hits_on_a_rational_root_that_as_rational_misses():
    # 1/2 as the root of (2x - 1)(x^2 - 3) on [0, 1]: not a point and not of
    # degree 1, so only the first bisection midpoint shows that it is rational
    half = AlgebraicReal(RationalPoly((-1, 2)) * RationalPoly((-3, 0, 1)), 0, 1, True)
    assert half.as_rational() is None
    below = isolate_real_roots(RationalPoly((-1, 2, 1)))[-1]  # sqrt2 - 1, on an interval inside [0, 1]
    assert half.lo <= below.lo < below.hi <= half.hi
    assert compare(below, half) == -1 and compare(half, below) == 1
    inv = half.inverse()
    assert inv.is_rational and inv.as_rational() == 2
    for q in (RationalPoly((0, 2)), RationalPoly((0, 1, 1))):
        image = apply_rational_poly(q, half)
        assert image.is_rational and image.as_rational() == q.evaluate(F(1, 2))


def test_round_limit_is_free_within_the_budget_then_caps(monkeypatch):
    monkeypatch.setattr(algebraics, "REFINE_BUDGET", 3)  # read at call time
    p = RationalPoly((-2, 0, 1))
    cap = algebraics._round_cap(p, F(1))
    assert cap > 4
    bounds = []
    limit = algebraics.round_limit("gave up", lambda: bounds.append(1) or (p, F(1)))
    for rounds in range(3):
        limit(rounds)
    assert bounds == []  # no cap is computed within the budget
    for rounds in range(3, cap):
        limit(rounds)
    assert bounds == [1]  # computed once
    with pytest.raises(AssertionError, match="^gave up$"):
        limit(cap)
    # a cap below the round that computes it: that round still passes, the next gives up
    limit = algebraics.round_limit("gave up", lambda: (p, F(0)))
    limit(3)
    with pytest.raises(AssertionError, match="^gave up$"):
        limit(4)


def test_only_algebraics_names_the_give_up_rule():
    # every refinement loop gives up through algebraics.round_limit
    package = Path(algebraics.__file__).parent
    others = [path for path in sorted(package.glob("*.py")) if path.name != "algebraics.py"]
    assert len(others) >= 10
    for path in others:
        text = path.read_text()
        assert "REFINE_BUDGET" not in text and "_round_cap" not in text, path.name


def test_only_algebraics_spells_the_report_width():
    # every reported value is refined to algebraics.REPORT_WIDTH, read by name
    assert algebraics.REPORT_WIDTH == F(1, 10**12)
    spelled = re.compile(r"10\s*\*\*\s*\(?\s*-?\s*12\b|\b1e-?12\b|10\^-?12\b")
    assert spelled.search("Fraction(1, 10**12)") and spelled.search("1e-12")
    package = Path(algebraics.__file__).parent
    others = [path for path in sorted(package.glob("*.py")) if path.name != "algebraics.py"]
    assert len(others) >= 10
    for path in others:
        assert not spelled.search(path.read_text()), path.name


def test_refined_to_needs_a_positive_width(within):
    s2 = sqrt_of(2)

    def refuse_both():
        for width in (F(0), F(-1, 3)):
            with pytest.raises(ValueError, match="width must be positive"):
                s2.refined_to(width)

    within(1, refuse_both)
    point = AlgebraicReal.from_rational(F(3, 7))
    assert point.refined_to(F(0)) is point


def test_unchecked_constructor_certifies_its_interval():
    p = RationalPoly((-2, 0, 1)) * RationalPoly((-1, 3))  # (x^2 - 2)(3x - 1)
    a = AlgebraicReal(p, F(1), F(2))  # sqrt2 alone, neither end a root
    assert (a.poly, a.lo, a.hi) == (squarefree_part(p), F(1), F(2))
    assert a.as_rational() is None and a._sign_lo == -1
    # 1/3 at an end and no other root in the interval: the point 1/3
    for lo, hi in ((F(1, 3), F(1)), (F(0), F(1, 3))):
        b = AlgebraicReal(p, lo, hi)
        assert (b.poly, b.lo, b.hi) == (RationalPoly((F(-1, 3), 1)), F(1, 3), F(1, 3))
    with pytest.raises(ValueError, match="^interval isolates 2 roots, expected exactly one$"):
        AlgebraicReal(p, F(-2), F(1))  # -sqrt2 and 1/3
    with pytest.raises(ValueError, match="^interval isolates 0 roots, expected exactly one$"):
        AlgebraicReal(p, F(1, 2), F(1))
    for lo, hi in ((F(1, 3), F(2)), (F(-2), F(1, 3))):  # 1/3 at an end, and sqrt2 or -sqrt2
        with pytest.raises(ValueError, match="^interval contains more than one root$"):
            AlgebraicReal(p, lo, hi)
    with pytest.raises(ValueError, match="^point interval is not a root$"):
        AlgebraicReal(p, F(1, 2), F(1, 2))
    # ints become Fractions, and endpoints out of order are refused; only a checked caller skips both
    ints = AlgebraicReal(RationalPoly((-2, 0, 1)), 1, 2)
    assert (type(ints.lo), type(ints.hi), ints.lo, ints.hi) == (F, F, 1, 2)
    three = AlgebraicReal(RationalPoly((-3, 1)), 3, 3)
    assert type(three.lo) is F and three.as_rational() == 3
    for lo, hi in ((2, 1), (F(3, 2), F(4, 3))):
        with pytest.raises(ValueError, match="^interval endpoints out of order$"):
            AlgebraicReal(RationalPoly((-2, 0, 1)), lo, hi)


# -- the far bound ---------------------------------------------------------------


def _chain_counter(p: RationalPoly):
    """count(n, q) for isolate_real_roots from p's own Sturm chain, and the list of points it was asked about."""
    chain = sturm_chain(p)
    asked = []

    def count(n: int, q: int) -> tuple[int, int]:
        t = F(n, q)
        asked.append(t)
        return sign_variations([c.sign_at(t) for c in chain]), p.sign_at(t)

    return count, asked


def _no_far_bound(ints) -> int:
    # 2 + max|c| < 2^r exceeds the subdivision's own bound, so no point inside it counts as far
    return max(abs(c) for c in ints).bit_length() + 2


def _isolations(p: RationalPoly) -> list:
    """Every root of p as (poly, lo, hi), from the Sturm chain and from a counter on the same squarefree part."""
    sf = squarefree_part(p)
    count, _ = _chain_counter(sf)
    return [[(r.poly.coeffs, r.lo, r.hi) for r in roots] for roots in (isolate_real_roots(p), isolate_real_roots(sf, count))]


def _regular_charpoly(n: int, k: int, seed: int) -> RationalPoly:
    g = random_regular_graph(random.Random(seed), n + n * k % 2, k)
    return RationalPoly(_int_coeffs(squarefree_part(adjacency_charpoly(g))))


far_polys = st.one_of(
    *(
        st.builds(random_squarefree, st.lists(st.integers(-c, c), min_size=2, max_size=10)).filter(
            lambda p: p is not None
        )
        for c in (40, 10**6)
    ),
    st.builds(_regular_charpoly, st.integers(6, 20), st.integers(2, 4), st.integers(0, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(far_polys)
@example(RationalPoly((-15, 3, 1)))  # x^2 + 3x - 15: a root at -5.65, between 2^(r-1) and 2^r for r = 3
def test_far_bound_changes_no_interval(p):
    r = algebraics._far_bound(_int_coeffs(p))
    far = _isolations(p)
    assert far[0] == far[1]
    assert all(compare_rational(a, -(2**r)) > 0 and compare_rational(a, 2**r) < 0 for a in isolate_real_roots(p))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebraics, "_far_bound", _no_far_bound)
        assert _isolations(p) == far


@settings(max_examples=60, deadline=None)
@given(far_polys)
@example(RationalPoly((-1000, 1000, -1, 1)))  # (x - 1)(x^2 + 1000): one root, isolated from [-B, B] at once
def test_far_bound_keeps_the_counter_inside_it(p):
    sf = squarefree_part(p)
    if sf.degree < 2:
        return
    bound = cauchy_root_bound(sf) + 1
    r = algebraics._far_bound(_int_coeffs(sf))
    count, asked = _chain_counter(sf)
    isolate_real_roots(sf, count)
    assert asked[:2] == [-bound, bound]
    assert all(abs(t) < 2**r for t in asked[2:])


def test_far_bound_skips_the_zoom_on_cubic_graphs(monkeypatch):
    # a random cubic graph's spectrum lies in [-3, 3], far inside its Cauchy bound
    visits = []
    real = algebraics._chain_signs

    def counted(rchain, m, k):
        visits.append((m, k))
        return real(rchain, m, k)

    monkeypatch.setattr(algebraics, "_chain_signs", counted)
    for seed in range(4):
        p = _regular_charpoly(24, 3, seed)
        r = algebraics._far_bound(_int_coeffs(p))
        assert 2**r < cauchy_root_bound(p) + 1
        count, asked = _chain_counter(p)
        isolate_real_roots(p, count)
        visits.clear()
        isolate_real_roots(p)
        near = len(visits)
        # without the far bound, both sources are asked about the zoom in from the Cauchy bound
        with monkeypatch.context() as m:
            m.setattr(algebraics, "_far_bound", _no_far_bound)
            count, everywhere = _chain_counter(p)
            isolate_real_roots(p, count)
            visits.clear()
            isolate_real_roots(p)
        assert any(abs(t) >= 2**r for t in everywhere[2:])
        assert len(everywhere) > len(asked) and len(visits) > near
