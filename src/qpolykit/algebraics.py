"""Exact real algebraic numbers.

An AlgebraicReal is a squarefree rational polynomial together with a rational
isolating interval [lo, hi] certified (by a Sturm count) to contain exactly
one real root of the polynomial.  A rational value is stored with lo == hi.
For irrational values the construction arranges sign(p(lo)) != sign(p(hi)),
so refinement is plain bisection with power-of-two denominators.

The type is a root representation: it isolates, refines and compares, and
its only arithmetic is with rationals (add_rational, mul_rational) and the
inverse.  Arithmetic between two irrational values belongs to
``numberfield``.  Every comparison is decided exactly: intervals are refined
until they separate, and suspected ties are settled by a gcd of the defining
polynomials, never by a tolerance.  apply_rational_poly maps a value
through a rational polynomial; its defining polynomial is the characteristic
polynomial (``linalg.charpoly``) of multiplication by q(y) on Q[y]/(p),
squarefree but not necessarily minimal, which the representation allows.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt
from typing import Sequence

from .linalg import charpoly, companion
from .polynomials import (
    RationalPoly,
    _chain_signs_at,
    cauchy_root_bound,
    count_real_roots,
    poly_gcd,
    primitive_int_poly,
    sign_variations,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
)

# interval-refinement rounds that compare and tridiagonal.compare_shifted_product
# spend before switching to exact algebra; it affects speed, not answers
REFINE_BUDGET = 64


class AlgebraicReal:
    """A real root of a squarefree rational polynomial, pinned by an interval."""

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: RationalPoly, lo, hi, _checked: bool = False):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        if not _checked:
            poly, lo, hi = _normalize(poly, lo, hi)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicReal is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, r: Fraction | int) -> "AlgebraicReal":
        r = Fraction(r)
        return cls(RationalPoly((-r, 1)), r, r, _checked=True)

    # -- queries -------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_rational(self) -> Fraction | None:
        if self.lo == self.hi:
            return self.lo
        if self.poly.degree == 1:
            return -self.poly[0] / self.poly[1]
        return None

    def __repr__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return f"AlgebraicReal({r})"
        return f"AlgebraicReal({self.poly.to_str()} on [{self.lo}, {self.hi}])"

    def approx_float(self) -> float:
        a = self.refined_to(Fraction(1, 10**12))
        return float((a.lo + a.hi) / 2)

    # -- refinement -------------------------------------------------------------

    def refine(self) -> "AlgebraicReal":
        """One bisection step; collapses to a rational point on an exact hit."""
        if self.lo == self.hi:
            return self
        mid = (self.lo + self.hi) / 2
        s = self.poly.sign_at(mid)
        if s == 0:
            return AlgebraicReal(self.poly, mid, mid, _checked=True)
        if s == self.poly.sign_at(self.lo):
            return AlgebraicReal(self.poly, mid, self.hi, _checked=True)
        return AlgebraicReal(self.poly, self.lo, mid, _checked=True)

    def refined_to(self, width: Fraction) -> "AlgebraicReal":
        a = self
        while a.hi - a.lo > width:
            a = a.refine()
        return a

    # -- sign and comparison -------------------------------------------------------

    def sign(self) -> int:
        return compare_rational(self, Fraction(0))

    def __lt__(self, other):
        return compare(self, _coerce(other)) < 0

    def __le__(self, other):
        return compare(self, _coerce(other)) <= 0

    def __gt__(self, other):
        return compare(self, _coerce(other)) > 0

    def __ge__(self, other):
        return compare(self, _coerce(other)) >= 0

    def __eq__(self, other):
        if not isinstance(other, (AlgebraicReal, Fraction, int)):
            return NotImplemented
        return compare(self, _coerce(other)) == 0

    __hash__ = None  # equality is semantic, not structural

    # -- arithmetic ------------------------------------------------------------------

    def add_rational(self, r: Fraction | int) -> "AlgebraicReal":
        r = Fraction(r)
        if r == 0:
            return self
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo + r)
        return AlgebraicReal(self.poly.shift(-r), self.lo + r, self.hi + r, _checked=True)

    def mul_rational(self, r: Fraction | int) -> "AlgebraicReal":
        r = Fraction(r)
        if r == 0:
            return AlgebraicReal.from_rational(0)
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo * r)
        p = self.poly.scale_arg(r)
        lo, hi = self.lo * r, self.hi * r
        if r < 0:
            lo, hi = hi, lo
        return AlgebraicReal(p, lo, hi, _checked=True)

    def inverse(self) -> "AlgebraicReal":
        if self.sign() == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            return AlgebraicReal.from_rational(1 / self.lo)
        a = self
        while a.lo <= 0 <= a.hi:
            a = a.refine()
        q, _ = a.poly.strip_zero_roots()
        inv = q.reversed_coeffs()
        return AlgebraicReal(inv, 1 / a.hi, 1 / a.lo)


def _coerce(v) -> AlgebraicReal:
    if isinstance(v, AlgebraicReal):
        return v
    if isinstance(v, (int, Fraction)):
        return AlgebraicReal.from_rational(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as AlgebraicReal")


def _normalize(poly: RationalPoly, lo: Fraction, hi: Fraction):
    """Certify a defining (poly, interval) pair; collapse rational roots."""
    if poly.is_zero or poly.degree == 0:
        raise ValueError("defining polynomial must have positive degree")
    poly = squarefree_part(poly)
    if lo == hi:
        if poly.sign_at(lo) != 0:
            raise ValueError("point interval is not a root")
        return RationalPoly((-lo, 1)), lo, hi
    if poly.sign_at(lo) == 0:
        if count_real_roots(poly, lo, hi) != 0:
            raise ValueError("interval contains more than one root")
        return RationalPoly((-lo, 1)), lo, lo
    if poly.sign_at(hi) == 0:
        if count_real_roots(poly, lo, hi) != 1:  # (lo, hi] counts hi itself
            raise ValueError("interval contains more than one root")
        return RationalPoly((-hi, 1)), hi, hi
    n = count_real_roots(poly, lo, hi)
    if n != 1:
        raise ValueError(f"interval isolates {n} roots, expected exactly one")
    # shrink until the sign-change certificate holds (it must, for a simple root)
    while poly.sign_at(lo) == poly.sign_at(hi):
        mid = (lo + hi) / 2
        s = poly.sign_at(mid)
        if s == 0:
            return RationalPoly((-mid, 1)), mid, mid
        if count_real_roots(poly, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return poly, lo, hi


# -- isolation ----------------------------------------------------------------


def isolate_real_roots(p: RationalPoly) -> list[AlgebraicReal]:
    """All distinct real roots of p, in strictly increasing order.

    The input is squarefree-reduced internally; multiplicities are available
    through isolate_real_roots_with_multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    sf = squarefree_part(p)
    if sf.degree == 1:
        return [AlgebraicReal.from_rational(-sf[0] / sf[1])]
    bound = cauchy_root_bound(sf) + 1
    chain = sturm_chain(sf)

    def vcount(t: Fraction) -> int:
        return sign_variations(_chain_signs_at(chain, t))

    out: list[AlgebraicReal] = []
    stack = [(-bound, bound, vcount(-bound), vcount(bound))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(AlgebraicReal(sf, a, b))
            continue
        mid = (a + b) / 2
        shrink = (b - a) / 4
        while sf.sign_at(mid) == 0:
            mid += shrink
            shrink /= 2
        vm = vcount(mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out = [_try_integer_collapse(r) for r in out]
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def _try_integer_collapse(r: AlgebraicReal) -> AlgebraicReal:
    """Collapse a root to a point interval when it is an integer.

    Rational roots of monic integer polynomials are integers, so this
    catches the rational eigenvalues of adjacency and intersection matrices.
    """
    if r.is_rational:
        return r
    cur = r
    while cur.hi - cur.lo >= 1:
        cur = cur.refine()
    lo_int = -((-cur.lo) // 1)  # ceil
    if cur.lo <= lo_int <= cur.hi and cur.poly.sign_at(lo_int) == 0:
        return AlgebraicReal.from_rational(lo_int)
    return cur


def isolate_real_roots_with_multiplicity(p: RationalPoly) -> list[tuple[AlgebraicReal, int]]:
    """Distinct real roots with multiplicities, increasing order."""
    out: list[tuple[AlgebraicReal, int]] = []
    for factor, mult in squarefree_decomposition(p):
        for root in isolate_real_roots(factor):
            out.append((root, mult))
    out.sort(key=lambda t: (t[0].lo, t[0].hi))
    return out


# -- comparison ------------------------------------------------------------------


def compare_rational(a: AlgebraicReal, r: Fraction | int) -> int:
    """Exact sign of a - r."""
    r = Fraction(r)
    ra = a.as_rational()
    if ra is not None:
        return (ra > r) - (ra < r)
    if a.lo <= r <= a.hi and a.poly.sign_at(r) == 0:
        return 0
    cur = a
    while cur.lo <= r <= cur.hi:
        cur = cur.refine()
        rc = cur.as_rational()
        if rc is not None:
            return (rc > r) - (rc < r)
    return 1 if cur.lo > r else -1


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Total order on algebraic reals: -1, 0, +1.

    Ties are decided exactly through a gcd of the defining polynomials;
    this never depends on how far the intervals happen to be refined.
    """
    ra, rb = a.as_rational(), b.as_rational()
    if ra is not None and rb is not None:
        return (ra > rb) - (ra < rb)
    if rb is not None:
        return compare_rational(a, rb)
    if ra is not None:
        return -compare_rational(b, ra)

    rounds = 0
    equality_checked = False
    while True:
        # both values lie strictly inside their open intervals here
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if not equality_checked and rounds >= REFINE_BUDGET:
            equality_checked = True
            g = poly_gcd(a.poly, b.poly)
            if g.degree >= 1:
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if count_real_roots(g, lo, hi) >= 1:
                    return 0
        a = a.refine()
        b = b.refine()
        ra, rb = a.as_rational(), b.as_rational()
        if rb is not None:
            return compare_rational(a, rb)
        if ra is not None:
            return -compare_rational(b, ra)
        rounds += 1


# -- polynomial images --------------------------------------------------------


def _defining_poly_image(q: RationalPoly, p: RationalPoly) -> RationalPoly:
    """Monic polynomial vanishing on every q(a_i), a_i the roots of p.

    It is the characteristic polynomial of multiplication by q(y) on
    Q[y]/(p), whose columns are the coordinates of q(y) y^j.
    """
    c = companion(p)
    col = list((q % p).coeffs)
    col += [Fraction(0)] * (len(c) - len(col))
    cols = [col]
    for _ in range(len(c) - 1):
        col = [sum(x * v for x, v in zip(row, col)) for row in c]
        cols.append(col)
    return charpoly(cols)  # the matrix given by its columns: det(xI - M^T) = det(xI - M)


def _round_cap(p: RationalPoly, width: Fraction) -> int:
    """Rounds after which a width halved every round is below the root separation of p.

    By Mahler (1964) the distinct roots of a squarefree integer polynomial of
    degree d lie more than sqrt(3) d^(-(d+2)/2) ||p||_2^(1-d) apart, and n
    below is at least the inverse of that.  A loop that halves every interval
    it watches, enclosures of total width `width` at the start, has isolated
    its value among the roots of p by then, unless the value is no root of p.
    """
    ints = primitive_int_poly(squarefree_part(p))
    d = len(ints) - 1
    n = d ** (d // 2 + 2) * (isqrt(sum(c * c for c in ints)) + 1) ** max(d - 1, 0)
    return ceil(width * n).bit_length() + 1


def apply_rational_poly(q: RationalPoly, a: AlgebraicReal) -> AlgebraicReal:
    """The value q(a); the defining degree never exceeds that of a."""
    if q.is_zero:
        return AlgebraicReal.from_rational(0)
    r = a.as_rational()
    if r is not None:
        return AlgebraicReal.from_rational(q.evaluate(r))
    if q.degree == 0:
        return AlgebraicReal.from_rational(q[0])
    cands = _defining_poly_image(q, a.poly)
    roots = isolate_real_roots(cands)
    # interval Horner on [lo, hi] inside [-R, R] is at most (hi - lo) sum i |q_i| R^(i-1) wide
    big_r = max(abs(a.lo), abs(a.hi))
    width = (a.hi - a.lo) * sum(i * abs(c) * big_r ** (i - 1) for i, c in enumerate(q.coeffs) if i)
    width += max((r.hi - r.lo for r in roots), default=0)
    cur = a
    for _ in range(_round_cap(cands, width)):
        lo, hi = _interval_eval(q, cur.lo, cur.hi)
        hits = [r for r in roots if not (r.hi < lo or hi < r.lo)]
        if len(hits) == 1:
            return hits[0]
        cur = cur.refine()
        r = cur.as_rational()
        if r is not None:
            return AlgebraicReal.from_rational(q.evaluate(r))
        roots = [r.refine() for r in roots]
    raise AssertionError("the value is not a root of its defining polynomial")


def _interval_eval(q: RationalPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Conservative enclosure of q([lo, hi]) by interval Horner."""
    alo = ahi = Fraction(0)
    for c in reversed(q.coeffs):
        corners = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(corners) + c, max(corners) + c
    return alo, ahi


class ProductValue:
    """An exact product of algebraic factors kept in factored form.

    Used for report values whose expanded defining polynomial would be
    needlessly large; the factors are exact, the attached interval is
    refined enough for display.  Sign decisions never go through this type.
    """

    __slots__ = ("factors", "lo", "hi")

    def __init__(self, factors: Sequence[AlgebraicReal], width: Fraction = Fraction(1, 10**12)):
        fs = []
        for f in factors:
            fs.append(f if isinstance(f, AlgebraicReal) else AlgebraicReal.from_rational(f))
        lo = hi = Fraction(1)
        target = width / (len(fs) + 1)
        for i, f in enumerate(fs):
            f = f.refined_to(target)
            fs[i] = f
            corners = (lo * f.lo, lo * f.hi, hi * f.lo, hi * f.hi)
            lo, hi = min(corners), max(corners)
        object.__setattr__(self, "factors", tuple(fs))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("ProductValue is immutable")

    def approx_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:
        return f"ProductValue(~{self.approx_float():.6g}, {len(self.factors)} factors)"
