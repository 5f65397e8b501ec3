"""Exact real algebraic numbers.

An AlgebraicReal is a squarefree rational polynomial together with a rational
isolating interval [lo, hi] certified to contain exactly one real root of
the polynomial.  A rational value is stored with lo == hi.  For irrational
values the construction arranges sign(p(lo)) != sign(p(hi)), so refinement
is plain bisection with power-of-two denominators.

Real roots are isolated in one place: ``isolate_real_roots``, the one
root isolator and the one consumer of Sturm chains.  It runs one
subdivision loop with two sign sources: the Sturm chain of the squarefree
part, or a counter the caller passes in, which reads another Sturm
sequence of the polynomial.  ``tridiagonal.spectrum`` passes the integer
three-term recurrence F_0, ..., F_D, so a spectrum builds no chain and no
squarefree part.  Any other count is of the isolated roots inside an
interval (``roots_in``): the unchecked constructor certifies its interval
that way, and ``numberfield.adjoin_root`` isolates its primitive element
that way.  ``tridiagonal.interlacing_check`` counts no roots: it reads
Cauchy indices off signed remainder sequences.

Every loop in the package that refines until intervals separate gives up
by one rule, ``round_limit``: REFINE_BUDGET free rounds, then a Mahler
round cap (``_round_cap``) computed once, then an AssertionError.
compare_rational, inverse and roots_in share one such loop,
``_Bisection.separate``.  Isolation's integer collapse, which stops below
width 1, and refined_to, which knows its depth, need no cap.

Every bisection runs in one integer kernel, ``_Bisection``.  It scales the
primitive integer polynomial c once to the common denominator D of the
endpoints (q_i = c_i D^(n-i)) and holds the interval as [l, h] / (D 2^k)
with integers l and h.  The sign of p at m / (D 2^k) is then the sign of one
integer Horner pass, acc = acc m + (q_i << k(n-i)), and halving is l + h
over D 2^(k+1): exactly the rational midpoint (lo + hi) / 2, so every
interval is the one a Fraction bisection would reach.  Fractions are built
only for the interval a caller gets back.  refine, refined_to, compare and
separate all drive the kernel; refined_to returns a value that is already
narrow enough before it builds one.
Its Horner pass, ``_dyadic_value``, also runs isolation's chain signs:
every point that subdivision visits is B m / 2^k for the root bound
B = u / v, so each chain member is scaled once to v^n q(u y / v) and
evaluated at y = m / 2^k in integers.  A caller's counter gets the same
point as the integers u m and v 2^k.

refined_to knows in advance the depth at which bisection would stop, and
reaches it, at any depth, by quadratic interval refinement (Abbott 2006) on
bisection's own grid: secant jumps of j levels with j doubling, each
accepted only on the grid cell whose ends the exact signs show to hold the
root.  That cell is bisection's interval, so the result is the same, at
about two evaluations per jump instead of one per level.

Each value carries the sign of its polynomial at lo, outside equality and
computed lazily when unknown, so a bisection step costs one sign
evaluation.  Isolation takes it from the signs it has computed,
bisection keeps it, and add_rational and mul_rational carry it over.

The type is a root representation: it isolates, refines and compares, and
its only arithmetic is with rationals (add_rational, mul_rational) and the
inverse.  Arithmetic between two irrational values belongs to
``numberfield``.  Every comparison is decided exactly: intervals are refined
until they separate, and suspected ties are settled by a gcd of the defining
polynomials, never by a tolerance.  apply_rational_poly maps a value
through a rational polynomial; its defining polynomial is the characteristic
polynomial (``linalg.charpoly``) of multiplication by q(y) on Q[y]/(p),
squarefree but not necessarily minimal, which the representation allows.
A ProductValue keeps a product of shifted roots in factored form, with
the polynomial and shift that ``tridiagonal.compare_shifted_product``
needs to decide it.  Every reported value is refined to REPORT_WIDTH.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import ceil, isqrt, lcm
from typing import Callable, Sequence

from .linalg import charpoly, companion
from .polynomials import (
    RationalPoly,
    _int_coeffs,
    cauchy_root_bound,
    poly_gcd,
    sign_variations,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
)

# free refinement rounds of every loop (round_limit), after which compare and
# compare_shifted_product turn to exact algebra; it affects speed, not answers
REFINE_BUDGET = 64
# the width every value is refined to for a report: its interval and its approximation
REPORT_WIDTH = Fraction(1, 10**12)


class AlgebraicReal:
    """A real root of a squarefree rational polynomial, pinned by an interval.

    ``_sign_lo`` is the sign of poly at lo once known (None until then); it
    is a cache, not part of the value.
    """

    __slots__ = ("poly", "lo", "hi", "_sign_lo")

    def __init__(self, poly: RationalPoly, lo, hi, _checked: bool = False, _sign_lo: int | None = None):
        """A checked caller passes ordered Fractions that it has certified; anything else is certified here."""
        if not _checked:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise ValueError("interval endpoints out of order")
            poly, lo, hi, _sign_lo = _normalize(poly, lo, hi)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_sign_lo", _sign_lo)

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

    # -- refinement -------------------------------------------------------------

    def refine(self) -> "AlgebraicReal":
        """One bisection step; collapses to a rational point on an exact hit."""
        if self.lo == self.hi:
            return self
        b = _Bisection(self)
        b.step()
        return b.result()

    def refined_to(self, width: Fraction) -> "AlgebraicReal":
        """The interval bisection reaches once it is at most width wide; width > 0 unless self is a point.

        ``_Bisection.descend`` reaches it at every depth, exact hits included.
        """
        if self.lo == self.hi:
            return self
        width = Fraction(width)
        if self.hi - self.lo <= width:  # depth 0: nothing to bisect
            return self
        if width <= 0:
            raise ValueError("refinement width must be positive")
        b = _Bisection(self)
        # the least depth K with (hi - lo) / 2^K <= width, scaled by D and width's denominator
        a, c = (b.h - b.l) * width.denominator, width.numerator * b.den
        b.descend((-(-a // c) - 1).bit_length())
        return b.result()

    # -- equality ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Fraction, int)):
            other = AlgebraicReal.from_rational(other)
        elif not isinstance(other, AlgebraicReal):
            return NotImplemented
        return compare(self, other) == 0

    __hash__ = None  # equality is semantic, not structural

    # -- arithmetic ------------------------------------------------------------------

    def add_rational(self, r: Fraction | int) -> "AlgebraicReal":
        r = Fraction(r)
        if r == 0:
            return self
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo + r)
        # p(x - r) at lo + r is p(lo)
        return AlgebraicReal(self.poly.shift(-r), self.lo + r, self.hi + r, True, self._sign_lo)

    def mul_rational(self, r: Fraction | int) -> "AlgebraicReal":
        r = Fraction(r)
        if r == 0:
            return AlgebraicReal.from_rational(0)
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo * r)
        # p(x / r) at lo r is p(lo); for r < 0 the new lo is hi r, and p(hi) = -p(lo) in sign
        p = self.poly.scale_arg(r)
        lo, hi, sign_lo = self.lo * r, self.hi * r, self._sign_lo
        if r < 0:
            lo, hi = hi, lo
            sign_lo = None if sign_lo is None else -sign_lo
        return AlgebraicReal(p, lo, hi, True, sign_lo)

    def inverse(self) -> "AlgebraicReal":
        """1 / self, once bisection has moved 0 out of the interval (``_Bisection.separate``)."""
        b = _Bisection(self)
        if b.separate(Fraction(0), "inverse refined past its round cap") == 0:
            raise ZeroDivisionError("inverse of zero")
        a = b.result() if b.k else self
        if a.is_rational:  # a point, or an exact hit
            return AlgebraicReal.from_rational(1 / a.lo)
        # q is squarefree with q(0) != 0, so its reversal is squarefree too
        q, _ = a.poly.strip_zero_roots()
        return AlgebraicReal(q.reversed_coeffs().monic(), 1 / a.hi, 1 / a.lo, True)


class _Bisection:
    """The integer bisection kernel: the interval of a as [l, h] / (den 2^k).

    den is a common denominator of a's endpoints (and of whatever else the
    caller compares against); rq holds the primitive integer coefficients c
    of a.poly scaled to it, q_i = c_i den^(n-i), leading coefficient first.
    sign_lo is the sign of the polynomial at the current lo, which a step
    keeps.  h - l is the same at every depth: step halves the interval and
    descend cuts it into 2^j cells, so the depth-k intervals are the cells
    of one grid.
    """

    __slots__ = ("poly", "rq", "den", "l", "h", "k", "sign_lo")

    def __init__(self, a: AlgebraicReal, den: int = 1):
        den = lcm(den, a.lo.denominator, a.hi.denominator)
        ints = _int_coeffs(a.poly)
        rq = [ints[-1]]  # q_i = c_i den^(n-i), from i = n down
        power = 1
        for c in reversed(ints[:-1]):
            power *= den
            rq.append(c * power)
        self.poly = a.poly
        self.rq = rq
        self.den = den
        self.l = a.lo.numerator * (den // a.lo.denominator)
        self.h = a.hi.numerator * (den // a.hi.denominator)
        self.k = 0
        self.sign_lo = a._sign_lo if a._sign_lo is not None else self.sign(self.l)

    def sign(self, m: int) -> int:
        """Sign of the polynomial at m / (den 2^k)."""
        return _dyadic_sign(self.rq, m, self.k)

    def step(self) -> bool:
        """Halve the interval; False on an exact hit, which leaves l == h at the root."""
        m = self.l + self.h
        self.k += 1
        s = self.sign(m)
        if s == 0:
            self.l = self.h = m
            self.sign_lo = 0
            return False
        if s == self.sign_lo:
            self.l = m
            self.h <<= 1
        else:
            self.l <<= 1
            self.h = m
        return True

    def separate(self, r: Fraction, message: str) -> int:
        """Sign of the root minus r (den a multiple of r's denominator), bisecting from depth 0 until r leaves [l, h].

        An exact hit leaves l == h at a root that r is not, which ends the
        loop too.  The root and r are distinct roots of poly (x - r), so r
        leaves within that polynomial's round cap.
        """
        t = r.numerator * (self.den // r.denominator)  # r scaled like l and h
        if self.l <= t <= self.h and self.sign(t) == 0:
            return 0
        w = self.h - self.l
        limit = round_limit(message, lambda: (self.poly * RationalPoly((-r, 1)), Fraction(w, self.den)))
        while self.l <= t <= self.h:
            limit(self.k)
            self.step()
            t <<= 1
        return 1 if self.l > t else -1

    def value(self, m: int, k: int) -> int:
        """The polynomial at m / (den 2^k), times (den 2^k)^n."""
        return _dyadic_value(self.rq, m, k)

    def descend(self, depth: int) -> None:
        """Move to bisection's interval at depth.

        Quadratic interval refinement (Abbott 2006) on bisection's own grid.
        From [l, h] at depth k, the secant through the values at l and h
        picks the nearest point of the depth-(k + j) grid, which cuts [l, h]
        into 2^j cells, and then its neighbour on the root's side.  The jump
        lands when the signs at the two differ: that cell holds the one root
        in [l, h], so it is bisection's interval at depth k + j.  A zero at
        either point is the root, and collapses the interval as a step does.
        j doubles after a landing and halves after a miss; at j = 1 the jump
        is a bisection step, which always lands.
        """
        vl, vh = self.value(self.l, self.k), self.value(self.h, self.k)
        j = 2
        while self.k < depth:
            j = min(j, depth - self.k)
            # the grid point nearest the secant root, as an index 0..2^j from l
            g = 1 if j == 1 else ((vl << (j + 1)) + vl - vh) // ((vl - vh) << 1)
            vg = self._grid_value(g, j, vl, vh)
            if vg == 0:
                return self._move(g, g, j)
            i = g + 1 if (vg > 0) == (vl > 0) else g - 1
            vi = self._grid_value(i, j, vl, vh)
            if vi == 0:
                return self._move(i, i, j)
            if (vi > 0) == (vg > 0):
                j >>= 1
                continue
            vl, vh = (vg, vi) if g < i else (vi, vg)
            self._move(min(g, i), max(g, i), j)
            j <<= 1

    def _grid_value(self, i: int, j: int, vl: int, vh: int) -> int:
        """The value at grid point i of 0..2^j from l to h, at depth k + j.

        vl and vh are the values at l and h at depth k; the ends reuse them.
        """
        if i == 0:
            return vl << ((len(self.rq) - 1) * j)
        if i == 1 << j:
            return vh << ((len(self.rq) - 1) * j)
        return self.value((self.l << j) + i * (self.h - self.l), self.k + j)

    def _move(self, lo: int, hi: int, j: int) -> None:
        """Make [l, h] the grid points lo..hi of 0..2^j from l to h, at depth k + j; lo == hi is a root."""
        base, w = self.l << j, self.h - self.l
        self.l, self.h = base + lo * w, base + hi * w
        self.k += j
        if lo == hi:
            self.sign_lo = 0

    def result(self) -> AlgebraicReal:
        d = self.den << self.k
        lo = Fraction(self.l, d)
        hi = lo if self.h == self.l else Fraction(self.h, d)
        return AlgebraicReal(self.poly, lo, hi, True, self.sign_lo)


def _dyadic_value(rq: Sequence[int], m: int, k: int) -> int:
    """The integer polynomial rq, leading coefficient first, at m / 2^k, times 2^(kn).

    One Horner pass on sum_i q_i m^i 2^(k(n-i)).
    """
    acc = 0
    shift = 0
    for c in rq:
        acc = acc * m + (c << shift)
        shift += k
    return acc


def _dyadic_sign(rq: Sequence[int], m: int, k: int) -> int:
    """Sign at m / 2^k of the integer polynomial rq, leading coefficient first."""
    v = _dyadic_value(rq, m, k)
    return (v > 0) - (v < 0)


def _normalize(poly: RationalPoly, lo: Fraction, hi: Fraction):
    """Certify a defining (poly, interval) pair; collapse rational roots.

    Returns the squarefree polynomial, the interval and the sign at lo.
    """
    if poly.is_zero or poly.degree == 0:
        raise ValueError("defining polynomial must have positive degree")
    poly = squarefree_part(poly)
    if lo == hi:
        if poly.sign_at(lo) != 0:
            raise ValueError("point interval is not a root")
        return RationalPoly((-lo, 1)), lo, hi, 0
    n = len(roots_in(isolate_real_roots(poly), lo, hi))
    for end in (lo, hi):
        if poly.sign_at(end) == 0:
            if n != 1:
                raise ValueError("interval contains more than one root")
            return RationalPoly((-end, 1)), end, end, 0
    if n != 1:
        raise ValueError(f"interval isolates {n} roots, expected exactly one")
    # a simple root strictly inside, neither endpoint a root: p changes sign
    return poly, lo, hi, poly.sign_at(lo)


# -- isolation ----------------------------------------------------------------


def isolate_real_roots(p: RationalPoly, count=None) -> list[AlgebraicReal]:
    """All distinct real roots of p, in strictly increasing order.

    Without count the input is squarefree-reduced internally and the signs
    come from its Sturm chain; multiplicities are available through
    isolate_real_roots_with_multiplicity.  A caller that knows another
    Sturm sequence of p passes count(n, q), which returns the sign
    variations of that sequence at n / q (q > 0) and the sign of p there:
    p is then taken as it is, and must be squarefree for the intervals to
    pin simple roots.  Both sources drive the same subdivision.

    Each isolating interval is then halved, on the sign of p from the same
    source, until it is narrower than 1, and a root that is an integer
    becomes that point: the interval every halving reaches is the one
    refine would reach, and no bisection kernel is built for it.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    sf = squarefree_part(p) if count is None else p
    if sf.degree == 1:
        return [AlgebraicReal.from_rational(-sf[0] / sf[1])]
    bound = cauchy_root_bound(sf) + 1
    u, v = bound.numerator, bound.denominator
    rchain = _scaled_chain(sturm_chain(sf), u, v) if count is None else None
    limit = round_limit("root isolation subdivided past its round cap", lambda: (sf, 2 * bound))
    # a split without a nudge halves its interval, and one narrower than the root separation
    # is never split; each of the at most deg(sf) nudges (one per root hit) adds one level and
    # may leave one split unhalved, so a point at level k splits one halved k - slack times
    slack = 2 * sf.degree + 1

    def signs(m: int, k: int) -> tuple[int, int]:
        """Sign variations of the sequence at bound m / 2^k, and the sign of sf there."""
        limit(k - slack)
        if count is not None:
            return count(u * m, v << k)
        s = _chain_signs(rchain, m, k)
        return sign_variations(s), s[0]

    def collapsed(l: int, h: int, k: int, sign_lo: int) -> AlgebraicReal:
        """The root in [l, h] / 2^k (units of bound), halved to width below 1, as a point when it is an integer.

        Rational roots of monic integer polynomials are integers, so this
        catches the rational eigenvalues of adjacency and intersection
        matrices.  Each halving is a bisection step on the sign of sf alone,
        so the interval is the one refine would reach; it stops below width
        1, so it needs no cap.
        """
        while u * (h - l) >= v << k:  # hi - lo >= 1
            m, k = l + h, k + 1
            s = count(u * m, v << k)[1] if count is not None else _dyadic_sign(rchain[0], m, k)
            if s == 0:
                l = h = m
                sign_lo = 0
            elif s == sign_lo:
                l, h = m, h << 1
            else:
                l, h = l << 1, m
        d = v << k
        lo, hi = Fraction(u * l, d), Fraction(u * h, d)
        n = ceil(lo)
        if n <= hi and sf.sign_at(n) == 0:
            return AlgebraicReal.from_rational(n)
        return AlgebraicReal(sf, lo, hi, True, sign_lo)

    out: list[AlgebraicReal] = []
    # the interval [l, h] / 2^k in units of bound; every root lies in (-1, 1)
    stack = [(-1, 1, 0, *signs(-1, 0), *signs(1, 0))]
    while stack:
        l, h, k, va, sa, vb, sb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            # one simple root in (a, b) and neither endpoint a root: sf changes sign
            if sa * sb >= 0:
                raise AssertionError("an isolating interval without a sign change")
            out.append(collapsed(l, h, k, sa))
            continue
        # the midpoint, moved off a root by (h - l) / 2^(k+2), then half that, ...
        mid, j = l + h, k + 1
        vm, sm = signs(mid, j)
        while sm == 0:
            mid = (mid << 1) + h - l
            j += 1
            vm, sm = signs(mid, j)
        stack.append((l << (j - k), mid, j, va, sa, vm, sm))
        stack.append((mid, h << (j - k), j, vm, sm, vb, sb))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def roots_in(roots: list[AlgebraicReal], lo: Fraction, hi: Fraction) -> list[AlgebraicReal]:
    """Those of the isolated roots of one polynomial that lie in [lo, hi].

    Each root is refined first, in place in ``roots``, until neither lo nor
    hi lies strictly inside its interval (``_Bisection.separate``); a root
    equal to one of them becomes that point.  Its interval then lies in
    [lo, hi] or outside (lo, hi), with the root strictly inside unless it
    is a point, so the root is in [lo, hi] exactly when its interval is.
    """
    for i, r in enumerate(roots):
        for t in (lo, hi):
            if r.lo < t < r.hi:
                b = _Bisection(r, t.denominator)
                hit = b.separate(t, "rational comparison refined past its round cap") == 0
                r = AlgebraicReal.from_rational(t) if hit else b.result()
        roots[i] = r
    return [r for r in roots if lo <= r.lo and r.hi <= hi]


def _scaled_chain(chain: Sequence[RationalPoly], u: int, v: int) -> list[list[int]]:
    """Each member q as the integer coefficients of v^n q(u y / v), leading first.

    With u, v > 0 these are positive multiples of q(u y / v), so their signs
    at y = m / 2^k are those of q at (u / v) m / 2^k.
    """
    top = max(q.degree for q in chain)
    pu, pv = [1], [1]
    for _ in range(top):
        pu.append(pu[-1] * u)
        pv.append(pv[-1] * v)
    out = []
    for q in chain:
        ints = _int_coeffs(q)
        n = len(ints) - 1
        out.append([ints[i] * pu[i] * pv[n - i] for i in range(n, -1, -1)])
    return out


def _chain_signs(rchain: Sequence[Sequence[int]], m: int, k: int) -> list[int]:
    return [_dyadic_sign(rq, m, k) for rq in rchain]


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
    """Exact sign of a - r, by bisecting until r leaves the interval (``_Bisection.separate``)."""
    r = Fraction(r)
    ra = a.as_rational()
    if ra is not None:
        return (ra > r) - (ra < r)
    return _Bisection(a, r.denominator).separate(r, "rational comparison refined past its round cap")


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Total order on algebraic reals: -1, 0, +1.

    Ties are decided exactly through a gcd of the defining polynomials;
    this never depends on how far the intervals happen to be refined.  The
    gcd g divides a.poly, whose interval holds one root, so g has at most
    one root on the common interval, and neither end of that interval (an
    end of a's or of b's, so no root of g) is one: g has a root there, the
    common value, exactly when it changes sign.  Distinct values are
    distinct roots of a.poly * b.poly, so they separate within its round
    cap (``round_limit``).
    """
    ra, rb = a.as_rational(), b.as_rational()
    if ra is not None and rb is not None:
        return (ra > rb) - (ra < rb)
    if rb is not None:
        return compare_rational(a, rb)
    if ra is not None:
        return -compare_rational(b, ra)

    # one denominator for both, so the two intervals compare as integers
    x = _Bisection(a, lcm(b.lo.denominator, b.hi.denominator))
    y = _Bisection(b, x.den)
    limit = round_limit(
        "comparison refined past its round cap", lambda: (a.poly * b.poly, (a.hi - a.lo) + (b.hi - b.lo))
    )
    while True:
        # both values lie strictly inside their open intervals here
        if x.h <= y.l:
            return -1
        if y.h <= x.l:
            return 1
        if x.k == REFINE_BUDGET:  # x.k, y.k: the rounds so far
            g = poly_gcd(a.poly, b.poly)
            if g.degree >= 1:
                scale = x.den << x.k
                lo, hi = Fraction(max(x.l, y.l), scale), Fraction(min(x.h, y.h), scale)
                if g.sign_at(lo) != g.sign_at(hi):
                    return 0
        limit(x.k)
        x_open, y_open = x.step(), y.step()
        if not y_open:
            return compare_rational(x.result(), y.result().lo)
        if not x_open:
            return -compare_rational(y.result(), x.result().lo)


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


def round_limit(message: str, bound: Callable[[], tuple[RationalPoly, Fraction]]) -> Callable[[int], None]:
    """The give-up check of a refinement loop, called with its rounds so far before each refinement.

    Rounds below REFINE_BUDGET are free.  Past them, bound() gives once a
    polynomial with the loop's target among its roots and a width W bounding
    the loop's enclosures by W / 2^k after k rounds; the round that reaches
    their _round_cap raises AssertionError(message).  The cap is at least one
    round more than the first round past the budget, so bound() may build what
    the loop tests next.
    """
    cap = None

    def limit(rounds: int) -> None:
        nonlocal cap
        if rounds >= REFINE_BUDGET:  # read at call time, so tests may lower it
            if cap is None:
                cap = max(_round_cap(*bound()), rounds + 1)
            if rounds >= cap:
                raise AssertionError(message)

    return limit


def _round_cap(p: RationalPoly, width: Fraction) -> int:
    """Rounds after which a width halved every round is below the root separation of p.

    By Mahler (1964) the distinct roots of a squarefree integer polynomial of
    degree d lie more than sqrt(3) d^(-(d+2)/2) ||p||_2^(1-d) apart, and n
    below is at least the inverse of that.  A loop that halves every interval
    it watches, enclosures of total width `width` at the start, has isolated
    its value among the roots of p by then, unless the value is no root of p.
    """
    ints = _int_coeffs(squarefree_part(p))
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
    limit = round_limit("the value is not a root of its defining polynomial", lambda: (cands, width))
    cur = a
    for rounds in count():
        lo, hi = _interval_eval(q, cur.lo, cur.hi)
        hits = [r for r in roots if not (r.hi < lo or hi < r.lo)]
        if len(hits) == 1:
            return hits[0]
        limit(rounds)
        cur = cur.refine()
        r = cur.as_rational()
        if r is not None:
            return AlgebraicReal.from_rational(q.evaluate(r))
        roots = [r.refine() for r in roots]


def _interval_eval(q: RationalPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Conservative enclosure of q([lo, hi]) by interval Horner."""
    alo = ahi = Fraction(0)
    for c in reversed(q.coeffs):
        corners = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(corners) + c, max(corners) + c
    return alo, ahi


def product_enclosure(factors: Sequence[AlgebraicReal]) -> tuple[Fraction, Fraction]:
    """[lo, hi] holding the product of the factors: the extreme corners, one factor at a time."""
    lo = hi = Fraction(1)
    for f in factors:
        corners = (lo * f.lo, lo * f.hi, hi * f.lo, hi * f.hi)
        lo, hi = min(corners), max(corners)
    return lo, hi


class ProductValue:
    """prod_i (root_i + shift) over distinct roots of one squarefree polynomial, kept in factored form.

    Used for report values whose expanded defining polynomial would be
    needlessly large.  The factors are exact, and [lo, hi] encloses the
    product once each is refined to REPORT_WIDTH over the number of factors
    plus one, for display.  poly and shift are what the factors were built
    from (``tridiagonal.shifted_subset_product``), so the value carries all
    that ``tridiagonal.compare_shifted_product`` needs to decide a sign.
    """

    __slots__ = ("factors", "poly", "shift", "lo", "hi")

    def __init__(self, factors: Sequence[AlgebraicReal], poly: RationalPoly, shift: Fraction):
        target = REPORT_WIDTH / (len(factors) + 1)
        fs = tuple(f.refined_to(target) for f in factors)
        lo, hi = product_enclosure(fs)
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("ProductValue is immutable")

    def approx_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:
        return f"ProductValue(~{self.approx_float():.6g}, {len(self.factors)} factors)"
