"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of Fraction coefficients, constant term first, with
no trailing zero coefficients.  The zero polynomial is the empty tuple.
This representation makes every arithmetic identity testable exactly: there
is no floating point anywhere, so equality of polynomials is equality of
coefficient tuples.

The module also provides the real-root counting machinery used everywhere
else in the package: Sturm chains, sign variation counts, and the Cauchy
root bound.  Sign evaluations run on an integer-scaled copy of the
polynomial so that repeated bisection does not pay for Fraction
normalisation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from typing import Iterable, Sequence


class RationalPoly:
    """Immutable dense polynomial with arbitrary-precision rational coefficients.

    ``_ints`` holds the primitive integer coefficients once a sign
    evaluation or gcd has needed them; it is a cache, not part of the value,
    so equality and hashing ignore it.
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("RationalPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Fraction | int) -> "RationalPoly":
        return cls((Fraction(c),))

    @classmethod
    def from_roots(cls, roots: Sequence[Fraction | int]) -> "RationalPoly":
        p = cls.one()
        for r in roots:
            p = p * cls((-Fraction(r), 1))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({self.to_str()})"

    def to_str(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPoly(out)

    def scale(self, c: Fraction | int) -> "RationalPoly":
        c = Fraction(c)
        return RationalPoly(tuple(c * a for a in self.coeffs))

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return self if lead == 1 else self.scale(1 / lead)

    def derivative(self) -> "RationalPoly":
        return RationalPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        """Exact polynomial division with remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RationalPoly(()), self
        quo = [Fraction(0)] * (dq + 1)
        div = other.coeffs
        lead = div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] / lead
            quo[k] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return RationalPoly(quo), RationalPoly(rem)

    def __floordiv__(self, other: "RationalPoly") -> "RationalPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "RationalPoly") -> "RationalPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "RationalPoly") -> "RationalPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, t: Fraction | int) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def sign_at(self, t: Fraction | int) -> int:
        """Exact sign of p(t): -1, 0, or +1.  Integer-only fast path."""
        if self.is_zero:
            return 0
        t = Fraction(t)
        ints = _int_coeffs(self)
        a, b = t.numerator, t.denominator
        # sign of sum_i c_i a^i b^(n-i) equals sign of p(a/b) since b > 0
        acc = 0
        bp = 1
        powers = []
        for _ in range(len(ints)):
            powers.append(bp)
            bp *= b
        for i in range(len(ints) - 1, -1, -1):
            acc = acc * a + ints[i] * powers[len(ints) - 1 - i]
        return (acc > 0) - (acc < 0)

    # -- transforms used by root machinery ------------------------------------

    def shift(self, r: Fraction | int) -> "RationalPoly":
        """p(x + r), by Horner in the ring Q[x]."""
        r = Fraction(r)
        if r == 0 or self.is_zero:
            return self
        # acc <- acc * (x + r) + c, from the leading coefficient down
        acc = [Fraction(0)]
        for c in reversed(self.coeffs):
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, a in enumerate(acc):
                nxt[i] += a * r
                nxt[i + 1] += a
            nxt[0] += c
            acc = nxt
        return RationalPoly(acc)

    def compose_neg(self) -> "RationalPoly":
        """p(-x)."""
        return RationalPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def scale_arg(self, r: Fraction | int) -> "RationalPoly":
        """Polynomial with roots r * (roots of p): p(x / r) cleared of denominators."""
        r = Fraction(r)
        if r == 0:
            raise ValueError("scale_arg requires nonzero r")
        out = []
        power = Fraction(1)
        for c in self.coeffs:
            out.append(c / power)
            power *= r
        return RationalPoly(out)

    def reversed_coeffs(self) -> "RationalPoly":
        """x^deg * p(1/x); roots are inverses of the nonzero roots of p."""
        if self.is_zero:
            return self
        return RationalPoly(tuple(reversed(self.coeffs)))

    def strip_zero_roots(self) -> tuple["RationalPoly", int]:
        """Factor p = x^k * q with q(0) != 0; returns (q, k)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return RationalPoly(self.coeffs[k:]), k


# -- gcd / squarefree -------------------------------------------------------


def poly_gcd(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Monic gcd over Q, computed by a primitive remainder sequence.

    Working with primitive integer polynomials and dividing out content at
    every step keeps coefficient growth polynomial; naive Euclid over Q is
    exponentially worse on the high-degree inputs the resultant layer
    produces.
    """
    if p.is_zero:
        return q.monic() if not q.is_zero else q
    if q.is_zero:
        return p.monic()
    a = list(_int_coeffs(p))
    b = list(_int_coeffs(q))
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_prem(a, b)
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = 0
        for v in r:
            g = int_gcd(g, abs(v))
        if g > 1:
            r = [v // g for v in r]
        a, b = b, r
    return RationalPoly(b).monic()


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials: rem(lc(b)^(da-db+1) * a, b)."""
    da, db = len(a) - 1, len(b) - 1
    rem = list(a)
    lead = b[-1]
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        for i in range(len(rem)):
            rem[i] *= lead
        if c != 0:
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    return rem[:db] if db > 0 else [0]


@lru_cache(maxsize=4096)
def squarefree_part(p: RationalPoly) -> RationalPoly:
    """p / gcd(p, p'), monic; same distinct roots, all simple."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RationalPoly.one()
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def squarefree_decomposition(p: RationalPoly) -> list[tuple[RationalPoly, int]]:
    """Yun's algorithm: monic factors (g_i, i) with p ~ prod g_i^i, g_i squarefree."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[RationalPoly, int]] = []
    i = 1
    while b.degree >= 1:
        g = poly_gcd(b, d)
        if g.degree >= 1:
            out.append((g, i))
        b = b.exact_div(g)
        c = d.exact_div(g)
        d = c - b.derivative()
        i += 1
    return out


# -- Sturm machinery ---------------------------------------------------------


@lru_cache(maxsize=4096)
def sturm_chain(p: RationalPoly) -> tuple[RationalPoly, ...]:
    """Canonical Sturm sequence p, p', -rem(...), ...

    For nonzero p the sign-variation difference V(a) - V(b) counts the
    distinct real roots in the half-open interval (a, b].
    """
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p]
    if p.degree >= 1:
        chain.append(p.derivative())
        while chain[-1].degree >= 1:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r)
    return tuple(chain)


def sign_variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _chain_signs_at(chain: Sequence[RationalPoly], t: Fraction) -> list[int]:
    return [q.sign_at(t) for q in chain]


def _chain_signs_at_inf(chain: Sequence[RationalPoly], positive: bool) -> list[int]:
    out = []
    for q in chain:
        if q.is_zero:
            out.append(0)
        else:
            s = 1 if q.leading > 0 else -1
            if not positive and q.degree % 2 == 1:
                s = -s
            out.append(s)
    return out


def count_real_roots(
    p: RationalPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """Number of distinct real roots of p in (lo, hi]; None means +-infinity.

    Endpoints must not be roots of p when finite (callers arrange this).
    """
    chain = sturm_chain(squarefree_part(p))
    va = (
        sign_variations(_chain_signs_at_inf(chain, positive=False))
        if lo is None
        else sign_variations(_chain_signs_at(chain, Fraction(lo)))
    )
    vb = (
        sign_variations(_chain_signs_at_inf(chain, positive=True))
        if hi is None
        else sign_variations(_chain_signs_at(chain, Fraction(hi)))
    )
    return va - vb


def cauchy_root_bound(p: RationalPoly) -> Fraction:
    """All real roots of p lie in [-M, M] with M = 1 + max|c_i| / |c_lead|."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1])
    return 1 + m / lead


# -- integer scaling ---------------------------------------------------------


def _int_coeffs(p: RationalPoly) -> tuple[int, ...]:
    """Primitive integer coefficient vector with the same sign as p."""
    if p._ints is not None:
        return p._ints
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    object.__setattr__(p, "_ints", tuple(ints))
    return p._ints


def primitive_int_poly(p: RationalPoly) -> tuple[int, ...]:
    return _int_coeffs(p)
