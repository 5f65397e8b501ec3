"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of Fraction coefficients, constant term first, with
no trailing zero coefficients.  The zero polynomial is the empty tuple.
This representation makes every arithmetic identity testable exactly: there
is no floating point anywhere, so equality of polynomials is equality of
coefficient tuples.

The module also provides what root isolation needs: Sturm chains, sign
variation counts and the Cauchy root bound.  ``_remainders`` is the one
remainder-sequence loop, over integer vectors: ``signed_remainder_sequence``
makes polynomials of its members, whose sign variations give Cauchy
indices, and ``poly_gcd`` keeps only its last member.  A Sturm chain is
one case of ``signed_remainder_sequence``.  ``algebraics.isolate_real_roots``
is the one consumer of Sturm chains, and one of its two sign sources; the other
is a caller's Sturm sequence, such as the three-term recurrence of a
tridiagonal spectrum, whose F_i ``_scaled_int_poly`` builds from integers.
Isolation's round cap, which costs a squarefree part, is computed only on
deep subdivisions.  Every real-root count in the package counts
the roots it isolates.  ``tridiagonal.interlacing_check`` reads Cauchy
indices off the sequences of consecutive F_i.  Gcds, exact division,
remainder sequences, sign evaluations and Taylor shifts run on the
primitive integer coefficients, so they pay for no Fraction normalisation;
root isolation and interval bisection have their own integer kernel in
``algebraics``.
``irreducible_factors`` factors over Q by Zassenhaus' algorithm, in Python
ints.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd as int_gcd
from math import isqrt
from typing import Iterable, Iterator, Sequence


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

    def __mod__(self, other: "RationalPoly") -> "RationalPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "RationalPoly") -> "RationalPoly":
        """self / other, by integer division of the primitive parts.

        With self = s A and other = t B, A and B primitive, the quotient is
        (s / t) (A / B), and A / B is integral by Gauss' lemma.  Neither
        operand keeps the integer vectors it lends.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        a = self._ints or _primitive(self.coeffs)
        b = other._ints or _primitive(other.coeffs)
        q = _exact_quotient(a, b)
        if q is None:
            raise ValueError("division is not exact")
        f = self.coeffs[-1] * b[-1] / (other.coeffs[-1] * a[-1])
        return RationalPoly(tuple(Fraction(f.numerator * c, f.denominator) for c in q))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, t: Fraction | int) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def sign_at(self, t: Fraction | int) -> int:
        """Exact sign of p(t): -1, 0, or +1, by integer Horner.

        For t = a/b in lowest terms, b > 0, the sign of p(t) is that of
        sum_i c_i a^i b^(n-i) over the primitive integer coefficients c.
        """
        a, b = t.numerator, t.denominator
        acc = 0
        bp = 1
        for c in reversed(_int_coeffs(self)):  # empty for the zero polynomial
            acc = acc * a + c * bp
            bp *= b
        return (acc > 0) - (acc < 0)

    # -- transforms used by root machinery ------------------------------------

    def shift(self, r: Fraction | int) -> "RationalPoly":
        """p(x + r), by a Taylor shift of the primitive integer coefficients.

        With p = s * P, P primitive of degree n and r = u/v: the integer
        polynomial P_v(x) = v^n P(x/v) shifted by u is T(z) = P_v(z + u),
        and T(v x) = v^n P(x + r), so coefficient j of p(x + r) is
        s t_j v^j / v^n.
        """
        r = Fraction(r)
        if r == 0 or self.is_zero:
            return self
        ints = _int_coeffs(self)
        n = len(ints) - 1
        u, v = r.numerator, r.denominator
        t = list(ints)
        vn = 1
        for i in range(n - 1, -1, -1):  # P_v: t_i = c_i v^(n-i)
            vn *= v
            t[i] *= vn
        for i in range(n):  # Horner: t <- t(z + u), one power of (z + u) per pass
            for j in range(n - 1, i - 1, -1):
                t[j] += u * t[j + 1]
        s = self.coeffs[-1] / ints[-1]
        out = []
        vj = 1
        for tj in t:
            out.append(Fraction(s.numerator * tj * vj, s.denominator * vn))
            vj *= v
        return RationalPoly(out)

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
    """Monic gcd over Q: the last member of the primitive remainder sequence (``_remainders``), made monic.

    Working with primitive integer polynomials and dividing out content at
    every step keeps coefficient growth polynomial; naive Euclid over Q is
    exponentially worse on the high-degree inputs the resultant layer
    produces.  Only the last member becomes a polynomial.
    """
    if p.is_zero:
        return q.monic() if not q.is_zero else q
    if q.is_zero:
        return p.monic()
    b = _int_coeffs(q)
    for b in _remainders(_int_coeffs(p), b):
        pass
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


# -- factoring over Z ---------------------------------------------------------
#
# Zassenhaus' algorithm (von zur Gathen and Gerhard, Modern Computer Algebra,
# ch. 14-15; Cohen, A Course in Computational Algebraic Number Theory, 3.5):
# factor modulo a prime p that keeps the polynomial squarefree and of full
# degree, lift the modular factors p-adically past twice the Landau-Mignotte
# bound, and find the true factors among the products of subsets of the
# lifted ones by trial division.  Polynomials are int lists, constant term
# first; one reduced modulo m has entries in [0, m) and no trailing zeros.

# recombination is exponential in the number of modular factors, which
# depends on p: the fewest over this many good primes is kept
_PRIME_TRIALS = 5


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim([v % m for v in out])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-v for v in b], m)


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % m for v in out])


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r mod m and deg r < deg b; lc(b) must be a unit mod m."""
    db = len(b) - 1
    rem = list(a)
    if len(rem) <= db:
        return [], _trim([v % m for v in rem])
    inv = pow(b[-1], -1, m)
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] % m * inv % m
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    return _trim(quo), _trim([v % m for v in rem[:db]])


def _monic_mod(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [v * inv % m for v in a]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime p; [] when both are zero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _xgcd_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 modulo the prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    if len(r0) != 1:
        raise AssertionError("factors modulo a good prime must be coprime")
    inv = pow(r0[0], -1, p)
    return [v * inv % p for v in s0], [v * inv % p for v in t0]


def _pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f and the prime p."""
    out, base = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, k): g the product of the degree-k monic irreducible factors of f mod p.

    f is monic and squarefree modulo p; g = gcd(x^(p^k) - x, f) once the
    factors of lower degree are divided out (vzGG Alg. 14.3).
    """
    out = []
    rest, h, k = f, [0, 1], 0
    while len(rest) - 1 >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(rest, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, k))
            rest = _divmod_mod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree(g: list[int], k: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic factors of g mod the odd prime p, all irreducible of degree k.

    Cantor-Zassenhaus (vzGG Alg. 14.8): for random a, gcd(a^((p^k-1)/2) - 1, g)
    holds each factor with probability about 1/2.
    """
    n = len(g) - 1
    if n == k:
        return [g]
    e = (p**k - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        d = _gcd_mod(g, _sub_mod(_pow_mod(a, e, g, p), [1], p), p)
        if 1 < len(d) < len(g):
            return _equal_degree(d, k, p, rng) + _equal_degree(_divmod_mod(g, d, p)[0], k, p, rng)


def _good_primes(f: list[int]) -> Iterator[int]:
    """The odd primes that divide neither lc(f) nor the discriminant, increasing."""
    df = [i * c for i, c in enumerate(f)][1:]
    p = 1
    while True:
        p += 2
        if f[-1] % p == 0 or any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        fp = _trim([c % p for c in f])
        if len(_gcd_mod(fp, _trim([c % p for c in df]), p)) == 1:
            yield p


def _lift_pair(f: list[int], g: list[int], h: list[int], p: int, m_final: int) -> tuple[list[int], list[int]]:
    """Lift f = g h mod p, h monic and coprime to g, to f = g h mod m_final = p^(2^j).

    Quadratic Hensel steps (vzGG Alg. 15.10) lift the Bezout pair s g + t h = 1
    along with the factors; f must be known modulo m_final.
    """
    s, t = _xgcd_mod(g, h, p)
    m = p
    while m < m_final:
        m *= m
        e = _sub_mod(f, _mul_mod(g, h, m), m)
        q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
        g = _add_mod(g, _add_mod(_mul_mod(t, e, m), _mul_mod(q, g, m), m), m)
        h = _add_mod(h, r, m)
        b = _sub_mod(_add_mod(_mul_mod(s, g, m), _mul_mod(t, h, m), m), [1], m)
        c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
        s = _sub_mod(s, d, m)
        t = _sub_mod(t, _add_mod(_mul_mod(t, b, m), _mul_mod(c, g, m), m), m)
    return g, h


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, bound: int) -> tuple[list[list[int]], int]:
    """Monic lifts of the monic factors of f mod p, and their modulus M > 2 bound.

    f = lc(f) * prod(factors) mod p, the factors pairwise coprime.  Each
    factor is split off the rest by a two-factor lift to M = p^(2^j), the
    first such power above 2 bound.
    """
    m = p
    while m <= 2 * bound:
        m *= m
    lifted = []
    rest = [c % m for c in f]
    for u in factors[:-1]:
        g0 = _divmod_mod([c % p for c in rest], u, p)[0]
        rest, h = _lift_pair(rest, g0, u, p, m)
        lifted.append(h)
    lifted.append(_monic_mod(rest, m))
    return lifted, m


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x] for primitive g, or None when g does not divide f."""
    dg = len(g) - 1
    rem = list(f)
    if len(rem) <= dg:
        return None
    quo = [0] * (len(rem) - dg)
    for k in range(len(rem) - 1 - dg, -1, -1):
        c, r = divmod(rem[k + dg], g[-1])
        if r:
            return None  # by Gauss' lemma a divisor's quotient is integral
        quo[k] = c
        if c:
            for j in range(dg):
                rem[k + j] -= c * g[j]
    return None if any(rem[:dg]) else quo


def _recombine(f: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """The irreducible factors of f over Z, from its monic factors modulo m.

    A factor g of f of degree below deg f has lc(f)/lc(g) g = lc(f) prod(S)
    mod m for one subset S of the lifted factors, and m exceeds twice its
    coefficients, so the symmetric residue is exact.  Subsets are tried by
    size; past half the remaining factors the rest of f is irreducible.
    """
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [f[-1]]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], m)
            cand = [c - m if 2 * c > m else c for c in cand]
            if f[0] and (cand[0] == 0 or f[-1] * f[0] % cand[0]):
                continue  # the constant term of a divisor divides lc(f) f(0)
            content = 0
            for c in cand:
                content = int_gcd(content, c)
            cand = [c // content for c in cand]
            quo = _exact_quotient(f, cand)
            if quo is not None:
                out.append(cand)
                f = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


@lru_cache(maxsize=4096)
def irreducible_factors(p: RationalPoly) -> tuple[RationalPoly, ...]:
    """The distinct monic irreducible factors of p over Q, by degree, then coefficients."""
    f = list(_int_coeffs(squarefree_part(p)))
    if f[-1] < 0:
        f = [-c for c in f]
    if len(f) <= 2:  # a constant has no factor; a linear polynomial is irreducible
        return (RationalPoly(f).monic(),) if len(f) == 2 else ()
    best = None
    for _, q in zip(range(_PRIME_TRIALS), _good_primes(f)):
        dd = _distinct_degree(_monic_mod(_trim([c % q for c in f]), q), q)
        count = sum((len(g) - 1) // k for g, k in dd)
        if best is None or count < best[0]:
            best = (count, q, dd)
        if count == 1:
            break
    count, q, dd = best
    if count == 1:
        factors = [f]
    else:
        rng = random.Random(0)
        modular = [u for g, k in dd for u in _equal_degree(g, k, q, rng)]
        # a proper factor g* = lc(f)/lc(g) g has M(g*) <= M(f) <= ||f||_2, so
        # its coefficients are at most C(k, k/2) ||f||_2 < 2^(deg f - 1) ||f||_2
        bound = 2 ** (len(f) - 2) * (isqrt(sum(c * c for c in f)) + 1)
        lifted, m = _hensel_lift(f, modular, q, bound)
        factors = _recombine(f, lifted, m)
    return tuple(sorted((RationalPoly(g).monic() for g in factors), key=lambda g: (g.degree, g.coeffs)))


# -- Sturm machinery ---------------------------------------------------------


def signed_remainder_sequence(p: RationalPoly, q: RationalPoly) -> tuple[RationalPoly, ...]:
    """The signed remainder sequence of (p, q), deg q <= deg p, as a primitive polynomial remainder sequence.

    Member 0 is p, member 1 is q; each further member is -prem(a, b)
    sign(lc(b))^(delta + 1), delta = deg a - deg b, with its positive
    content divided out, until the remainder vanishes.  Every member is a
    positive multiple of the canonical member p, q, -rem(p, q), ..., so it
    has the same degree and the same signs everywhere, the last member is
    gcd(p, q) up to a nonzero factor, and the coefficients stay integers of
    polynomially bounded size (Collins 1967, "Subresultants and reduced
    polynomial remainder sequences"; Brown and Traub 1971).

    For a < b, neither a root of p, V(a) - V(b) is the Cauchy index of
    q / p over (a, b]: the number of roots of p there at which q / p jumps
    from -infinity to +infinity, less those where it jumps back (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, 2.2).
    """
    if p.is_zero:
        raise ValueError("signed remainder sequence of the zero polynomial")
    if q.degree > p.degree:
        raise ValueError("the second polynomial must not exceed the first in degree")
    if q.is_zero:
        return (p,)
    return (p, q, *map(_int_poly, _remainders(_int_coeffs(p), _int_coeffs(q))))


def _remainders(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The members after a and b of the primitive signed remainder sequence of the integer vectors a and b.

    The one remainder-sequence loop (constant terms first), whose members
    signed_remainder_sequence defines.  When deg b > deg a, the first
    member is a itself up to sign and content.
    """
    while len(b) > 1:
        r = _trim(_int_prem(a, b))
        if not r:
            return
        # prem = lc(b)^(delta + 1) rem; negate by the sign that leaves -rem
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-v for v in r]
        a, b = b, _primitive_int(r)
        yield b


@lru_cache(maxsize=4096)
def sturm_chain(p: RationalPoly) -> tuple[RationalPoly, ...]:
    """Sturm sequence of p: the signed remainder sequence of p and the primitive part of p'.

    For nonzero p the sign-variation difference V(a) - V(b) counts the
    distinct real roots in the half-open interval (a, b].
    """
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial")
    a = _int_coeffs(p)
    return signed_remainder_sequence(p, _int_poly(_primitive_int([i * c for i, c in enumerate(a)][1:])))


def sign_variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def cauchy_root_bound(p: RationalPoly) -> Fraction:
    """All real roots of p lie in [-M, M] with M = 1 + max|c_i| / |c_lead|."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1])
    return 1 + m / lead


# -- integer scaling ---------------------------------------------------------


def _primitive_int(ints: Sequence[int]) -> tuple[int, ...]:
    """ints divided by their positive content."""
    g = 0
    for v in ints:
        g = int_gcd(g, v)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _primitive(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    """Primitive integer coefficient vector, a positive multiple of coeffs."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    return _primitive_int([c.numerator * (den // c.denominator) for c in coeffs])


def _int_poly(ints: tuple[int, ...]) -> RationalPoly:
    """The polynomial with the primitive integer coefficients ints."""
    p = RationalPoly(ints)
    object.__setattr__(p, "_ints", ints)
    return p


def _scaled_int_poly(h: Sequence[int], scale: int) -> RationalPoly:
    """H(scale x) / scale^n for H monic of degree n in Z[x], constant term first, scale > 0.

    Coefficient j is h_j / scale^(n-j), one Fraction each, and the integer
    cache is the primitive part of the h_j scale^j.  The leading coefficient
    is 1, so there is no trailing zero to strip and __init__ is skipped.
    """
    n = len(h) - 1
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * scale)
    p = object.__new__(RationalPoly)
    object.__setattr__(p, "coeffs", tuple([Fraction(c, powers[n - j]) for j, c in enumerate(h)]))
    object.__setattr__(p, "_ints", _primitive_int([c * powers[j] for j, c in enumerate(h)]))
    return p


def _int_coeffs(p: RationalPoly) -> tuple[int, ...]:
    """Primitive integer coefficient vector with the same sign as p, cached on p."""
    if p._ints is None:
        object.__setattr__(p, "_ints", _primitive(p.coeffs))
    return p._ints
