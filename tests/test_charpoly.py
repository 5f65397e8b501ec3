"""The multimodular adjacency characteristic polynomial against its oracles.

sympy's charpoly and integer Bareiss determinants det(tI - A) are computed
independently of the Hessenberg-mod-p route (``linalg.charpoly``) behind
``graphs.adjacency_charpoly``.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolykit import linalg
from qpolykit.families import corpus_graphs, hamming
from qpolykit.graphs import Graph, adjacency_charpoly
from qpolykit.polynomials import RationalPoly, _int_coeffs
from qpolykit.tridiagonal import charpoly_by_cofactor

from helpers import from_roots, neighbours


def sympy_charpoly(g: Graph) -> list[int]:
    m = sympy.zeros(g.n, g.n)
    for u in range(g.n):
        for v in neighbours(g, u):
            m[u, v] = 1
    return [int(c) for c in reversed(m.charpoly().all_coeffs())]


def bareiss_value(g: Graph, t: int) -> int:
    """det(tI - A) by fraction-free elimination."""
    n = g.n
    m = [[(t if i == j else 0) - (g.masks[i] >> j & 1) for j in range(n)] for i in range(n)]
    return linalg.det(m)


def as_ints(p: RationalPoly) -> list[int]:
    assert all(c.denominator == 1 for c in p.coeffs)
    return [int(c) for c in p.coeffs]


@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_corpus_charpoly_matches_sympy_and_bareiss(name):
    g = corpus_graphs()[name]
    cp = adjacency_charpoly(g)
    assert as_ints(cp) == sympy_charpoly(g)
    for t in (-3, 0, 2, 5):
        assert cp.evaluate(t) == bareiss_value(g, t)


@st.composite
def any_graph(draw):
    """Any simple graph on 1..10 vertices: irregular, disconnected, edgeless."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


@given(any_graph())
def test_random_graph_charpoly_matches_sympy_and_bareiss(g):
    cp = adjacency_charpoly(g)
    assert cp.degree == g.n and cp.leading == 1
    assert as_ints(cp) == sympy_charpoly(g)
    for t in (-2, 1, 4):
        assert cp.evaluate(t) == bareiss_value(g, t)


def test_edge_cases():
    assert as_ints(adjacency_charpoly(Graph(1, []))) == [0, 1]
    assert as_ints(adjacency_charpoly(Graph(4, []))) == [0, 0, 0, 0, 1]
    # K2 plus an isolated vertex: x (x^2 - 1)
    assert as_ints(adjacency_charpoly(Graph(3, [(0, 1)]))) == [0, -1, 0, 1]


def charpoly_passes(monkeypatch, build, *args):
    """build(*args), and the modulus of every Hessenberg pass it ran, splits included."""
    moduli = []
    real = linalg._charpoly_mod

    def counting(cols, p):
        moduli.append(p)
        return real(cols, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", counting)
    return build(*args), moduli


def test_hamming_6_2_needs_two_primes(monkeypatch):
    """n = 64, row norm sqrt 6: 2 (1 + R)^64 < 2^116 for R just above sqrt 6, two primes below 2^62.

    The integer ceiling R = 3 gave 2 * 4^64 = 2^129, past the product of two
    such primes: rounding R up to a multiple of 2^-16 saves the third prime.
    Both primes go into one Hessenberg pass, modulo their product.
    """
    g = hamming(6, 2)
    cp, moduli = charpoly_passes(monkeypatch, adjacency_charpoly, g)
    primes = linalg._primes_below(1 << 62)
    assert moduli == [next(primes) * next(primes)]
    assert moduli[0] < 2 * 4**64
    for t in (-7, -6, -1, 0, 3, 7):
        assert cp.evaluate(t) == bareiss_value(g, t)
    # spectrum of H(6,2): 6 - 2i with multiplicity C(6, i)
    expected = from_roots([6 - 2 * i for i in range(7) for _ in range(sympy.binomial(6, i))])
    assert cp == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(
                # large integers make coefficients that need several primes
                st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=4), st.integers(-(2**40), 2**40)),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_charpoly_matches_the_cofactor_oracle(m):
    # the rounded-up row norm still bounds every coefficient: no prime too few
    assert linalg.charpoly(m) == charpoly_by_cofactor(m)


def test_a_pivot_sharing_a_prime_with_the_modulus_splits_the_pass(monkeypatch):
    # the first pivot, entry (0, 1), is the second prime of the pass's modulus M:
    # no unit mod M, so the pass splits into that prime and M over it
    it = linalg._primes_below(1 << 62)
    p1, p2 = next(it), next(it)
    m = [[1, p2, 1, 0], [2, 0, 1, 1], [0, 3, -1, 2], [1, 1, 1, p1]]
    cp, moduli = charpoly_passes(monkeypatch, linalg.charpoly, m)
    assert moduli[1:] == [p2, moduli[0] // p2]
    assert moduli[0] % p1 == 0 and moduli[0] % (p2 * p2) != 0
    assert cp == charpoly_by_cofactor(m)


def test_coefficients_past_one_pass_combine_several(monkeypatch):
    # 250-digit entries, scaled by 21, bound the coefficients by some 2000 bits
    big = 10**250
    m = [[big, -(big + 7), 3], [F(big, 3), 1, -big], [5, big - 1, F(-big, 7)]]
    cp, moduli = charpoly_passes(monkeypatch, linalg.charpoly, m)
    assert len(moduli) > 1
    assert all(linalg._PASS_BITS <= p.bit_length() < linalg._PASS_BITS + 62 for p in moduli[:-1])
    assert cp == charpoly_by_cofactor(m)


def test_primality_against_sympy():
    top = 1 << 62
    window = list(range(2000)) + list(range(top - 2000, top))
    # strong pseudoprimes to bases 2..31 and Carmichael numbers
    special = [2047, 1373653, 25326001, 3215031751, 3825123056546413051, 561, 1105, 41041]
    for m in window + special:
        assert linalg._is_prime(m) == sympy.isprime(m), m


@given(st.integers(0, (1 << 62) - 1))
def test_primality_random_against_sympy(m):
    assert linalg._is_prime(m) == sympy.isprime(m)


def test_primes_below_descend_through_every_prime():
    it = linalg._primes_below(1 << 62)
    expected = 1 << 62
    for _ in range(5):
        expected = sympy.prevprime(expected)
        assert next(it) == expected


def test_integer_coefficient_field_leaves_equality_and_hash_alone():
    a = RationalPoly([F(1, 2), F(-3, 4), F(5, 6)])
    b = RationalPoly([F(1, 2), F(-3, 4), F(5, 6)])
    assert a == b and hash(a) == hash(b)
    assert a._ints is None
    a.sign_at(F(1, 3))
    assert a._ints == _int_coeffs(b) == (6, -9, 10)
    assert b._ints is not None
    c = RationalPoly([F(1, 2), F(-3, 4), F(5, 6)])
    assert c._ints is None
    assert a == c and c == a and hash(a) == hash(c) == hash(b)
    assert len({a, b, c}) == 1
    assert RationalPoly(()) == RationalPoly([0]) and _int_coeffs(RationalPoly(())) == ()
