"""The multimodular adjacency characteristic polynomial against its oracles.

sympy's charpoly and integer Bareiss determinants det(tI - A) are computed
independently of the Hessenberg-mod-p route (``linalg.charpoly``) behind
``graphs.adjacency_charpoly``.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qpolykit import linalg
from qpolykit.families import corpus_graphs, hamming
from qpolykit.graphs import Graph, adjacency_charpoly
from qpolykit.polynomials import RationalPoly, _int_coeffs


def sympy_charpoly(g: Graph) -> list[int]:
    m = sympy.zeros(g.n, g.n)
    for u in range(g.n):
        for v in g.adj[u]:
            m[u, v] = 1
    return [int(c) for c in reversed(m.charpoly().all_coeffs())]


def bareiss_value(g: Graph, t: int) -> int:
    """det(tI - A) by fraction-free elimination."""
    n = g.n
    m = [[(t if i == j else 0) - (j in g.adj[i]) for j in range(n)] for i in range(n)]
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


def test_hamming_6_2_needs_three_primes(monkeypatch):
    """n = 64, degree 6: the bound 2 * 4^64 needs three primes below 2^62."""
    g = hamming(6, 2)
    primes = []
    real = linalg._charpoly_mod

    def counting(cols, p):
        primes.append(p)
        return real(cols, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", counting)
    cp = adjacency_charpoly(g)
    assert len(primes) >= 3
    for t in (-7, -6, -1, 0, 3, 7):
        assert cp.evaluate(t) == bareiss_value(g, t)
    # spectrum of H(6,2): 6 - 2i with multiplicity C(6, i)
    expected = RationalPoly.from_roots([6 - 2 * i for i in range(7) for _ in range(sympy.binomial(6, i))])
    assert cp == expected


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
