"""Builders, references and a lemma that only the tests use.

No command reaches these, so they live beside the tests instead of in the
package: ``from_roots`` builds a polynomial from its roots, ``line_graph``
and ``linked_design_krein_array`` build inputs with a known answer,
``bfs_distances`` and ``reference_quotient`` are the per-neighbour BFS and
distance-partition loop that the package's bitset version is checked
against, and ``endpoint_product_bound`` is the two-point comparison lemma,
decided in one number field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from qpolykit.algebraics import AlgebraicReal, compare
from qpolykit.graphs import Graph, GraphError, QuotientMatrix
from qpolykit.numberfield import FieldElement, field_containing
from qpolykit.polynomials import RationalPoly


def from_roots(roots: Sequence[Fraction | int]) -> RationalPoly:
    """The monic polynomial prod (x - r) over roots, with multiplicity."""
    p = RationalPoly((1,))
    for r in roots:
        p = p * RationalPoly((-Fraction(r), 1))
    return p


def neighbours(g: Graph, v: int) -> list[int]:
    """The neighbours of v, ascending, read off its adjacency mask."""
    return [w for w in range(g.n) if g.masks[v] >> w & 1]


def line_graph(g: Graph) -> Graph:
    """Vertices are edges of g; adjacency = sharing an endpoint."""
    es = g.edges()
    index = {e: i for i, e in enumerate(es)}
    out = set()
    for v in range(g.n):
        inc = [index[(min(v, w), max(v, w))] for w in neighbours(g, v)]
        for a, b in combinations(sorted(inc), 2):
            out.add((a, b))
    return Graph(len(es), sorted(out))


def bfs_distances(g: Graph, x: int) -> list[int]:
    """d(x, y) for every y, -1 when unreached, by a BFS over neighbour sets."""
    dist = [-1] * g.n
    dist[x] = 0
    frontier = [x]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in neighbours(g, u):
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_quotient(g: Graph, x: int) -> QuotientMatrix:
    """graphs.quotient_matrix by a loop over each vertex's neighbours; GraphError when g is disconnected."""
    dist = bfs_distances(g, x)
    if min(dist) < 0:
        raise GraphError("distance partition of a disconnected graph")
    ecc = max(dist)
    sizes = [0] * (ecc + 1)
    totals = [[0, 0, 0] for _ in range(ecc + 1)]  # neighbours one closer, as close, one further
    first: list[list[int] | None] = [None] * (ecc + 1)
    equitable = True
    for y, i in enumerate(dist):
        counts = [0, 0, 0]
        for w in neighbours(g, y):
            counts[dist[w] - i + 1] += 1
        sizes[i] += 1
        totals[i] = [t + c for t, c in zip(totals[i], counts)]
        if first[i] is None:
            first[i] = counts
        elif first[i] != counts:
            equitable = False
    avg = [[Fraction(t, size) for t in row] for row, size in zip(totals, sizes)]
    return QuotientMatrix(
        x,
        tuple(row[1] for row in avg),
        tuple(row[2] for row in avg[:-1]),
        tuple(row[0] for row in avg[1:]),
        equitable,
        tuple(dist),
    )


def linked_design_krein_array(t: int) -> dict:
    """Krein array of the maximal linked system of symmetric designs on 2^(2t) points.

    For the construction with f = 2^(2t-1) fibers the dual parameters are
    m = 2^(2t) - 1, b1* = m - 1, b2* = 1, c2* = 2, c3* = m, and the pair
    bound evaluates to -b1* * f/(f-1) exactly.
    """
    if t < 1:
        raise ValueError("parameter t must be a positive integer")
    m = 2 ** (2 * t) - 1
    return {
        "type": "krein_array",
        "class": 3,
        "m": str(m),
        "b_star": [str(m), str(m - 1), "1"],
        "c_star": ["1", "2", str(m)],
    }


@dataclass(frozen=True)
class LemmaResult:
    f_t: FieldElement
    g_t: FieldElement
    holds: bool
    equality: bool


def endpoint_product_bound(a, b, c, d, t) -> LemmaResult:
    """For a <= b < c <= d and t in [b, c]: (t-a)(t-d) <= (t-b)(t-c).

    Interior equality forces a = b and c = d; a breach of that implication
    raises, since it would falsify the statement rather than an input.
    """
    a, b, c, d, t = (v if isinstance(v, AlgebraicReal) else AlgebraicReal.from_rational(v) for v in (a, b, c, d, t))
    if not (compare(a, b) <= 0 and compare(b, c) < 0 and compare(c, d) <= 0):
        raise ValueError("need a <= b < c <= d")
    if not (compare(b, t) <= 0 and compare(t, c) <= 0):
        raise ValueError("need t in [b, c]")
    _, (fa, fb, fc, fd, ft) = field_containing([a, b, c, d, t])
    f_t = (ft - fa) * (ft - fd)
    g_t = (ft - fb) * (ft - fc)
    cmp = (f_t > g_t) - (f_t < g_t)
    equality = cmp == 0
    if equality and compare(b, t) < 0 and compare(t, c) < 0:
        if not (compare(a, b) == 0 and compare(c, d) == 0):
            raise AssertionError("interior equality without a=b and c=d")
    return LemmaResult(f_t, g_t, cmp <= 0, equality)
