"""Builders and a lemma that only the tests use.

No command reaches these, so they live beside the tests instead of in the
package: ``from_roots`` builds a polynomial from its roots, ``line_graph``
and ``linked_design_krein_array`` build inputs with a known answer, and
``endpoint_product_bound`` is the two-point comparison lemma, decided in
one number field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from qpolykit.algebraics import AlgebraicReal, compare
from qpolykit.graphs import Graph
from qpolykit.numberfield import FieldElement, exact_sign, field_containing
from qpolykit.polynomials import RationalPoly


def from_roots(roots: Sequence[Fraction | int]) -> RationalPoly:
    """The monic polynomial prod (x - r) over roots, with multiplicity."""
    p = RationalPoly((1,))
    for r in roots:
        p = p * RationalPoly((-Fraction(r), 1))
    return p


def line_graph(g: Graph) -> Graph:
    """Vertices are edges of g; adjacency = sharing an endpoint."""
    es = g.edges()
    index = {e: i for i, e in enumerate(es)}
    out = set()
    for v in range(g.n):
        inc = [index[(min(v, w), max(v, w))] for w in g.adj[v]]
        for a, b in combinations(sorted(inc), 2):
            out.add((a, b))
    return Graph(len(es), sorted(out))


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
    cmp = exact_sign(f_t - g_t)
    equality = cmp == 0
    if equality and compare(b, t) < 0 and compare(t, c) < 0:
        if not (compare(a, b) == 0 and compare(c, d) == 0):
            raise AssertionError("interior equality without a=b and c=d")
    return LemmaResult(f_t, g_t, cmp <= 0, equality)
