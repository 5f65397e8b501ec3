"""Exact spectral verification for tridiagonal systems, distance-regular
graphs and Q-polynomial association schemes.

Everything is decided in exact arithmetic: rational polynomial algebra,
Sturm-certified root isolation, algebraic number comparison and real
number fields.  No floating point participates in any decision.
"""

from .algebraics import AlgebraicReal, compare, isolate_real_roots
from .graphs import Graph, parse_graph6, emit_graph6
from .polynomials import RationalPoly, sturm_chain
from .schemes import AssociationScheme, scheme_from_graph
from .tridiagonal import TridiagonalSystem

__all__ = [
    "AlgebraicReal",
    "AssociationScheme",
    "Graph",
    "RationalPoly",
    "TridiagonalSystem",
    "compare",
    "emit_graph6",
    "isolate_real_roots",
    "parse_graph6",
    "scheme_from_graph",
    "sturm_chain",
]
