"""Simple graphs: exact spectra, distance partitions, and regularity checks.

Characteristic polynomials of adjacency matrices are computed with integer
arithmetic only (``linalg.charpoly``: Hessenberg reduction modulo word-size
primes, combined by the Chinese remainder theorem under a Hadamard bound),
so spectra come out as exact algebraic numbers and every classification
below is a sign decision, never a tolerance.  Graphs have at most
MAX_VERTICES vertices; larger input is rejected before anything is
allocated.

The per-vertex machinery is one BFS per vertex, on bitsets: a Graph keeps
its adjacency as one bitmask per vertex, Graph.distance_layers grows each
distance layer as the OR of its frontier's neighbour masks, and
quotient_matrix takes each vertex's neighbours one closer, as close and one
further as three popcounts of its mask against the layers before its own,
its own and after it.  It averages those counts over the distance partition
around a vertex into a rational tridiagonal quotient and records whether
the partition is equitable.  classify_regularity builds that quotient once
per vertex and keeps the tuple on its report; the diameter, the regularity
classes, bipartiteness (a connected graph is bipartite exactly when no edge
lies inside a distance layer, so when every alpha of one quotient is 0),
the vertex pair bound (theta_1+1)(theta_D+1) <= -beta_1(x) whose all-vertex
equality case is exactly strong regularity, and the quotient around vertex
0, a row-sum system with kappa = k built once (quotient_system), all read
that tuple.  For a distance-regular graph of diameter >= 2 that system is
the intersection array {b; c}, which the fundamental bound reads; its
spectrum (quotient_spectrum) feeds interlacing and the diameter->=3 triple
bound.  Each check takes the facts it reads as arguments and computes none,
so a caller derives each once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .algebraics import (
    AlgebraicReal,
    compare,
    isolate_real_roots_with_multiplicity,
)
from .linalg import charpoly
from .polynomials import RationalPoly, squarefree_part
from .serialize import rat_str, value_json
from . import tridiagonal
from .tridiagonal import (
    InvalidSystem,
    TridiagonalSystem,
    TripleBoundResult,
    compare_shifted_product,
    shifted_subset_product,
)


class GraphError(ValueError):
    pass


# The input-size policy: graphs, schemes and family builders check their
# vertex count against this before they allocate per-vertex state, so an
# oversize input is an input error (exit 1), never a hang.  H(9,2) has 512.
MAX_VERTICES = 512


def check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def is_vertex_pair(v) -> bool:
    """Is v a JSON pair [x, y] of integers (booleans are not integers here)?"""
    return isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "masks", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        check_vertex_count(n)
        adj: list[set[int]] = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            count += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in adj))
        # masks[v] has bit w set when w is adjacent to v: the adjacency as bitsets
        object.__setattr__(self, "masks", tuple(sum(1 << w for w in s) for s in adj))
        object.__setattr__(self, "_edge_count", count)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_regular(self) -> bool:
        degs = {len(s) for s in self.adj}
        return len(degs) == 1

    def is_complete(self) -> bool:
        return all(len(s) == self.n - 1 for s in self.adj)

    def is_empty_graph(self) -> bool:
        return self._edge_count == 0

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"

    # -- traversal -----------------------------------------------------------

    def distance_layers(self, x: int) -> tuple[list[int], list[int]]:
        """One BFS from x: the distance of every vertex (-1 when unreached), and the layers as bitmasks.

        Bit y of layers[i] is set when d(x, y) = i.  Each layer grows as the
        OR of its frontier's neighbour masks, minus the vertices seen.
        """
        masks = self.masks
        dist = [-1] * self.n
        layers = []
        seen = frontier = 1 << x
        while frontier:
            d = len(layers)
            layers.append(frontier)
            reach = 0
            while frontier:
                low = frontier & -frontier
                y = low.bit_length() - 1
                dist[y] = d
                reach |= masks[y]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        return dist, layers

    def is_connected(self) -> bool:
        return min(self.distance_layers(0)[0]) >= 0

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise GraphError("graph JSON needs fields 'n' and 'edges'")
        n, edges = obj["n"], obj["edges"]
        if type(n) is not int:
            raise GraphError("'n' must be an integer")
        if not isinstance(edges, list):
            raise GraphError("'edges' must be a list of [u, v] pairs")
        for e in edges:
            if not is_vertex_pair(e):
                raise GraphError(f"malformed edge entry {e!r}")
        return cls(n, [tuple(e) for e in edges])


# -- graph6 -------------------------------------------------------------------------


def parse_graph6(data: bytes | str) -> Graph:
    """Strict graph6 decoder: rejects range, truncation and padding faults."""
    if isinstance(data, str):
        if not data.isascii():
            raise GraphError("graph6 text must be ASCII")
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<") :]
    if not data:
        raise GraphError("empty graph6 input")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphError(f"graph6 byte out of range at offset {off}: {byte}")
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise GraphError("truncated graph6 size block")
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise GraphError("truncated graph6 size block")
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        pos = 8
    check_vertex_count(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise GraphError(f"truncated graph6 bit stream: need {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise GraphError("trailing bytes after graph6 bit stream")
    if n == 0:
        raise GraphError("graph6 input encodes an empty vertex set")
    bits = []
    for byte in body:
        v = byte - 63
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    if any(bits[nbits:]):
        raise GraphError("nonzero padding bits in graph6 stream")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:  # Graph keeps n <= MAX_VERTICES, within this header's 258047
        out.append(126)
        out.extend(((n >> shift) & 63) + 63 for shift in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if v in g.adj[u] else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i : i + 6]:
            v = (v << 1) | b
        out.append(v + 63)
    return out.decode("ascii")


# -- distance partitions and quotient matrices ------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """The distance partition around base as cell-averaged adjacency counts.

    Over the vertices at distance i from base, alpha[i], beta[i] and
    gamma[i-1] are the average numbers of neighbours at distances i, i+1
    and i-1, exact rationals.  The partition is equitable when every vertex
    realizes its cell's averages exactly: the graph is then distance-regular
    around base.
    """

    base: int
    alpha: tuple[Fraction, ...]  # alpha_0..alpha_{D_x}
    beta: tuple[Fraction, ...]  # beta_0..beta_{D_x - 1}
    gamma: tuple[Fraction, ...]  # gamma_1..gamma_{D_x}
    equitable: bool
    distances: tuple[int, ...] = field(repr=False, compare=False)  # distances[y] = d(base, y)

    @property
    def eccentricity(self) -> int:
        return len(self.alpha) - 1


def quotient_matrix(g: Graph, x: int) -> QuotientMatrix:
    """The quotient around x, from one BFS; GraphError when g is disconnected.

    A vertex's neighbours one closer, as close and one further are three
    popcounts of its adjacency mask against the layers before its own, its
    own and after it.
    """
    dist, layers = g.distance_layers(x)
    if min(dist) < 0:
        raise GraphError("distance partition of a disconnected graph")
    ecc = len(layers) - 1
    padded = [0, *layers, 0]
    sizes = [0] * (ecc + 1)
    totals = [[0, 0, 0] for _ in range(ecc + 1)]  # neighbours one closer, as close, one further
    first: list[tuple[int, int, int] | None] = [None] * (ecc + 1)
    equitable = True
    for i, a in zip(dist, g.masks):
        counts = ((a & padded[i]).bit_count(), (a & padded[i + 1]).bit_count(), (a & padded[i + 2]).bit_count())
        sizes[i] += 1
        t = totals[i]
        t[0] += counts[0]
        t[1] += counts[1]
        t[2] += counts[2]
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


# -- exact adjacency spectra --------------------------------------------------------------


def adjacency_charpoly(g: Graph) -> RationalPoly:
    """det(xI - A) for the adjacency matrix A, exactly (``linalg.charpoly``)."""
    a = [[0] * g.n for _ in range(g.n)]
    for row, nbrs in zip(a, g.adj):
        for j in nbrs:
            row[j] = 1
    return charpoly(a)


@dataclass(frozen=True)
class GraphSpectrum:
    charpoly: RationalPoly
    distinct: tuple[AlgebraicReal, ...]  # descending
    multiplicities: tuple[int, ...]

    @cached_property
    def squarefree(self) -> RationalPoly:
        """The squarefree part of charpoly, whose roots are exactly distinct: the poly of every shifted product."""
        return squarefree_part(self.charpoly)

    @property
    def d(self) -> int:
        """Number of distinct eigenvalues minus one."""
        return len(self.distinct) - 1


def spectrum_graph(g: Graph) -> GraphSpectrum:
    cp = adjacency_charpoly(g)
    pairs = isolate_real_roots_with_multiplicity(cp)
    if sum(m for _, m in pairs) != g.n:
        raise AssertionError("adjacency spectrum must be totally real")
    pairs.reverse()
    return GraphSpectrum(cp, tuple(r for r, _ in pairs), tuple(m for _, m in pairs))


# -- interlacing ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterlaceReport:
    passed: bool
    theta1_eq_tau1: bool
    thetamin_eq_taumin: bool


def quotient_spectrum(classification: RegularityReport) -> tridiagonal.SpectrumReport:
    """The spectrum of a regular graph's quotient around vertex 0 (classification.quotient_system)."""
    if not classification.regular:
        raise GraphError("the quotient spectrum requires a regular graph")
    return tridiagonal.spectrum(classification.quotient_system)


def interlace_check(spec: GraphSpectrum, quotient: tridiagonal.SpectrumReport) -> InterlaceReport:
    """theta_1 >= tau_1 and tau_last >= theta_min, exactly, tau the spectrum of the quotient around vertex 0."""
    tau = quotient.eigenvalues
    theta1, thetamin = spec.distinct[1], spec.distinct[-1]
    c_top = compare(theta1, tau[1])
    c_bot = compare(tau[-1], thetamin)
    return InterlaceReport(c_top >= 0 and c_bot >= 0, c_top == 0, c_bot == 0)


# -- regularity classification ----------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    degree: int | None
    diameter: int
    bipartite: bool
    distance_regularised: bool
    distance_regular: bool
    distance_biregular: bool
    strongly_regular: bool
    quotients: tuple[QuotientMatrix, ...]  # quotients[x]: the quotient around vertex x

    @cached_property
    def quotient_system(self) -> TridiagonalSystem:
        """A regular graph's quotient around vertex 0 as a row-sum system, kappa = k; AssertionError unless valid."""
        q = self.quotients[0]
        try:
            return TridiagonalSystem.from_entries(q.alpha, q.beta, q.gamma, Fraction(self.degree))
        except InvalidSystem as exc:
            raise AssertionError(
                "regular-graph quotient violates the row-sum condition: " + "; ".join(exc.violations)
            ) from None

    def to_json_dict(self) -> dict:
        return {
            "regular": self.regular,
            "degree": self.degree,
            "diameter": self.diameter,
            "bipartite": self.bipartite,
            "distance_regularised": self.distance_regularised,
            "distance_regular": self.distance_regular,
            "distance_biregular": self.distance_biregular,
            "strongly_regular": self.strongly_regular,
        }


def classify_regularity(g: Graph) -> RegularityReport:
    """The regularity classes, read off the quotient around every vertex (one BFS each)."""
    if not g.is_connected():
        raise GraphError("classification requires a connected graph")
    regular = g.is_regular()
    quotients = tuple(quotient_matrix(g, x) for x in range(g.n))
    regularised = all(q.equitable for q in quotients)
    params = {(q.alpha, q.beta, q.gamma) for q in quotients}
    dr = regularised and len(params) == 1
    biregular = regularised and not dr
    # connected: bipartite exactly when no edge lies inside a distance layer around vertex 0
    bip = not any(quotients[0].alpha)
    if biregular and not bip:
        raise AssertionError("distance-regularised but neither distance-regular nor bipartite")
    diameter = max(q.eccentricity for q in quotients)
    sr = dr and diameter == 2
    return RegularityReport(
        regular,
        g.degree(0) if regular else None,
        diameter,
        bip,
        regularised,
        dr,
        biregular,
        sr,
        quotients,
    )


# -- the vertex pair bound -----------------------------------------------------------------


@dataclass(frozen=True)
class VertexBound:
    vertex: int
    rhs: Fraction  # -beta_1(x)
    holds: bool
    equality: bool


@dataclass(frozen=True)
class PairBoundReport:
    lhs: object  # exact value of (theta_1+1)(theta_min+1)
    per_vertex: tuple[VertexBound, ...]
    all_hold: bool
    equality_everywhere: bool
    strongly_regular_verdict: bool
    cross_check_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": value_json(self.lhs),
            "per_vertex": [
                {"vertex": v.vertex, "rhs": rat_str(v.rhs), "holds": v.holds, "equality": v.equality}
                for v in self.per_vertex
            ],
            "all_hold": self.all_hold,
            "equality_everywhere": self.equality_everywhere,
            "strongly_regular_verdict": self.strongly_regular_verdict,
            "cross_check_ok": self.cross_check_ok,
        }


def pair_bound_all_vertices(g: Graph, spec: GraphSpectrum, classification: RegularityReport) -> PairBoundReport:
    """(theta_1+1)(theta_min+1) <= -beta_1(x) at every vertex.

    Equality at every vertex is equivalent to strong regularity; the report
    cross-checks that equivalence against the combinatorial classification
    and flags a mismatch (cross_check_ok False), which callers treat as a
    soundness alarm.  beta_1(x) is read from the classification's quotients.
    """
    if not classification.regular:
        raise GraphError("pair bound requires a regular graph")
    if g.is_complete():
        raise GraphError("pair bound is not defined for complete graphs")
    if g.is_empty_graph():
        raise GraphError("pair bound is not defined for empty graphs")
    lhs = shifted_subset_product(spec.squarefree, spec.distinct, (1, spec.d), 1)  # theta_1 and theta_min
    per_vertex = []
    for qm in classification.quotients:
        rhs = -qm.beta[1]
        cmp = compare_shifted_product(lhs, rhs)
        per_vertex.append(VertexBound(qm.base, rhs, cmp <= 0, cmp == 0))
    all_hold = all(v.holds for v in per_vertex)
    eq_all = all(v.equality for v in per_vertex)
    cross = eq_all == classification.strongly_regular
    return PairBoundReport(lhs, tuple(per_vertex), all_hold, eq_all, eq_all, cross)


# -- intersection arrays ------------------------------------------------------------------------


def intersection_array(classification: RegularityReport) -> TridiagonalSystem:
    """The intersection array as the quotient's row-sum system: beta = b_0..b_{D-1}, gamma = c_1..c_D."""
    if not classification.distance_regular:
        raise GraphError("intersection array requires a distance-regular graph")
    if classification.diameter < 2:
        raise GraphError("intersection array requires diameter >= 2")
    # distance-regular: every quotient is equitable, with integer entries, and they all agree
    q = classification.quotients[0]
    if any(v.denominator != 1 for v in q.alpha + q.beta + q.gamma):
        raise AssertionError("distance-regular quotient with a non-integer entry")
    system = classification.quotient_system
    # cell sizes k_{i+1} = k_i b_i / c_{i+1} must come out integral
    if any(k_i.denominator != 1 for k_i in tridiagonal.valencies(system)):
        raise AssertionError("inconsistent intersection array: k_i not integral")
    return system


def triple_bound_graph(classification: RegularityReport, quotient: tridiagonal.SpectrumReport) -> TripleBoundResult:
    """The triple-product bound on a distance-regular graph of diameter >= 3, given its quotient spectrum."""
    if not classification.distance_regular:
        raise GraphError("triple bound requires a distance-regular graph")
    if classification.diameter < 3:
        raise GraphError("triple bound requires diameter >= 3")
    return tridiagonal.triple_bound(quotient.system, quotient)


# -- fundamental bound ----------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalBoundReport:
    lhs: object
    rhs: Fraction
    holds: bool
    equality: bool
    bipartite: bool
    tight: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": value_json(self.lhs),
            "rhs": rat_str(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
            "bipartite": self.bipartite,
            "tight": self.tight,
        }


def fundamental_bound(spec: GraphSpectrum, array: TridiagonalSystem, bipartite: bool) -> FundamentalBoundReport:
    """(theta_1 + k/(a_1+1))(theta_min + k/(a_1+1)) >= -k a_1 b_1/(a_1+1)^2, k a_1 b_1 from the array.

    Tight means nonbipartite (the classification's verdict) with exact equality.
    """
    k, a1, b1 = array.kappa, array.alpha[1], array.beta[1]
    shift = k / (a1 + 1)
    rhs = -k * a1 * b1 / (a1 + 1) ** 2
    lhs = shifted_subset_product(spec.squarefree, spec.distinct, (1, spec.d), shift)
    cmp = compare_shifted_product(lhs, rhs)
    equality = cmp == 0
    return FundamentalBoundReport(lhs, rhs, cmp >= 0, equality, bipartite, equality and not bipartite)


# -- random regular graphs -----------------------------------------------------------------------

RANDOM_GRAPH_TRIES = 4000  # pairings random_regular_graph draws before it gives up


def random_regular_graph(rng: random.Random, n: int, k: int) -> Graph:
    """Pairing-model sample, rejecting until simple and connected."""
    if n * k % 2 != 0 or k >= n:
        raise GraphError("no k-regular graph on n vertices with these parameters")
    for _ in range(RANDOM_GRAPH_TRIES):
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph(n, sorted(edges))
        if g.is_connected():
            return g
    raise RuntimeError("pairing model failed to produce a simple connected graph")
