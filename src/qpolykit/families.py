"""Corpus builders: the named graph families and symmetric designs.

Each builder is reached by name, through a family spec (parse_family_spec)
or the corpus and its manifest.  Builders use a fixed vertex numbering per
family so every derived report is byte-stable across runs.  Designs are
stored as explicit block lists, and construction checks them by direct
double counting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

from .graphs import MAX_VERTICES, Graph, GraphError, check_vertex_count, emit_graph6, parse_graph6
from .schemes import AssociationScheme
from .serialize import dump_json


@dataclass(frozen=True)
class SymmetricDesign:
    """2-(v, k, lambda) design with equally many points and blocks; construction raises ValueError otherwise."""

    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        problems = []
        if len(self.blocks) != self.v:
            problems.append("number of blocks must equal number of points")
        for b in self.blocks:
            if len(set(b)) != self.k or any(not 0 <= p < self.v for p in b):
                problems.append(f"block {b} is not a k-subset of the points")
        replication = [0] * self.v
        for b in self.blocks:
            for p in b:
                replication[p] += 1
        if any(r != self.k for r in replication):
            problems.append("every point must lie in exactly k blocks")
        for p, q in combinations(range(self.v), 2):
            t = sum(1 for b in self.blocks if p in b and q in b)
            if t != self.lam:
                problems.append(f"pair ({p},{q}) lies in {t} blocks, expected lambda")
                break
        if problems:
            raise ValueError("invalid design: " + "; ".join(problems))


def fano() -> SymmetricDesign:
    """The 2-(7,3,1) design: lines are translates of {0,1,3} mod 7."""
    blocks = tuple(tuple(sorted(((0 + t) % 7, (1 + t) % 7, (3 + t) % 7))) for t in range(7))
    return SymmetricDesign(7, 3, 1, blocks)


def biplane_11() -> SymmetricDesign:
    """The 2-(11,5,2) biplane: translates of the quadratic residues mod 11."""
    qr = (1, 3, 4, 5, 9)
    blocks = tuple(tuple(sorted((q + t) % 11 for q in qr)) for t in range(11))
    return SymmetricDesign(11, 5, 2, blocks)


def biplane_16() -> SymmetricDesign:
    """A 2-(16,6,2) biplane on Z_2^4 (difference set construction)."""
    pts = [(a, b, c, d) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    index = {p: i for i, p in enumerate(pts)}
    dset = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)]
    blocks = []
    for t in pts:
        block = sorted(index[tuple((x + y) % 2 for x, y in zip(d, t))] for d in dset)
        blocks.append(tuple(block))
    return SymmetricDesign(16, 6, 2, tuple(blocks))


def incidence_graph(design: SymmetricDesign) -> Graph:
    """Bipartite point-block incidence graph; points first, blocks after."""
    edges = []
    for bi, block in enumerate(design.blocks):
        for p in block:
            edges.append((p, design.v + bi))
    return Graph(2 * design.v, edges)


# -- graph builders -------------------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    check_vertex_count(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    check_vertex_count(n)
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    check_vertex_count(a + b)
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer pentagon
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))  # spokes
    return Graph(10, edges)


def hamming(d: int, q: int) -> Graph:
    """Vertices are words of length d over q symbols; adjacency = one differing digit."""
    if d < 1 or q < 2:
        raise ValueError("hamming graph needs d >= 1 and q >= 2")
    # 2**10 > MAX_VERTICES, so the capped power decides without computing q**d
    if q ** min(d, MAX_VERTICES.bit_length()) > MAX_VERTICES:
        raise GraphError(f"H({d},{q}) has more than the limit of {MAX_VERTICES} vertices")
    n = q**d
    edges = []
    for v in range(n):
        digits = []
        t = v
        for _ in range(d):
            digits.append(t % q)
            t //= q
        for pos in range(d):
            base = v - digits[pos] * q**pos
            for sym in range(digits[pos] + 1, q):
                edges.append((v, base + sym * q**pos))
    return Graph(n, edges)


def cube(d: int) -> Graph:
    return hamming(d, 2)


def johnson(n: int, k: int) -> Graph:
    """Vertices are k-subsets of an n-set; adjacency = intersection of size k-1."""
    if not 1 <= k <= n:
        raise ValueError("johnson graph needs 1 <= k <= n")
    if n > MAX_VERTICES or comb(n, k) > MAX_VERTICES:
        raise GraphError(f"J({n},{k}): vertices or ground points exceed the limit of {MAX_VERTICES}")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = set()
    for s in subsets:
        sset = set(s)
        for out in s:
            for inn in range(n):
                if inn in sset:
                    continue
                t = tuple(sorted(sset - {out} | {inn}))
                e = (min(index[s], index[t]), max(index[s], index[t]))
                edges.add(e)
    return Graph(len(subsets), sorted(edges))


def heawood() -> Graph:
    return incidence_graph(fano())


def icosahedron() -> Graph:
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (1, 7), (2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 10), (5, 10), (5, 6),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
        (11, 6), (11, 7), (11, 8), (11, 9), (11, 10),
    ]
    return Graph(12, edges)


# -- registry -----------------------------------------------------------------------


_BUILDERS = {
    "cycle": (cycle, ("n",)),
    "petersen": (petersen, ()),
    "hamming": (hamming, ("d", "q")),
    "johnson": (johnson, ("n", "k")),
    "cube": (cube, ("d",)),
    "heawood": (heawood, ()),
    "icosahedron": (icosahedron, ()),
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "complete": (complete_graph, ("n",)),
    "fano": (fano, ()),
    "biplane_11": (biplane_11, ()),
    "biplane_16": (biplane_16, ()),
}


def build(name: str, **params):
    """Build a named family member: a Graph or a SymmetricDesign."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(_BUILDERS)}")
    fn, argnames = _BUILDERS[name]
    missing = [a for a in argnames if a not in params]
    extra = [a for a in params if a not in argnames]
    if missing or extra:
        raise ValueError(f"family {name} takes parameters {argnames}, got {sorted(params)}")
    return fn(**{a: int(params[a]) for a in argnames})


def parse_family_spec(spec: str):
    """'petersen' or 'hamming:d=4,q=2' -> built object."""
    if ":" in spec:
        name, argpart = spec.split(":", 1)
        params = {}
        for piece in argpart.split(","):
            if "=" not in piece:
                raise ValueError(f"malformed family parameter {piece!r}")
            key, val = piece.split("=", 1)
            params[key.strip()] = int(val)
        return build(name.strip(), **params)
    return build(spec.strip())


# -- file loading ----------------------------------------------------------------------


def load(path: str | Path, fmt: str):
    """Load a graph or scheme input from a file; loaders reject malformed input."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if fmt == "graph6":
        lines = [ln for ln in raw.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise ValueError(f"graph6 file must contain exactly one graph, found {len(lines)} lines")
        return parse_graph6(lines[0])
    if fmt == "json_graph":
        return Graph.from_json_dict(_load_json(raw))
    if fmt == "json_scheme":
        return AssociationScheme.from_json_dict(_load_json(raw))
    raise ValueError(f"unknown format {fmt!r}")


def _load_json(raw: bytes) -> dict:
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


# -- corpus ------------------------------------------------------------------------------


def corpus_graphs() -> dict[str, Graph]:
    """The graphs every suite runs over, with stable names and numbering."""
    return {
        "c5": cycle(5),
        "c6": cycle(6),
        "c7": cycle(7),
        "k33": complete_bipartite(3, 3),
        "petersen": petersen(),
        "cube": cube(3),
        "rook_3": hamming(2, 3),
        "triangular_5": johnson(5, 2),
        "icosahedron": icosahedron(),
        "heawood": heawood(),
        "q4": cube(4),
        "biplane11_incidence": incidence_graph(biplane_11()),
        "biplane16_incidence": incidence_graph(biplane_16()),
    }


def corpus_summary(name: str, obj) -> dict:
    """Stable summary facts used by the manifest."""
    if isinstance(obj, Graph):
        return {
            "kind": "graph",
            "n": obj.n,
            "m": obj.edge_count,
            "graph6": emit_graph6(obj),
        }
    if isinstance(obj, SymmetricDesign):
        return {
            "kind": "design",
            "v": obj.v,
            "k": obj.k,
            "lambda": obj.lam,
            "blocks": [list(b) for b in obj.blocks],
        }
    raise TypeError(f"no summary for {type(obj).__name__}")


def manifest() -> dict:
    """Name -> summary hash for the shipped corpus."""
    out = {}
    designs = {"fano": fano(), "biplane_11": biplane_11(), "biplane_16": biplane_16()}
    for name, g in sorted(corpus_graphs().items()):
        digest = hashlib.sha256(dump_json(corpus_summary(name, g)).encode()).hexdigest()
        out[name] = {"kind": "graph", "summary_sha256": digest}
    for name, d in sorted(designs.items()):
        digest = hashlib.sha256(dump_json(corpus_summary(name, d)).encode()).hexdigest()
        out[name] = {"kind": "design", "summary_sha256": digest}
    return out
