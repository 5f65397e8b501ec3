"""The four benchmark workloads: input generation, runners and oracles.

Every workload is one fixed list of instances, a round.  The timed loop
repeats whole rounds.  qpolykit's lru caches are cleared before each round,
or before each instance where an instance stands for one ``qpolykit``
command (graph, scheme), so the caches are as cold as in the process the
instance models.

* ``tridiag``: 300 random tridiagonal systems, 60 for each D = 2..6, the
  shape of ``qpolykit property-suite``.  Loads polynomials, algebraics, tridiagonal.
* ``graph``: ``qpolykit check-graph`` on graph6 files.  Five distance-regular
  graphs (integer spectra, cost is the n x n determinant) and four random
  regular graphs (simple irrational spectra, cost is root isolation).
* ``scheme``: ``qpolykit check-scheme`` on eleven fixed schemes; the cubic
  cycles load numberfield, the rest show the rational/quadratic common case.
* ``scan``: ``scanner.check_candidate`` on the 3024 class-3 candidates with
  m <= 10, each record rendered with ``serialize.dump_json``.

The seed draws the tridiagonal systems and random graphs and shuffles the
order of the round.  qpolykit sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 1
HELDOUT_SEED = 7  # for confirming a claimed gain on a seed it was not tuned on
RECORDED_SEEDS = range(16)  # expected.json holds the report digests of these seeds

EXPECTED_PATH = Path(__file__).with_name("expected.json")

TRIDIAG_DEGREES = (2, 3, 4, 5, 6)
TRIDIAG_PER_DEGREE = 60
GRAPH_RANDOM_SLOTS = ((24, 3), (28, 4), (30, 3), (40, 3))  # (n, k); the median instance is J(8,3)

SCHEME_SPECS = (
    "cycle:n=7",
    "cycle:n=9",
    "cycle:n=8",
    "petersen",
    "icosahedron",
    "heawood",
    "cube:d=4",
    "johnson:n=7,k=3",
    "hamming:d=3,q=3",
)
# (q_polynomial, number of Q-orderings, class-3 dual_tight or None)
SCHEME_ANSWERS = {
    "cycle:n=7": (True, 3, False),
    "cycle:n=9": (True, 3, None),
    "cycle:n=8": (True, 2, None),
    "petersen": (True, 2, None),
    "icosahedron": (True, 2, False),
    "heawood": (True, 2, True),
    "cube:d=4": (True, 2, None),
    "johnson:n=7,k=3": (True, 1, False),
    "hamming:d=3,q=3": (True, 1, False),
    "biplane_11": (True, 2, True),
    "biplane_16": (True, 2, True),
}

SCAN_M_MAX = 10
SCAN_TALLIES = {
    "candidates": 3024,
    "structure": 1869,
    "multiplicity": 488,
    "krein_condition": 447,
    "pair_bound": 0,
    "triple_bound": 0,
    "dual_bound": 0,
    "survivors": 220,
    "dual_tight": 36,
}


@dataclass
class Instance:
    """One verdict: ``execute`` returns (report bytes, verdict), ``verify`` its problems."""

    key: str
    group: str  # "fixed" or "seed=<n>": where expected.json records the digest
    index: int
    execute: Callable[[], tuple[bytes, Any]]
    verify: Callable[[Any], list[str]]
    annotate: Callable[[Any], bool] | None = None  # True when a non-deciding cross-check disagrees


@dataclass
class Outcome:
    instance: Instance
    seconds: float
    digest: str
    problems: list[str]
    verdict: Any = None
    started: float = 0.0  # time.perf_counter() when the instance started


@dataclass
class Workload:
    name: str
    instances: list[Instance]  # one round
    round_check: Callable[[list[Outcome]], list[str]] = lambda outcomes: []
    cold_instances: bool = False  # clear caches before every instance, not every round


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()[:16]


def load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def expected_digest(expected: dict, workload: str, inst: Instance) -> str | None:
    recorded = expected.get(workload, {}).get(inst.group)
    if recorded is None or inst.index >= len(recorded):
        return None
    return recorded[inst.index]


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """``qpolykit <argv>`` in this process; returns (exit code, stdout bytes)."""
    from qpolykit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode()


# -- tridiag ------------------------------------------------------------------------


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 6))


def tridiag_entries(rng: random.Random, d: int):
    """Rejection-sample (alpha, beta, gamma, kappa) with every alpha_i >= 0."""
    while True:
        kappa = Fraction(rng.randint(6, 28), rng.randint(1, 2))
        beta = [kappa] + [_rand_fraction(rng) for _ in range(d - 1)]
        gamma = [Fraction(1)] + [_rand_fraction(rng) for _ in range(d - 1)]
        alpha = [Fraction(0)] + [kappa - beta[i] - gamma[i - 1] for i in range(1, d)]
        alpha.append(kappa - gamma[d - 1])
        if min(alpha) >= 0:
            return alpha, beta, gamma, kappa


def _tridiag_instance(seed: int, index: int, entries) -> Instance:
    alpha, beta, gamma, kappa = entries
    d = len(beta)

    def execute():
        from qpolykit import tridiagonal as tri
        from qpolykit.serialize import rat_str

        system = tri.TridiagonalSystem(d, tuple(alpha), tuple(beta), tuple(gamma), kappa)
        rep = tri.spectrum(system)
        pair = tri.pair_bound(system, rep)
        triple = tri.triple_bound(system, rep) if d >= 3 else None
        inter = tri.interlacing_check(rep)
        oracle = tri.charpoly_by_cofactor(tri.reduced_matrix(system)).monic()
        recurrence = rep.f_polys[-1].monic()
        report = {
            "system": system.to_json_dict(),
            "pair_bound": pair.to_json_dict(),
            "interlacing": inter.passed,
            "charpoly": [rat_str(c) for c in recurrence.coeffs],
            "cofactor_agrees": oracle == recurrence,
        }
        if triple is not None:
            report["triple_bound"] = {
                "hypothesis_sign": triple.hypothesis_sign,
                "branches": [dict(branch=b.branch, **b.check.to_json_dict()) for b in triple.branches],
            }
        verdict = (pair, triple, inter.passed, oracle == recurrence)
        return json.dumps(report, sort_keys=True).encode(), verdict

    def verify(verdict) -> list[str]:
        pair, triple, interlaced, agrees = verdict
        problems = []
        if not pair.holds:
            problems.append("pair bound fails")
        if pair.equality != (d == 2):
            problems.append("pair-bound equality must hold exactly when D = 2")
        if triple is not None:
            if not triple.holds:
                problems.append("triple bound fails")
            if triple.equality != (d == 3):
                problems.append("triple-bound equality must hold exactly when D = 3")
        if not interlaced:
            problems.append("interlacing fails")
        if not agrees:
            problems.append("recurrence disagrees with the cofactor oracle")
        return problems

    return Instance(f"seed={seed}/system={index}/D={d}", f"seed={seed}", index, execute, verify)


def build_tridiag(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    degrees = [d for d in TRIDIAG_DEGREES for _ in range(TRIDIAG_PER_DEGREE)]
    rng.shuffle(degrees)
    insts = [_tridiag_instance(seed, i, tridiag_entries(rng, d)) for i, d in enumerate(degrees)]
    return Workload("tridiag", insts)


# -- graph ----------------------------------------------------------------------------


def _hamming(d: int, q: int):
    import networkx as nx

    g = nx.complete_graph(q)
    for _ in range(d - 1):
        g = nx.cartesian_product(g, nx.complete_graph(q))
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def _johnson(n: int, k: int):
    import networkx as nx

    subsets = list(itertools.combinations(range(n), k))
    g = nx.empty_graph(len(subsets))
    g.add_edges_from(
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if len(set(subsets[i]) & set(subsets[j])) == k - 1
    )
    return g


def random_regular(rng: random.Random, n: int, k: int):
    """Pairing model, rejecting loops, multi-edges and disconnected samples."""
    import networkx as nx

    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == n * k // 2 and all(u != v for u, v in edges):
            g = nx.empty_graph(n)
            g.add_edges_from(sorted(edges))
            if nx.is_connected(g):
                return g


def _graph_instance(name: str, group: str, index: int, g, workdir: Path) -> Instance:
    import networkx as nx
    import numpy as np

    path = workdir / f"graph-{group}-{index}.g6"
    path.write_bytes(nx.to_graph6_bytes(g, header=False))
    n = g.number_of_nodes()
    want_dr, want_sr = nx.is_distance_regular(g), nx.is_strongly_regular(g)
    eigs = np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=range(n)))

    def execute():
        code, out = run_cli(["check-graph", "--input", str(path), "--output", "json"])
        return out, (code, json.loads(out) if code == 0 else None)

    def verify(verdict) -> list[str]:
        code, report = verdict
        if code != 0 or report is None:
            return [f"exit code {code}"]
        problems = []
        cls = report["classification"]
        if cls["distance_regular"] != want_dr:
            problems.append("distance_regular disagrees with networkx")
        if cls["strongly_regular"] != want_sr:
            problems.append("strongly_regular disagrees with networkx")
        if sum(e["multiplicity"] for e in report["spectrum"]) != n:
            problems.append("multiplicities do not sum to n")
        return problems

    def approx_mismatch(verdict) -> bool:
        """Annotation only: do the decimal eigenvalues disagree with numpy's?"""
        code, report = verdict
        if report is None:
            return False
        got = []
        for e in report["spectrum"]:
            v = e["value"]
            x = float(Fraction(v["rational"])) if "rational" in v else v["approx"]
            got.extend([x] * e["multiplicity"])
        return len(got) != n or not np.allclose(sorted(got), eigs, atol=1e-6)

    return Instance(name, group, index, execute, verify, approx_mismatch)


DRG_GRAPHS = (
    ("H(6,2)", lambda: _hamming(6, 2)),
    ("H(3,4)", lambda: _hamming(3, 4)),
    ("H(2,8)", lambda: _hamming(2, 8)),
    ("J(8,3)", lambda: _johnson(8, 3)),
    ("J(9,2)", lambda: _johnson(9, 2)),
)


def build_graph(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    insts = [
        _graph_instance(name, "fixed", i, build(), workdir)
        for i, (name, build) in enumerate(DRG_GRAPHS)
    ]
    for i, (n, k) in enumerate(GRAPH_RANDOM_SLOTS):
        g = random_regular(rng, n, k)
        insts.append(_graph_instance(f"seed={seed}/random{n}k{k}", f"seed={seed}", i, g, workdir))
    rng.shuffle(insts)
    return Workload("graph", insts, cold_instances=True)


# -- scheme -----------------------------------------------------------------------------


def _biplane_incidence(v: int, blocks: list[list[int]]):
    import networkx as nx

    g = nx.empty_graph(2 * v)
    g.add_edges_from((p, v + b) for b, block in enumerate(blocks) for p in block)
    return g


def biplane_11_blocks() -> list[list[int]]:
    """Translates of the quadratic residues mod 11: the 2-(11,5,2) biplane."""
    return [sorted((r + t) % 11 for r in (1, 3, 4, 5, 9)) for t in range(11)]


def biplane_16_blocks() -> list[list[int]]:
    """A (16,6,2) difference set in Z_2^4 and its translates."""
    points = list(itertools.product((0, 1), repeat=4))
    dset = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)]
    index = {p: i for i, p in enumerate(points)}
    return [sorted(index[tuple((x + y) % 2 for x, y in zip(d, t))] for d in dset) for t in points]


def _scheme_instance(name: str, index: int, argv: list[str]) -> Instance:
    want_q, want_orderings, want_dual_tight = SCHEME_ANSWERS[name]

    def execute():
        code, out = run_cli(argv)
        return out, (code, json.loads(out) if code == 0 else None)

    def verify(verdict) -> list[str]:
        code, report = verdict
        if code != 0 or report is None:
            return [f"exit code {code}"]
        problems = []
        if report["q_polynomial"] != want_q:
            problems.append("q_polynomial differs from the known answer")
        if len(report.get("orderings", [])) != want_orderings:
            problems.append("number of Q-orderings differs from the known answer")
        dual_tight = report["classification"]["dual_tight"] if report.get("class") == 3 else None
        if dual_tight != want_dual_tight:
            problems.append("class-3 dual_tight differs from the known answer")
        return problems

    return Instance(name, "fixed", index, execute, verify)


def build_scheme(seed: int, workdir: Path) -> Workload:
    import networkx as nx

    insts = [
        _scheme_instance(spec, i, ["check-scheme", "--from-graph", spec, "--output", "json"])
        for i, spec in enumerate(SCHEME_SPECS)
    ]
    for name, v, blocks in (("biplane_11", 11, biplane_11_blocks()), ("biplane_16", 16, biplane_16_blocks())):
        path = workdir / f"{name}.g6"
        path.write_bytes(nx.to_graph6_bytes(_biplane_incidence(v, blocks), header=False))
        argv = ["check-scheme", "--input", str(path), "--format", "graph6", "--output", "json"]
        insts.append(_scheme_instance(name, len(insts), argv))
    random.Random(seed).shuffle(insts)
    return Workload("scheme", insts, cold_instances=True)


# -- scan ---------------------------------------------------------------------------------


def scan_candidates() -> list[tuple[int, int, int, int]]:
    """(m, b1*, b2*, c2*) in the scanner's lexicographic order, c3* = m."""
    return [
        (m, b1, b2, c2)
        for m in range(2, SCAN_M_MAX + 1)
        for b1 in range(1, m + 1)
        for b2 in range(1, m + 1)
        for c2 in range(1, m + 1)
    ]


def _scan_instance(index: int, params) -> Instance:
    m, b1, b2, c2 = (Fraction(p) for p in params)

    def execute():
        from qpolykit import scanner, serialize

        rec = scanner.check_candidate(scanner.KreinArrayCandidate(m, b1, b2, c2, m))
        return serialize.dump_json(rec.to_json_dict()).encode(), rec

    def verify(rec) -> list[str]:
        if rec.survived and rec.dual_tight:
            if not (rec.b2star_is_1 and rec.b1star_eq_c2star and rec.audit_all_passed):
                return ["dual-tight survivor breaks b2* = 1, b1* = c2* or the audit"]
        return []

    return Instance("m={},b1={},b2={},c2={}".format(*params), "fixed", index, execute, verify)


def scan_tallies(outcomes: list[Outcome]) -> dict:
    tallies = dict.fromkeys(SCAN_TALLIES, 0)
    for o in outcomes:
        rec = o.verdict
        tallies["candidates"] += 1
        if rec.rejected_at is not None:
            tallies[rec.rejected_at] += 1
        else:
            tallies["survivors"] += 1
            tallies["dual_tight"] += rec.dual_tight
    return tallies


def _scan_round_check(outcomes: list[Outcome]) -> list[str]:
    tallies = scan_tallies(outcomes)
    return [] if tallies == SCAN_TALLIES else [f"scan tallies {tallies} differ from {SCAN_TALLIES}"]


def build_scan(seed: int, workdir: Path) -> Workload:
    insts = [_scan_instance(i, p) for i, p in enumerate(scan_candidates())]
    random.Random(seed).shuffle(insts)
    return Workload("scan", insts, round_check=_scan_round_check)


WORKLOADS = {
    "tridiag": build_tridiag,
    "graph": build_graph,
    "scheme": build_scheme,
    "scan": build_scan,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate every input of a workload, writing input files into ``workdir``."""
    return WORKLOADS[name](seed, workdir)
