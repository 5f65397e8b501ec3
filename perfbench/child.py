"""One workload in one fresh, single-threaded process.

Started by ``run.py``; not meant to be run by hand except for ``--record``.

    child.py --workload W --seed S --setup-only     generate inputs, print "ready", exit
    child.py --workload W --seed S --seconds T      timed loop, tracing off
    child.py --workload W --seed S --trace          one untraced and one traced pass
    child.py --record [--workload W]                rewrite expected.json

Every mode but ``--record`` prints ``ready`` once set-up is done and a JSON
result as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Workload, digest, expected_digest  # noqa: E402

OUT_DIR = HERE / "out"
MIN_ROUNDS = 3  # the median of an instance's rounds needs three

LAYERS = ("polynomials", "algebraics", "numberfield", "tridiagonal", "graphs", "schemes", "scanner")
FRONT_END = ("cli", "serialize", "families")
# per-layer metric name -> span name, where the method's class is left out
SPAN_ALIASES = {
    "polynomials.sign_at": "polynomials.RationalPoly.sign_at",
    "algebraics.refine": "algebraics.AlgebraicReal.refine",
}
CALLS_AND_SELF = (
    "polynomials.sign_at",
    "polynomials.sturm_chain",
    "algebraics.compare",
    "algebraics.apply_rational_poly",
    "tridiagonal.spectrum",
    "tridiagonal.triple_bound",
    "tridiagonal.compare_shifted_product",
    "tridiagonal.charpoly_by_cofactor",
    "graphs.adjacency_charpoly",
    "numberfield.field_containing",
    "numberfield.adjoin_root",
    "schemes.eigendata",
    "schemes.krein",
    "schemes.find_q_orderings",
    "schemes.dual_bounds",
    "schemes.dual_fundamental_bound",
    "schemes.class3_dualtight_audit",
    "schemes.structure_from_dual_parameters",
    "scanner.check_candidate",
    "serialize.dump_json",
)
CALLS_ONLY = ("algebraics.refine", "numberfield.FieldElement.mul")
SELF_ONLY = ("graphs.classify_regularity", "graphs.pair_bound_all_vertices", "cli.main")
ISOLATION = ("algebraics.isolate_real_roots", "algebraics.isolate_real_roots_with_multiplicity")
CACHED = ("sturm_chain", "squarefree_part")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["algebraics.isolate_real_roots.calls"] = "count"
    units["algebraics.isolate_real_roots.self_s"] = "s"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CACHED:
        units[f"polynomials.{name}.cache_hit_ratio"] = "ratio"
    units["algebraics.compare.gcd_fallback_ratio"] = "ratio"
    units["scanner.wasted_spectrum_ratio"] = "ratio"
    units["scanner.spectrum_per_survivor"] = "count"
    for layer in LAYERS + ("front_end",):
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.untraced_s"] = "s"
    units["trace.traced_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class CacheStats:
    """Accumulates qpolykit's lru_cache statistics across cache clears."""

    def __init__(self) -> None:
        from qpolykit import polynomials

        self.caches = {name: getattr(polynomials, name) for name in CACHED}
        self.all_caches = {
            id(obj): obj
            for mod in tracer.qpolykit_modules()
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear")
        }
        self.hits = dict.fromkeys(CACHED, 0)
        self.misses = dict.fromkeys(CACHED, 0)

    def clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
        for cache in self.all_caches.values():
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def run_round(wl: Workload, instances, expected: dict, caches: CacheStats, tr=None) -> list[Outcome]:
    """Run instances from cold caches; every outcome carries its problems.

    With a tracer, each instance's spans carry its position in ``instances``.
    """
    caches.clear()
    outcomes = []
    clock = time.perf_counter
    for j, inst in enumerate(instances):
        if tr is not None:
            tr.instance = j
        if wl.cold_instances and j:
            caches.clear()
        t0 = clock()
        try:
            report, verdict = inst.execute()
            problems = inst.verify(verdict)
        except Exception as exc:  # a raising instance is a failed instance, not a crashed run
            report, verdict, problems = b"", None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = clock() - t0
        d = digest(report)
        want = expected_digest(expected, wl.name, inst)
        if want is not None and want != d:
            problems.append(f"report digest {d} differs from recorded {want}")
        outcomes.append(Outcome(inst, elapsed, d, problems, verdict, t0))
    round_problems = wl.round_check(outcomes) if all(o.verdict is not None for o in outcomes) else []
    for o in outcomes:
        o.problems.extend(round_problems)
    return outcomes


def summarize(outcomes: list[Outcome], expected: dict, wl: Workload) -> dict:
    failed = [o for o in outcomes if o.problems]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": [f"{o.instance.key}: {'; '.join(o.problems)}" for o in failed[:5]],
        "digests_checked": sum(expected_digest(expected, wl.name, o.instance) is not None for o in outcomes),
        "annotation_mismatches": sum(
            bool(o.instance.annotate and o.verdict is not None and o.instance.annotate(o.verdict))
            for o in outcomes
        ),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def timed(wl: Workload, caches: CacheStats, seconds: float, expected: dict) -> dict:
    """Whole rounds while the next is expected to end within ``seconds`` (at
    least ``MIN_ROUNDS``); tracing off, core speed probed (``speed.py``).

    Every round is checked, then dropped, so memory does not grow with the
    number of rounds.  An instance's verdict time is the median of its
    rounds, each normalised to a fixed nominal core speed; ``raw_times``
    holds the median wall times.  Across runs of the same code the median
    of normalised times spread less than their minimum: the probe's slowdown
    in a slow phase is close to, not equal to, an instance's.  The first
    round needs no separate warm-up: it measured no slower than the rest.
    """
    start = time.perf_counter()
    round_s: list[float] = []
    samples: list[list[tuple[float, float]]] = [[] for _ in wl.instances]  # (start, seconds) per round
    digests: list[str] = []
    result = dict.fromkeys(("attempted", "failed", "digests_checked", "annotation_mismatches"), 0)
    problems: list[str] = []
    with speed.SpeedProbe() as probe:
        while len(round_s) < MIN_ROUNDS or time.perf_counter() - start + sum(round_s) / len(round_s) <= seconds:
            t0 = time.perf_counter()
            outcomes = run_round(wl, wl.instances, expected, caches)
            round_s.append(time.perf_counter() - t0)
            if not digests:
                digests = [o.digest for o in outcomes]
            for j, o in enumerate(outcomes):
                samples[j].append((o.started, o.seconds))
                if o.digest != digests[j]:  # seeds without recorded digests are still held to byte-stable reports
                    o.problems.append(f"report digest {o.digest} differs from the first round's {digests[j]}")
            summary = summarize(outcomes, expected, wl)
            problems.extend(summary.pop("problems"))
            for key, count in summary.items():
                result[key] += count
            del outcomes
    result.update(
        problems=problems[:5],
        times=[statistics.median(s * probe.scale(t, t + s) for t, s in runs) for runs in samples],
        raw_times=[statistics.median(s for _, s in runs) for runs in samples],
        verified=result["attempted"] - result["failed"],
        round_s=round_s,
        peak_rss_mib=peak_rss_mib(),
        probes=len(probe.durations),
        probe_reference_us=1e6 * probe.reference(),
        mean_speed=probe.mean_speed(),
    )
    return result


def traced(wl: Workload, caches: CacheStats, expected: dict, trace_path: Path) -> dict:
    """One untraced and one traced round; per-layer metrics from the spans."""
    start = time.perf_counter()
    plain = run_round(wl, wl.instances, expected, caches)
    untraced_s = time.perf_counter() - start

    caches = CacheStats()  # fresh statistics for the traced round
    tr = tracer.Tracer()
    start = time.perf_counter()
    with tr:
        outcomes = run_round(wl, wl.instances, expected, caches, tr)
    traced_s = time.perf_counter() - start
    caches.clear()
    tr.write(trace_path)

    for a, b in zip(plain, outcomes):
        if a.digest != b.digest:
            b.problems.append(f"tracing changed the report digest from {a.digest} to {b.digest}")
    result = summarize(plain + outcomes, expected, wl)
    result["metrics"] = layer_metrics(wl, tr, caches, outcomes, untraced_s, traced_s)
    result.update(instances=len(outcomes), peak_rss_mib=peak_rss_mib(), trace_file=str(trace_path))
    return result


def layer_metrics(
    wl: Workload, tr, caches: CacheStats, outcomes: list[Outcome], untraced_s: float, traced_s: float
) -> dict:
    agg = tracer.aggregate(tr)
    names = tr.names

    def span(metric_name: str) -> dict:
        return agg.get(SPAN_ALIASES.get(metric_name, metric_name), {"calls": 0, "self_s": 0.0})

    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = span(name)["calls"]
        m[f"{name}.self_s"] = span(name)["self_s"]
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = span(name)["calls"]
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = span(name)["self_s"]

    # the multiplicity variant calls isolate_real_roots per factor: count
    # outermost isolation calls, add up the self time of both
    iso_ids = {i for i, n in enumerate(names) if n in ISOLATION}
    outer = sum(
        1 for i, nid in enumerate(tr.name_col)
        if nid in iso_ids and not (tr.parent_col[i] >= 0 and tr.name_col[tr.parent_col[i]] in iso_ids)
    )
    m["algebraics.isolate_real_roots.calls"] = outer
    m["algebraics.isolate_real_roots.self_s"] = sum(span(n)["self_s"] for n in ISOLATION)

    for name in CACHED:
        m[f"polynomials.{name}.cache_hit_ratio"] = caches.hit_ratio(name)

    # budget exhaustion in compare shows as a poly_gcd span directly under it
    compare_id = tr.name_ids.get("algebraics.compare")
    gcd_id = tr.name_ids.get("polynomials.poly_gcd")
    with_gcd = {
        tr.parent_col[i] for i, nid in enumerate(tr.name_col)
        if nid == gcd_id and tr.parent_col[i] >= 0 and tr.name_col[tr.parent_col[i]] == compare_id
    }
    compares = span("algebraics.compare")["calls"]
    m["algebraics.compare.gcd_fallback_ratio"] = len(with_gcd) / compares if compares else 0.0

    if wl.name == "scan":
        records = [o.verdict for o in outcomes]
        tallies = workloads.scan_tallies(outcomes)
        passed_structure = tallies["candidates"] - tallies["structure"]
        wasted = tallies["multiplicity"] + tallies["krein_condition"]
        m["scanner.wasted_spectrum_ratio"] = wasted / passed_structure if passed_structure else 0.0
        survivor_ids = {i for i, r in enumerate(records) if r.survived}
        spectrum_id = tr.name_ids.get("tridiagonal.spectrum")
        spectra = sum(
            1 for i, nid in enumerate(tr.name_col)
            if nid == spectrum_id and tr.instance_col[i] in survivor_ids
        )
        m["scanner.spectrum_per_survivor"] = spectra / len(survivor_ids) if survivor_ids else 0.0
    else:
        m["scanner.wasted_spectrum_ratio"] = 0.0
        m["scanner.spectrum_per_survivor"] = 0.0

    totals = dict.fromkeys(LAYERS + ("front_end",), 0.0)
    for name, entry in agg.items():
        layer = name.split(".", 1)[0]
        layer = "front_end" if layer in FRONT_END else layer
        if layer in totals:
            totals[layer] += entry["self_s"]
    for layer, t in totals.items():
        m[f"layer.{layer}.self_s"] = t

    m["trace.spans"] = len(tr)
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    return m


def record(names: list[str]) -> None:
    """Run every recorded instance of the named workloads once and write its
    report digest; the other workloads' digests are kept."""
    expected = workloads.load_expected()
    for name in names:
        groups: dict[str, list[str]] = {}
        for seed in workloads.RECORDED_SEEDS:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                wl = workloads.build(name, seed, Path(tmp))
                outcomes = run_round(wl, wl.instances, {}, CacheStats())
            bad = [o for o in outcomes if o.problems]
            if bad:
                raise SystemExit(f"{name}: {bad[0].instance.key}: {bad[0].problems}")
            for o in outcomes:
                slots = groups.setdefault(o.instance.group, [])
                slots.extend([None] * (o.instance.index + 1 - len(slots)))
                if slots[o.instance.index] not in (None, o.digest):
                    raise SystemExit(f"{name}: {o.instance.key} is not byte-stable")
                slots[o.instance.index] = o.digest
            print(f"recorded {name} seed {seed}: {len(outcomes)} instances", file=sys.stderr)
        expected[name] = groups
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args()
    # one fixed CPU, so the scheduler never migrates the run and costs it cache warmth
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        record([args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl, caches = workloads.build(args.workload, args.seed, Path(tmp)), CacheStats()
        expected = workloads.load_expected()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.bin"
            result = traced(wl, caches, expected, path)
        else:
            result = timed(wl, caches, args.seconds, expected)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
