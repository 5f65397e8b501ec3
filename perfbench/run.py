"""qpolykit benchmark: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py [--workload {tridiag,graph,scheme,scan}] \
        [--seed N] [--seconds T] [--trace {0,1}]

Run from the root of a qpolykit checkout; the package is imported from
``src/``.  Each workload runs in fresh single-threaded child processes
(``child.py``), one workload at a time; without ``--workload`` all four run
in turn.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
several fresh processes, interpreter start to first instance ready),
verified instances per second, the median and 90th-percentile verdict time,
and the child's peak resident memory.  The workload's round of instances
runs repeatedly for ``--seconds``, at least three times; each instance's
verdict time is the median of its rounds, normalised to a fixed nominal
core speed by a periodic probe (``speed.py``), since other tenants of a
shared core slow a run by up to 1.9x in phases.  The raw wall times are
printed beside them.  ``--trace 1`` runs one round untraced and one traced
with ``tracer.py``, checks that the report digests agree, and reports calls
and self time per qpolykit function plus the tracing overhead; the spans
are written to ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With all
workloads, the metric names are prefixed with ``<workload>.``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed to first instance ready, the main run included
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set and dict order, so the same work, on every run
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run child.py; returns (seconds from spawn to "ready", parsed result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "ready":
            raise RuntimeError(f"child did not get ready: {first!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def verdict_stats(times: list[float], verified_per_round: float) -> dict:
    """instances_per_s, verdict_ms_p50 and verdict_ms_p90 from each instance's verdict time."""
    return {
        "instances_per_s": (verified_per_round / sum(times), "1/s", len(times)),
        "verdict_ms_p50": (1000 * statistics.median(times), "ms", len(times)),
        "verdict_ms_p90": (1000 * statistics.quantiles(times, n=10, method="inclusive")[-1], "ms", len(times)),
    }


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    """Metric -> (value, unit, sample count); verdict times are each instance's
    median round at the nominal core speed."""
    verified_per_round = result["verified"] / len(result["round_s"])
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        **verdict_stats(result["times"], verified_per_round),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB", 1),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> tuple[dict, dict]:
    """Print the workload's human-readable lines; returns (child result, metrics)."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        _, result = spawn(common + ["--trace"], deadline)
        units = child.per_layer_units()
        metrics = {m: (result["metrics"][m], unit, result["instances"]) for m, unit in units.items()}
        print(f"{name}: spans written to {result['trace_file']}")
    else:
        setup_samples = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, result = spawn(common, deadline)
        setup_samples.append(ready)
        metrics = end_to_end(result, setup_samples)
        print(
            f"{name}: {len(result['round_s'])} timed rounds of {len(result['times'])} instances: "
            f"{' '.join(f'{t:.3f}' for t in result['round_s'])} s; "
            f"verdict times are each instance's median round"
        )
        raw = verdict_stats(result["raw_times"], result["verified"] / len(result["round_s"]))
        print(
            f"{name}: core speed probed {result['probes']} times, fastest {result['probe_reference_us']:.2f} us, "
            f"mean speed {result['mean_speed']:.3f} of it; raw wall times: "
            + ", ".join(f"{m} = {v:.6g} {u}" for m, (v, u, _) in raw.items())
        )
        print(
            f"{name}: {result['digests_checked']} report digests checked, "
            f"{result['annotation_mismatches']} decimal annotations off"
        )
    print(f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} ({result['attempted']} instances)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit} ({samples} samples)")
    return result, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (Path("src") / "qpolykit" / "__init__.py").is_file():
        print("error: run from the root of a qpolykit checkout (src/qpolykit not found)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result, wl_metrics = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u, _) in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
