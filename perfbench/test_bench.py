"""Self-tests of the benchmark harness: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _scheme_round(tmp_path, names):
    wl = workloads.build("scheme", workloads.DEFAULT_SEED, tmp_path)
    return wl, [inst for inst in wl.instances if inst.key in names]


def _failed_frac(wl, insts, expected):
    result = child.summarize(child.run_round(wl, insts, expected, child.CacheStats()), expected, wl)
    return result["failed"] / result["attempted"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {"times": [0.1, 0.2, 0.3], "raw_times": [0.2, 0.3, 0.4], "verified": 6, "round_s": [0.7, 0.6], "peak_rss_mib": 30.0}
    reported = {name: unit for name, (_, unit, _) in run.end_to_end(fake, [0.5]).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == reported
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == child.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_flipped_expected_answer_raises_failed_frac(tmp_path, monkeypatch):
    wl, insts = _scheme_round(tmp_path, {"petersen", "johnson:n=7,k=3"})
    expected = workloads.load_expected()
    assert _failed_frac(wl, insts, expected) == 0

    q_poly, orderings, dual_tight = workloads.SCHEME_ANSWERS["petersen"]
    monkeypatch.setitem(workloads.SCHEME_ANSWERS, "petersen", (not q_poly, orderings, dual_tight))
    wl, insts = _scheme_round(tmp_path, {"petersen", "johnson:n=7,k=3"})
    assert _failed_frac(wl, insts, expected) == 0.5


def test_changed_report_digest_is_a_failure(tmp_path):
    wl, insts = _scheme_round(tmp_path, {"petersen"})
    expected = json.loads(json.dumps(workloads.load_expected()))
    slots = expected["scheme"]["fixed"]
    slots[insts[0].index] = "0" * 16
    assert _failed_frac(wl, insts, expected) == 1


def test_scan_tallies_are_checked_per_round():
    from types import SimpleNamespace

    record = SimpleNamespace(rejected_at=None, dual_tight=False)
    outcomes = [workloads.Outcome(None, 0.0, "", [], record)]
    assert workloads.scan_tallies(outcomes)["survivors"] == 1
    assert workloads.SCAN_TALLIES["candidates"] == len(workloads.scan_candidates())
    assert workloads.build("scan", 1, None).round_check(outcomes)


def test_timed_gives_each_instance_a_verdict_time_and_flags_unstable_reports():
    counter = iter(range(100))
    wl = workloads.Workload("fake", [
        workloads.Instance("stable", "fixed", 0, lambda: (b"same", None), lambda verdict: []),
        workloads.Instance("unstable", "fixed", 1, lambda: (str(next(counter)).encode(), None), lambda verdict: []),
    ])
    result = child.timed(wl, child.CacheStats(), 0.0, {})
    assert len(result["round_s"]) == child.MIN_ROUNDS == 3
    assert (result["attempted"], result["failed"], result["verified"]) == (6, 2, 4)
    assert "unstable" in result["problems"][0]
    assert len(result["times"]) == len(result["raw_times"]) == 2


def test_speed_probe_scales_by_the_probes_a_timing_covers():
    probe = speed.SpeedProbe()
    # 1000 probes at 10 ms steps: fast for the first half, 1.6x slower after
    fast = speed.NOMINAL_PROBE_S * 1.1
    probe.starts.extend(0.01 * i for i in range(1000))
    probe.durations.extend(fast if i < 500 else 1.6 * fast for i in range(1000))
    probe.durations[700] = 1.0  # a probe hit by an interrupt
    assert probe.reference() == fast
    assert probe.scale(1.0, 1.05) == pytest.approx(1 / 1.1)
    assert probe.scale(6.0005, 6.001) == pytest.approx(1 / 1.1 / 1.6)  # only the last probe before it
    assert probe.scale(4.995, 5.045) == pytest.approx((1 + 5 / 1.6) / 6 / 1.1)
    assert probe.scale(7.0005, 7.001) == pytest.approx(1 / 1.1 / speed.MAX_SLOWDOWN)
    assert 1 / 1.6 < probe.mean_speed() < 1


def test_speed_probe_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        time.sleep(0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 2


def _bindings():
    """Every (holder, attribute) -> object binding the tracer may touch."""
    out = {}
    for mod in tracer.qpolykit_modules():
        holders = [mod] + [
            obj for obj in vars(mod).values() if inspect.isclass(obj) and obj.__module__ == mod.__name__
        ]
        for holder in holders:
            for attr, obj in vars(holder).items():
                out[(id(holder), attr)] = obj
    return out


def test_tracer_replaces_every_binding_and_restores_it():
    from qpolykit import algebraics, graphs, numberfield, schemes

    before = _bindings()
    original_compare = algebraics.compare
    original_mul = vars(numberfield.FieldElement)["__mul__"]
    tr = tracer.Tracer()
    with tr:
        # compare is bound in algebraics and re-bound by from-imports elsewhere
        for mod in (algebraics, graphs, schemes):
            assert mod.compare is not original_compare
            assert mod.compare.__wrapped__ is original_compare
        assert vars(numberfield.FieldElement)["__mul__"].__wrapped__ is original_mul
        assert vars(numberfield.FieldElement)["__rmul__"].__wrapped__ is original_mul
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_is_span_time_minus_child_span_time():
    tr = tracer.Tracer()
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds leaf [6, 7]
    for name, start, end, parent in (
        ("outer", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 7.0, 2),
        ("a", 11.0, 12.5, -1),
    ):
        tr.name_col.append(tr._name_id(name))
        tr.start_col.append(start)
        tr.end_col.append(end)
        tr.parent_col.append(parent)
        tr.instance_col.append(0)
    assert tracer.self_times(tr) == [3.0, 3.0, 3.0, 1.0, 1.5]
    agg = tracer.aggregate(tr)
    assert agg["a"] == {"calls": 2, "self_s": 4.5}
    assert agg["outer"] == {"calls": 1, "self_s": 3.0}


def test_wrapped_calls_nest_under_their_caller():
    tr = tracer.Tracer()

    def leaf():
        return 1

    wrapped_leaf = tr.wrap(leaf, "leaf")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert tr.wrap(outer, "outer")() == 2
    names = [tr.names[i] for i in tr.name_col]
    assert names == ["outer", "leaf", "leaf"]
    assert list(tr.parent_col) == [-1, 0, 0]
    own = tracer.self_times(tr)
    durations = [e - s for s, e in zip(tr.start_col, tr.end_col)]
    assert own[0] == pytest.approx(durations[0] - durations[1] - durations[2])


def test_tracing_changes_no_report(tmp_path):
    wl, insts = _scheme_round(tmp_path, {"petersen", "heawood"})
    plain = child.run_round(wl, insts, {}, child.CacheStats())
    caches = child.CacheStats()
    with tracer.Tracer() as tr:
        traced = child.run_round(wl, insts, {}, caches, tr)
    assert len(tr) > 0
    assert [o.digest for o in plain] == [o.digest for o in traced]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
