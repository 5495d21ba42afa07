"""Experiment B-perf (simulator side): event throughput of the flit-exact
worm engine under steady Poisson load.

The headline events/sec of each size is persisted to
``BENCH_perf_sim.json`` at the repository root (see
:mod:`benchmarks.perf_record`) so the kernel's perf trajectory is
tracked across PRs.  ``test_kernel_speedup`` additionally runs the
current (v3, calendar) kernel against the frozen v2 heapq kernel in an
interleaved same-session A/B -- on the bench scenario and on a
deep-queue scenario -- verifying bitwise-identical results on the way
and recording both ratios.
"""

import dataclasses
import time

import pytest

from perf_record import latest_metric, record_metric
from repro.core import TrafficSpec
from repro.routing import QuarcRouting
from repro.sim import ENGINE_VERSION, NocSimulator, SimConfig, cext
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets


@pytest.mark.parametrize("n", [16, 64])
def test_sim_throughput(benchmark, n, quick_sim_config):
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    sim = NocSimulator(topo, routing)
    sets = random_multicast_sets(routing, group_size=max(3, n // 8), seed=1)
    spec = TrafficSpec(0.024 / n, 0.05, 32, sets)
    cfg = dataclasses.replace(
        quick_sim_config, target_unicast_samples=500, target_multicast_samples=100
    )
    # one warm-up round fills the simulator's route caches; the recorded
    # number is the best of 5 measured rounds, identical to what the
    # --benchmark-json artifact reports
    result = benchmark.pedantic(
        sim.run, args=(spec, cfg), rounds=5, iterations=1, warmup_rounds=1
    )
    assert result.target_met
    best = benchmark.stats.stats.min
    events_per_sec = result.events / best
    rate = result.events / max(result.sim_time, 1.0)
    print(f"\n{topo.name}: {result.events} events over {result.sim_time:.0f} cycles "
          f"({rate:.1f} events/cycle; {events_per_sec:,.0f} events/sec)")
    record_metric(
        f"sim_throughput[{n}]",
        {
            "engine_version": ENGINE_VERSION,
            "kernel": result.kernel,
            "events": result.events,
            "best_seconds": best,
            "events_per_sec": round(events_per_sec),
        },
    )


def _ab_pair(spec, cfg, topo, routing, *, rounds=5, best_of=3,
             kernels=("heap", "calendar")):
    """Interleaved kernel A/B on one scenario: median of ``rounds``
    best-of-``best_of`` pairwise ratios on process CPU time, plus an
    exact result-identity check.  Returns (old ev/s, new ev/s, speedup,
    events) for ``kernels = (old, new)``."""
    old_kernel, new_kernel = kernels
    sim_v2 = NocSimulator(topo, routing, kernel=old_kernel)
    sim_v3 = NocSimulator(topo, routing, kernel=new_kernel)
    r2 = sim_v2.run(spec, cfg)  # warm route caches on both paths
    r3 = sim_v3.run(spec, cfg)
    assert r3.events == r2.events and r3.sim_time == r2.sim_time
    assert r3.unicast.mean == r2.unicast.mean
    assert r3.multicast.count == r2.multicast.count

    def best(sim):
        b = float("inf")
        for _ in range(best_of):
            t0 = time.process_time_ns()
            sim.run(spec, cfg)
            b = min(b, time.process_time_ns() - t0)
        return b / 1e9

    pairs = sorted(
        (best(sim_v2), best(sim_v3)) for _ in range(rounds)
    )
    ratios = sorted(h / c for h, c in pairs)
    speedup = ratios[len(ratios) // 2]
    best_v2 = min(h for h, _ in pairs)
    best_v3 = min(c for _, c in pairs)
    return r3.events / best_v2, r3.events / best_v3, speedup, r3.events


@pytest.mark.parametrize("n", [64])
def test_kernel_speedup(n):
    """v2 (heapq) vs v3 (calendar) interleaved A/B, recorded per PR.

    Two regimes are measured: the standing light-load bench scenario
    (shallow queues, a handful of pending events -- C heapq's best
    case) and a deep-queue scenario (large network near saturation,
    hundreds-to-thousands of pending events -- the regime the calendar's
    O(1) scheduling is for, and where the paper's latency-vs-load curves
    spend their events).
    """
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    sets = random_multicast_sets(routing, group_size=max(3, n // 8), seed=1)
    spec = TrafficSpec(0.024 / n, 0.05, 32, sets)
    cfg = SimConfig(seed=2009, warmup_cycles=1_500.0, target_unicast_samples=500,
                    target_multicast_samples=100, max_cycles=1_000_000.0)
    v2_eps, v3_eps, speedup, events = _ab_pair(spec, cfg, topo, routing)

    deep_n = 1024
    deep_topo = QuarcTopology(deep_n)
    deep_routing = QuarcRouting(deep_topo)
    deep_sets = random_multicast_sets(deep_routing, group_size=deep_n // 8, seed=1)
    deep_spec = TrafficSpec(8.0 * 0.024 / deep_n, 0.05, 32, deep_sets)
    deep_cfg = SimConfig(seed=2009, warmup_cycles=500.0, target_unicast_samples=300,
                         target_multicast_samples=60, max_cycles=120_000.0)
    d_v2, d_v3, d_speedup, d_events = _ab_pair(
        deep_spec, deep_cfg, deep_topo, deep_routing, rounds=3, best_of=1
    )

    prev = latest_metric(f"kernel_speedup[{n}]")
    prev_note = (
        f" (previous recorded: {prev.get('speedup')}x)" if prev else ""
    )
    print(f"\nkernel A/B [{n}] light load: v2 {v2_eps:,.0f} ev/s, "
          f"v3 {v3_eps:,.0f} ev/s, speedup {speedup:.2f}x{prev_note}")
    print(f"kernel A/B [{deep_n}] deep queue: v2 {d_v2:,.0f} ev/s, "
          f"v3 {d_v3:,.0f} ev/s, speedup {d_speedup:.2f}x")
    record_metric(
        f"kernel_speedup[{n}]",
        {
            "old_engine": 2,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "heap",
            "new_kernel": "calendar",
            "old_events_per_sec": round(v2_eps),
            "new_events_per_sec": round(v3_eps),
            "speedup": round(speedup, 3),
            "note": "interleaved A/B, median pairwise ratio on CPU time, "
                    "bench scenario (light load, shallow queue)",
        },
    )
    record_metric(
        f"kernel_speedup[{deep_n}]",
        {
            "old_engine": 2,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "heap",
            "new_kernel": "calendar",
            "old_events_per_sec": round(d_v2),
            "new_events_per_sec": round(d_v3),
            "speedup": round(d_speedup, 3),
            "note": "interleaved A/B, deep-queue scenario (N=1024 near "
                    "saturation): the calendar kernel's target regime",
        },
    )
    # both kernels must at least be in the same performance class; the
    # identity assertions inside _ab_pair are the hard gate
    assert speedup > 0.5 and d_speedup > 0.5


@pytest.mark.skipif(
    not cext.available(),
    reason=f"compiled kernel not built: {cext.unavailable_reason()}",
)
def test_c_kernel_speedup():
    """Compiled fast path vs the calendar kernel, same interleaved A/B
    methodology, on the same two regimes as ``test_kernel_speedup``.

    The tracked goal for the compiled kernel is >= 3x on the
    bench_perf_sim[64] scenario.  The measured ratio is recorded either
    way -- a miss shows up in BENCH_perf_sim.json and the printed note,
    never by quietly weakening the measurement -- and the hard assert
    only guards against a regression that would make the native loop
    pointless (it must convincingly beat the kernel it replaces)."""
    n = 64
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    sets = random_multicast_sets(routing, group_size=max(3, n // 8), seed=1)
    spec = TrafficSpec(0.024 / n, 0.05, 32, sets)
    cfg = SimConfig(seed=2009, warmup_cycles=1_500.0, target_unicast_samples=500,
                    target_multicast_samples=100, max_cycles=1_000_000.0)
    py_eps, c_eps, speedup, events = _ab_pair(
        spec, cfg, topo, routing, kernels=("calendar", "c")
    )

    deep_n = 1024
    deep_topo = QuarcTopology(deep_n)
    deep_routing = QuarcRouting(deep_topo)
    deep_sets = random_multicast_sets(deep_routing, group_size=deep_n // 8, seed=1)
    deep_spec = TrafficSpec(8.0 * 0.024 / deep_n, 0.05, 32, deep_sets)
    deep_cfg = SimConfig(seed=2009, warmup_cycles=500.0, target_unicast_samples=300,
                         target_multicast_samples=60, max_cycles=120_000.0)
    d_py, d_c, d_speedup, d_events = _ab_pair(
        deep_spec, deep_cfg, deep_topo, deep_routing, rounds=3, best_of=1,
        kernels=("calendar", "c"),
    )

    target = 3.0
    verdict = "target met" if speedup >= target else "below the 3x target"
    print(f"\nc kernel A/B [{n}] light load: calendar {py_eps:,.0f} ev/s, "
          f"c {c_eps:,.0f} ev/s, speedup {speedup:.2f}x ({verdict})")
    print(f"c kernel A/B [{deep_n}] deep queue: calendar {d_py:,.0f} ev/s, "
          f"c {d_c:,.0f} ev/s, speedup {d_speedup:.2f}x")
    record_metric(
        f"kernel_speedup[c-{n}]",
        {
            "old_engine": ENGINE_VERSION,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "calendar",
            "new_kernel": "c",
            "old_events_per_sec": round(py_eps),
            "new_events_per_sec": round(c_eps),
            "speedup": round(speedup, 3),
            "target": target,
            "target_met": speedup >= target,
            "note": "compiled dispatch fast path vs calendar kernel, "
                    "bench scenario (light load, shallow queue)",
        },
    )
    record_metric(
        f"kernel_speedup[c-{deep_n}]",
        {
            "old_engine": ENGINE_VERSION,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "calendar",
            "new_kernel": "c",
            "old_events_per_sec": round(d_py),
            "new_events_per_sec": round(d_c),
            "speedup": round(d_speedup, 3),
            "note": "compiled dispatch fast path vs calendar kernel, "
                    "deep-queue scenario (N=1024 near saturation)",
        },
    )
    assert speedup > 1.5 and d_speedup > 1.5


def test_scripted_engine_raw_speed(benchmark):
    """Raw engine cost: 200 back-to-back worms through one shared path."""
    from repro.sim.reference import ScriptedWorm
    from repro.sim.scripted import run_scripted

    worms = [
        ScriptedWorm(uid, uid * 3, (0, 1, 2, 3, 4), 16) for uid in range(1, 201)
    ]
    results = benchmark(run_scripted, 6, worms)
    assert len(results) == 200
