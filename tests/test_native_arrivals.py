"""The native arrival path against its Python oracle, bit for bit.

Under ``kernel="c"`` the simulator draws its generated arrivals --
Poisson, CBR and ON/OFF timing, bare or under a hotspot -- with
``repro.sim._cstep.ArrivalStream``, and the dispatch loop spawns each
unicast worm and folds its completion into the latency statistics
natively.  :class:`~repro.sim.arrivals.PoissonArrivalStream`, the CBR
and ON/OFF streams of :mod:`repro.traffic.sources`, the calendar kernel,
``_StatsTracer`` and ``LatencyStats.add`` stay as the oracle.  This
suite attacks the boundary from both ends:

* stream level -- the native stream and the Python stream of every gap
  process, fired from same-seed Generators through the ``fire``
  protocol, emit the same ``(t, node, dest)`` sequence and leave the
  Generator in the same state, across several of the Python stream's
  refill blocks; the native constructor rejects what the Python
  constructors reject, with the same message;
* simulation level -- a randomized fuzz of ``c`` against ``calendar``
  (Quarc and mesh, lanes, one-port, multicast fractions, loads from idle
  through saturation and deadlock recovery, warmups, horizon cuts, small
  in-flight caps, bookkeeping intervals, and a Poisson, CBR, ON/OFF or
  hotspot source per trial), comparing the fingerprint, the retained
  samples and the offered load, and proving the native path ran;
* the edges -- hotspot and monitored runs, a trace replay (which keeps
  its Python stream), arrival logs, mid-run bounces to the Python loop
  (Poisson, and ON/OFF with its windows), and the ``ValueError`` of an
  impossible sample, raised identically on both statistics paths;
* ``python -m repro kernels`` reporting the stream on, and off with the
  reason when the draws would differ.

Every test skips when the native stream is unavailable (no compiled
extension, or a numpy whose draws differ from the build's).
"""

import random

import numpy as np
import pytest

from repro.core.flows import TrafficSpec
from repro.routing import MeshRouting, QuarcRouting
from repro.sim import NocSimulator, PoissonArrivalStream, SimConfig, cext
from repro.sim.engine import EventQueue
from repro.sim.measurement import LatencyStats
from repro.sim.network import _RunState, _StatsTracer
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import CWormEngine, WormEngine
from repro.topology import MeshTopology, QuarcTopology
from repro.traffic.sources import CBRArrivalStream, OnOffArrivalStream, SourceSpec
from repro.traffic.trace import write_trace
from repro.workloads import random_multicast_sets

from test_c_kernel import _kernels_report
from test_calendar_queue import _eq_fp, _fingerprint

NATIVE = cext.native_arrivals()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
    reason=f"native arrival stream off: {cext.native_arrivals_reason()}",
)


# --------------------------------------------------------------------- #
# stream level


def _cdfs(n, seed):
    w = np.random.default_rng(seed).random((n, n))
    np.fill_diagonal(w, 0.0)
    return list(np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1))


#: name -> (num_nodes, unicast rate, multicast rate, multicast nodes,
#: weighted destinations)
STREAM_CASES = {
    "uniform": (16, 0.02, 0.002, (0, 4, 8, 12), False),
    "weighted": (16, 0.02, 0.002, (1, 5, 9), True),
    "unicast-only": (64, 0.003, 0.0, (), False),
    "multicast-only": (8, 0.0, 0.01, (1, 2, 7), False),
    "two-nodes": (2, 0.1, 0.0, (), False),
}


#: name -> a generated timing other than Poisson; its Python stream is
#: what ``spec.make_stream`` builds
TIMINGS = {
    "cbr-jitter0": SourceSpec(kind="cbr", cbr_jitter=0.0),
    "cbr-jitter0.37": SourceSpec(kind="cbr", cbr_jitter=0.37),
    "cbr-jitter1": SourceSpec(kind="cbr", cbr_jitter=1.0),
    "onoff-exp": SourceSpec(kind="onoff"),
    "onoff-no-off": SourceSpec(kind="onoff", off_mean=0.0),
    "onoff-pareto": SourceSpec(kind="onoff", on_tail="pareto", pareto_alpha=1.5),
}


def _native_kw(timing):
    """The keyword parameters NocSimulator.run gives the native stream."""
    return dict(
        process=timing.kind, jitter=timing.cbr_jitter, on_mean=timing.on_mean,
        off_mean=timing.off_mean, tail=timing.on_tail, alpha=timing.pareto_alpha,
    )


def _streams(case, seed, timing=None):
    """(python stream, its log, its rng, native stream, its log, its rng)"""
    n, lam_u, lam_m, mnodes, weighted = STREAM_CASES[case]
    cdfs = _cdfs(n, seed) if weighted else None
    rng_py, rng_c = np.random.default_rng(seed), np.random.default_rng(seed)
    log_py, log_c = [], []
    args = (n, lam_u, lam_m, list(mnodes), cdfs)
    if timing is None:
        py = PoissonArrivalStream(rng_py, *args, lambda *a: log_py.append(a))
        c = NATIVE(rng_c, *args, lambda *a: log_c.append(a))
    else:
        py = timing.make_stream(rng_py, *args, lambda *a: log_py.append(a))
        c = NATIVE(rng_c, *args, lambda *a: log_c.append(a), **_native_kw(timing))
    return py, log_py, rng_py, c, log_c, rng_c


def _assert_same_stream(py, log_py, rng_py, c, log_c, rng_c):
    assert c.pending is py.pending is True
    # 6000 arrivals cross five of the Python stream's refill blocks
    for _ in range(6000):
        assert c.next_time == py.next_time
        assert c.fire(c.next_time) == py.fire(py.next_time)
    assert log_c == log_py
    # the Python stream drew its current block ahead; firing the native
    # stream through it must reproduce that block and the rng state
    ahead = list(zip(py._times[py._idx:], py._nodes[py._idx:], py._dests[py._idx:]))
    for _ in ahead:
        c.fire(c.next_time)
    assert log_c[6000:] == ahead
    assert rng_c.bit_generator.state == rng_py.bit_generator.state


@pytest.mark.parametrize("seed", [0, 11, 2009])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_stream_matches_the_python_stream(case, seed):
    _assert_same_stream(*_streams(case, seed))


@pytest.mark.parametrize("seed", [0, 11, 2009])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
@pytest.mark.parametrize("timing", sorted(TIMINGS))
def test_generated_stream_matches_the_python_stream(timing, case, seed):
    streams = _streams(case, seed, TIMINGS[timing])
    assert type(streams[0]) is (
        CBRArrivalStream if timing.startswith("cbr") else OnOffArrivalStream
    )
    _assert_same_stream(*streams)


_GOOD = {"on_mean": 200.0, "off_mean": 600.0}
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "python_type, kw",
    [
        (CBRArrivalStream, {"jitter": -0.1}),
        (CBRArrivalStream, {"jitter": 1.5}),
        (CBRArrivalStream, {"jitter": _NAN}),
        (OnOffArrivalStream, {**_GOOD, "on_mean": 0.0}),
        (OnOffArrivalStream, {**_GOOD, "on_mean": -3}),
        (OnOffArrivalStream, {**_GOOD, "on_mean": _NAN}),
        (OnOffArrivalStream, {**_GOOD, "on_mean": _INF}),
        (OnOffArrivalStream, {**_GOOD, "off_mean": -1.0}),
        (OnOffArrivalStream, {**_GOOD, "off_mean": _INF}),
        (OnOffArrivalStream, {**_GOOD, "off_mean": -_INF}),
        (OnOffArrivalStream, {**_GOOD, "tail": "weibull"}),
        (OnOffArrivalStream, {**_GOOD, "tail": "pareto", "alpha": 1.0}),
        (OnOffArrivalStream, {**_GOOD, "tail": "pareto", "alpha": _NAN}),
        (OnOffArrivalStream, {**_GOOD, "alpha": _INF}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(
        f"{k}={v[k]}" for k in v if k not in _GOOD or v[k] != _GOOD[k]
    ),
)
def test_native_constructor_raises_the_python_errors(python_type, kw):
    process = "cbr" if python_type is CBRArrivalStream else "onoff"
    rngs = np.random.default_rng(5), np.random.default_rng(5)
    args = (8, 0.01, 0.0, [], None, lambda *a: None)
    with pytest.raises(ValueError) as python_error:
        python_type(rngs[0], *args, **kw)
    with pytest.raises(ValueError) as native_error:
        NATIVE(rngs[1], *args, process=process, **kw)
    assert str(native_error.value) == str(python_error.value)
    # both reject before their first draw
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[1].bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_native_constructor_rejects_an_unknown_process():
    with pytest.raises(ValueError, match="process must be"):
        NATIVE(np.random.default_rng(1), 8, 0.01, 0.0, [], None,
               lambda *a: None, process="trace")


def test_zero_rate_stream_is_exhausted():
    for stream_type in (PoissonArrivalStream, NATIVE):
        stream = stream_type(
            np.random.default_rng(1), 16, 0.0, 0.0, [0, 1], None,
            lambda *a: None,
        )
        assert stream.pending is False
        assert stream.next_time == float("inf")
        with pytest.raises(IndexError):
            stream.fire(stream.next_time)


# --------------------------------------------------------------------- #
# simulation level


@pytest.fixture
def probe(monkeypatch):
    """Counts the Python arrival/stats calls, the unicast worms built in
    Python (the native spawn bypasses ``Worm.__init__``) and the native
    streams built, so a test can prove which path a run took."""
    counts = {"fire": 0, "add": 0, "unicast_worms": 0, "streams": []}
    fire, add, worm_init = PoissonArrivalStream.fire, LatencyStats.add, Worm.__init__

    def counted_fire(self, t):
        counts["fire"] += 1
        return fire(self, t)

    def counted_add(self, value):
        counts["add"] += 1
        return add(self, value)

    def counted_init(self, uid, klass, *args, **kwargs):
        counts["unicast_worms"] += klass is WormClass.UNICAST
        worm_init(self, uid, klass, *args, **kwargs)

    def factory(*args, **kwargs):
        stream = NATIVE(*args, **kwargs)
        counts["streams"].append(stream)
        return stream

    monkeypatch.setattr(PoissonArrivalStream, "fire", counted_fire)
    monkeypatch.setattr(LatencyStats, "add", counted_add)
    monkeypatch.setattr(Worm, "__init__", counted_init)
    monkeypatch.setattr(cext, "native_arrivals", lambda: factory)

    def reset():
        counts.update(fire=0, add=0, unicast_worms=0, streams=[])

    counts["reset"] = reset
    return counts


def _full_fingerprint(result):
    return (
        _fingerprint(result),
        result.unicast._samples,
        result.multicast._samples,
        result.offered_load,
        result.nominal_load,
        result.monitors,
    )


def _pair(topo, routing, spec, config, probe, *, sim_kw=None, **run_kw):
    """(c result, calendar result, c simulator); the c run must take the
    native stream, spawn and fold its stats natively."""
    sim_kw = sim_kw or {}
    cal = NocSimulator(topo, routing, kernel="calendar", **sim_kw).run(
        spec, config, **run_kw
    )
    probe["reset"]()
    sim = NocSimulator(topo, routing, kernel="c", **sim_kw)
    res = sim.run(spec, config, **run_kw)
    assert res.kernel == "c"
    assert len(probe["streams"]) == 1, "the native stream was not chosen"
    assert probe["fire"] == 0, "a Python stream fired on the c kernel"
    return res, cal, sim


#: the fuzz's timing draws: Poisson and every TIMINGS variant
FUZZ_TIMINGS = (SourceSpec(),) + tuple(TIMINGS[k] for k in sorted(TIMINGS))
FUZZ_TRIALS = 60


def _fuzz_case(trial):
    rnd = random.Random(0xA77 + trial)
    sim_kw = {}
    if rnd.random() < 0.35:
        rows, cols = rnd.choice([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)])
        topo = MeshTopology(rows, cols)
        routing = MeshRouting(topo)
        mode = "per_node"
    else:
        topo = QuarcTopology(rnd.choice([8, 12, 16, 24, 32, 48, 64]))
        routing = QuarcRouting(topo)
        mode = "symmetric"
        if rnd.random() < 0.25:
            sim_kw["lanes"] = 2
    if rnd.random() < 0.25:
        sim_kw["one_port"] = True
    n = topo.num_nodes
    frac = rnd.choice([0.0, 0.0, 0.05, 0.3, 1.0])
    mlen = rnd.choice([2, 4, 8, 16, 32])
    # per-node message rate from idle to well past saturation
    rate = rnd.choice([0.0, 0.0002, 0.001, 0.003, 0.008, 0.02, 0.05]) * 16 / mlen
    sets = (
        random_multicast_sets(
            routing, group_size=rnd.randint(2, max(2, min(n - 1, n // 4))),
            seed=rnd.randint(0, 99), mode=mode,
        )
        if frac > 0.0 else {}
    )
    spec = TrafficSpec(rate, frac, mlen, sets)
    config = SimConfig(
        seed=rnd.randint(0, 10_000),
        warmup_cycles=rnd.choice([0.0, 0.0, 300.0, 2_000.0]),
        target_unicast_samples=rnd.choice([0, 80, 250]),
        target_multicast_samples=rnd.choice([0, 20, 60]),
        max_cycles=rnd.choice([3_000.0, 40_000.0, 200_000.0]),
        max_in_flight=rnd.choice([None, None, 12, 60]),
        check_interval=rnd.choice([64, 4096]),
    )
    source = rnd.choice(FUZZ_TIMINGS)
    if rnd.random() < 0.3:
        source = SourceSpec(
            kind="hotspot", base=source,
            hotspots=tuple(rnd.sample(range(n), rnd.randint(1, 2))),
            hotspot_factor=rnd.choice([2.0, 8.0]),
        )
    return topo, routing, spec, config, sim_kw, source


@pytest.mark.parametrize("trial", range(FUZZ_TRIALS))
def test_randomized_c_vs_calendar(trial, probe):
    topo, routing, spec, config, sim_kw, source = _fuzz_case(trial)
    res, cal, _sim = _pair(topo, routing, spec, config, probe, sim_kw=sim_kw,
                           source=source)
    assert res.source == source.label
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal)), trial
    # unicasts were spawned natively: no unicast Worm was built in Python
    assert probe["unicast_worms"] == 0
    if res.generated_messages and spec.unicast_rate > 0.0:
        # ...and their statistics folded natively: every Python add was a
        # multicast sample or a deadlock-recovered one (recovery reports
        # through the Python tracer)
        if res.deadlock_recoveries == 0:
            assert probe["add"] == res.multicast.count
        else:
            assert probe["add"] <= res.multicast.count + res.recovered_samples


def test_fuzz_reaches_the_hard_regimes(probe):
    """The fuzz above must actually cover what it claims to."""
    seen = {"recovered": 0, "saturated": 0, "target": 0, "multicast": 0,
            "poisson": 0, "cbr": 0, "onoff": 0, "hotspot": 0}
    for trial in range(FUZZ_TRIALS):
        topo, routing, spec, config, sim_kw, source = _fuzz_case(trial)
        res = NocSimulator(topo, routing, kernel="c", **sim_kw).run(
            spec, config, source=source
        )
        seen["recovered"] += res.deadlock_recoveries > 0
        seen["saturated"] += res.saturated
        seen["target"] += res.target_met
        seen["multicast"] += res.multicast.count > 0
        seen[source.kind] += 1
    assert all(count >= 3 for count in seen.values()), seen


def _quarc(n=16):
    topo = QuarcTopology(n)
    return topo, QuarcRouting(topo)


def _config(**kw):
    base = dict(seed=11, warmup_cycles=500.0, target_unicast_samples=400,
                target_multicast_samples=60, max_cycles=400_000.0)
    base.update(kw)
    return SimConfig(**base)


def test_hotspot_over_poisson(probe):
    topo, routing = _quarc()
    sets = random_multicast_sets(routing, group_size=4, seed=3)
    spec = TrafficSpec(0.003, 0.1, 16, sets)
    source = SourceSpec(kind="hotspot", base=SourceSpec(), hotspots=(0, 5),
                        hotspot_factor=8.0)
    res, cal, _sim = _pair(topo, routing, spec, _config(), probe, source=source)
    assert res.source == "hotspot(poisson)"
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))


def test_monitored_run_keeps_python_spawn_and_stats(probe):
    """Monitors only observe: the native stream still draws, but the
    fault/monitor spawn closure and tracer stay in Python."""
    topo, routing = _quarc()
    spec = TrafficSpec(0.006, 0.0, 32)
    res, cal, _sim = _pair(topo, routing, spec, _config(), probe,
                           monitors=("deadlock",))
    assert res.monitors is not None and "deadlock" in res.monitors
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))
    assert probe["unicast_worms"] == res.generated_messages  # no native spawn
    assert probe["add"] == res.unicast.count  # no native stats


def test_arrival_log_keeps_python_spawn(probe):
    topo, routing = _quarc()
    spec = TrafficSpec(0.004, 0.0, 16)
    logs = {"c": [], "calendar": []}
    cal = NocSimulator(topo, routing, kernel="calendar").run(
        spec, _config(), arrival_log=logs["calendar"]
    )
    probe["reset"]()
    res = NocSimulator(topo, routing, kernel="c").run(
        spec, _config(), arrival_log=logs["c"]
    )
    assert len(probe["streams"]) == 1 and probe["fire"] == 0
    assert logs["c"] == logs["calendar"] and logs["c"]
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))
    assert probe["unicast_worms"] == res.generated_messages  # Python spawn
    assert probe["add"] == 0  # stock tracer: stats still fold natively


@pytest.mark.parametrize("timing", ["cbr-jitter0.37", "onoff-pareto"])
def test_arrival_log_with_generated_timing(timing, probe):
    topo, routing = _quarc()
    sets = random_multicast_sets(routing, group_size=4, seed=3)
    spec = TrafficSpec(0.004, 0.1, 16, sets)
    logs = {"c": [], "calendar": []}
    cal = NocSimulator(topo, routing, kernel="calendar").run(
        spec, _config(), source=TIMINGS[timing], arrival_log=logs["calendar"]
    )
    probe["reset"]()
    res = NocSimulator(topo, routing, kernel="c").run(
        spec, _config(), source=TIMINGS[timing], arrival_log=logs["c"]
    )
    assert len(probe["streams"]) == 1 and probe["fire"] == 0
    assert logs["c"] == logs["calendar"] and logs["c"]
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))
    assert probe["unicast_worms"] == res.generated_messages - sum(
        dest < 0 for _t, _node, dest in logs["c"]
    )  # Python spawn


def test_trace_source_keeps_its_python_replay(probe, tmp_path):
    """A trace has no native twin: the c kernel replays it through the
    Python stream's fire and still matches the calendar run."""
    topo, routing = _quarc()
    spec = TrafficSpec(0.004, 0.0, 16)
    recorded = []
    NocSimulator(topo, routing, kernel="calendar").run(
        spec, _config(), source=TIMINGS["onoff-exp"], arrival_log=recorded
    )
    path = tmp_path / "onoff.jsonl"
    write_trace(path, topo.num_nodes, recorded)
    source = SourceSpec(kind="trace", trace_path=str(path))
    cal = NocSimulator(topo, routing, kernel="calendar").run(
        spec, _config(), source=source
    )
    probe["reset"]()
    res = NocSimulator(topo, routing, kernel="c").run(spec, _config(), source=source)
    assert res.kernel == "c" and res.source == "trace"
    assert probe["streams"] == [], "a trace must not take the native stream"
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))


def test_route_table_fills_on_first_use_and_persists():
    topo, routing = _quarc(32)
    sim = NocSimulator(topo, routing, kernel="c")
    assert sim._unicast_routes == [None] * (32 * 32)
    spec = TrafficSpec(0.001, 0.0, 16)
    sim.run(spec, _config(target_unicast_samples=40, target_multicast_samples=0))
    filled = [i for i, route in enumerate(sim._unicast_routes) if route is not None]
    assert 0 < len(filled) < 32 * 31  # lazily, not eagerly
    for i in filled:
        assert sim._unicast_routes[i] is sim._unicast_channels(i // 32, i % 32)
    before = list(sim._unicast_routes)
    sim.run(spec, _config(seed=12, target_unicast_samples=40,
                          target_multicast_samples=0))
    assert all(a is b for a, b in zip(before, sim._unicast_routes) if a is not None)


def _bounced_pair(probe, monkeypatch, spec, config, source=None):
    """(c result, calendar result) of a run whose arrivals pass 2^52
    cycles, which bounces the C loop: the Python loop must continue the
    same native stream and still match the calendar run."""
    windows = {"python": 0}
    python_loop = WormEngine.run_events

    def counted(self, *args, **kwargs):
        windows["python"] += 1
        return python_loop(self, *args, **kwargs)

    topo, routing = _quarc(8)
    cal = NocSimulator(topo, routing, kernel="calendar").run(
        spec, config, source=source
    )
    monkeypatch.setattr(WormEngine, "run_events", counted)
    probe["reset"]()
    res = NocSimulator(topo, routing, kernel="c").run(spec, config, source=source)
    assert len(probe["streams"]) == 1 and probe["fire"] == 0
    assert windows["python"] >= 1, "the run never bounced"
    assert res.sim_time > 2.0**52
    assert _eq_fp(_full_fingerprint(res), _full_fingerprint(cal))
    return res


_BOUNCE_CONFIG = SimConfig(seed=3, warmup_cycles=0.0, target_unicast_samples=50,
                           target_multicast_samples=0, max_cycles=1e17,
                           check_interval=16)


def test_mid_run_bounce_continues_the_stream(probe, monkeypatch):
    _bounced_pair(probe, monkeypatch, TrafficSpec(1e-15, 0.0, 8), _BOUNCE_CONFIG)


def test_mid_run_bounce_continues_the_onoff_windows(probe, monkeypatch):
    """ON/OFF windows scaled to the 1e15-cycle gaps, so the run spans
    about four ON/OFF cycles, two of them past the bounce: the Python
    loop carries on with the windows the C loop left in the heads."""
    source = SourceSpec(kind="onoff", on_mean=5e14, off_mean=1.5e15)
    res = _bounced_pair(probe, monkeypatch, TrafficSpec(1e-15, 0.0, 8),
                        _BOUNCE_CONFIG, source)
    assert res.source == "onoff" and res.unicast.count >= 50


def _impossible_sample(engine_type, arrivals):
    """Complete a worm created after it finishes: latency < 0."""
    state = _RunState(0.0)
    engine = engine_type(6, EventQueue(), _StatsTracer(state))
    if arrivals is not None:
        arrivals.fold_unicast_stats(state)
    worm = Worm(1, WormClass.UNICAST, 0, 1e6, (0, 1, 2), 4)
    engine.inject(worm, 0.0, fast=False)
    with pytest.raises(ValueError) as info:
        engine.run_events(1e9, None, arrivals)
    return str(info.value), state


def test_impossible_sample_raises_on_both_stats_paths():
    quiet = NATIVE(np.random.default_rng(1), 4, 0.0, 0.0, [], None, lambda *a: None)
    native_msg, native_state = _impossible_sample(CWormEngine, quiet)
    python_msg, python_state = _impossible_sample(WormEngine, None)
    assert native_msg == python_msg
    assert native_msg.startswith("latency sample must be >= 0, got -")
    assert native_state.completed == python_state.completed == 1
    assert native_state.unicast.count == python_state.unicast.count == 0


# --------------------------------------------------------------------- #
# python -m repro kernels

#: make the import-time self-check's two "same-seed" Generators differ
_SKEWED_DRAWS = """
import itertools
import numpy as np
_real, _seeds = np.random.default_rng, itertools.count()
np.random.default_rng = lambda seed=None: _real(next(_seeds))
"""


def test_kernels_cli_reports_native_arrivals_on():
    out = _kernels_report("")
    assert "native arrivals: on (poisson, cbr, onoff)" in out


def test_kernels_cli_turns_only_the_stream_off_when_draws_differ():
    out = _kernels_report(_SKEWED_DRAWS)
    assert "native arrivals: off -- numpy" in out
    assert "draws differently" in out
    assert "compiled fast path: built" in out
