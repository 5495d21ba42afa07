"""C/Python kernel boundary tests.

The compiled dispatch fast path (:mod:`repro.sim._cstep`) is an
*accelerator*, never an authority: the pure-Python kernels define the
behaviour and every number the C loop produces must be bitwise identical
to theirs.  This suite attacks the boundary from every side:

* full-simulation differentials -- the calendar/heap A/B scenarios plus
  randomized fuzz over topologies, loads and seeds, with the C kernel as
  a third column;
* the golden-seed fingerprints re-asserted with ``kernel="c"`` forced;
* the fallback story -- construction-time declines (per-hop hooks,
  foreign queue classes, unbuilt extension) and mid-run bounces
  (hooks attached between windows, timestamps beyond the 2^52 horizon)
  must silently hand the run to Python and still match it bitwise;
* the ``"auto"`` policy regression: it must never name ``"c"`` when the
  extension is not built;
* the Poisson arrival stream's statistical contract (Python and native
  streams), and proof that the default arrival path is bitwise
  untouched.  ``tests/test_native_arrivals.py`` pins the native stream
  to the Python one bit for bit.

Tests marked ``requires_c`` skip cleanly on a build without the
extension (the compiler-free CI job); everything else runs everywhere.
"""

import random

import pytest

from repro.core.flows import TrafficSpec
from repro.routing import MeshRouting, QuarcRouting
from repro.sim import (
    KERNELS,
    NocSimulator,
    PoissonArrivalStream,
    SimConfig,
    cext,
    resolve_auto_kernel,
)
from repro.sim.engine import EventQueue, HeapEventQueue
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import CWormEngine, WormEngine, c_kernel_status
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads import random_multicast_sets

from test_calendar_queue import AB_SCENARIOS, _eq_fp, _fingerprint

requires_c = pytest.mark.skipif(
    not cext.available(),
    reason=f"compiled kernel not built: {cext.unavailable_reason()}",
)


def _run(topo, routing, spec, config, kernel):
    return NocSimulator(topo, routing, kernel=kernel).run(spec, config)


# --------------------------------------------------------------------- #
# three-way differentials: c vs calendar vs heap


@requires_c
@pytest.mark.parametrize("name", sorted(AB_SCENARIOS))
def test_ab_scenarios_c_bitwise(name):
    build, make_spec, config = AB_SCENARIOS[name]
    topo, routing = build()
    spec = make_spec(routing)
    c_res = _run(topo, routing, spec, config, "c")
    cal_res = _run(topo, routing, spec, config, "calendar")
    assert c_res.kernel == "c"
    assert _eq_fp(_fingerprint(c_res), _fingerprint(cal_res)), name


@pytest.mark.parametrize("trial", range(8))
def test_randomized_differential_fuzz(trial):
    """Random (topology, load, seed) triples through every registered
    kernel; all fingerprints must agree bitwise.  Runs with two kernels
    on a build without the extension, three with it."""
    rnd = random.Random(0xC0FFEE + trial)
    mesh = rnd.random() < 0.5
    if mesh:
        rows, cols = rnd.choice([(3, 3), (3, 4), (4, 4), (4, 5)])
        n = rows * cols
        topo = MeshTopology(rows, cols)
        routing = MeshRouting(topo)
    else:
        n = rnd.choice([8, 12, 16, 20, 32])
        topo = QuarcTopology(n)
        routing = QuarcRouting(topo)
    rate = rnd.choice([0.001, 0.003, 0.008, 0.02, 0.05])
    frac = rnd.choice([0.0, 0.1, 0.3])
    mlen = rnd.choice([4, 8, 16, 32, 64])
    sets = (
        random_multicast_sets(
            routing, group_size=rnd.randint(3, max(3, n // 8)),
            seed=rnd.randint(0, 99),
            # symmetric placement needs a vertex-symmetric topology
            mode="per_node" if mesh else "symmetric",
        )
        if frac > 0.0
        else {}
    )
    spec = TrafficSpec(rate, frac, mlen, sets)
    config = SimConfig(
        seed=rnd.randint(0, 10_000), warmup_cycles=500.0,
        target_unicast_samples=200, target_multicast_samples=40,
        max_cycles=100_000.0,
    )
    fps = {
        kernel: _fingerprint(_run(topo, routing, spec, config, kernel))
        for kernel in sorted(KERNELS)
    }
    reference = fps.pop("heap")
    for kernel, fp in fps.items():
        assert _eq_fp(fp, reference), (trial, kernel)


@requires_c
@pytest.mark.parametrize("name", ["quarc16-multicast", "mesh16-saturated"])
def test_golden_fingerprints_hold_on_c_kernel(name):
    """The frozen golden-seed numbers, with the compiled kernel forced."""
    from test_golden_seed import GOLDEN, eq

    build, make_spec, config, want = GOLDEN[name]
    topo, routing = build()
    result = _run(topo, routing, make_spec(routing), config, "c")
    for klass in ("unicast", "multicast"):
        stats = getattr(result, klass)
        mean, var, lo, hi, count = want[klass]
        assert eq(stats.mean, mean), (name, klass)
        assert eq(stats.variance, var), (name, klass)
        assert eq(stats.minimum, lo) and eq(stats.maximum, hi), (name, klass)
        assert stats.count == count, (name, klass)
    assert result.sim_time == want["sim_time"]
    assert result.events == want["events"]
    assert result.generated_messages == want["generated"]
    assert result.completed_messages == want["completed"]
    assert result.deadlock_recoveries == want["recoveries"]
    assert result.saturated == want["saturated"]


# --------------------------------------------------------------------- #
# the fallback story


def _line_worms(count=120, length=16):
    """Worms hammering one shared 5-channel path: maximal contention."""
    return [
        Worm(uid, WormClass.UNICAST, 0, float(uid * 3), (0, 1, 2, 3, 4), length)
        for uid in range(1, count + 1)
    ]


def _drain(engine, horizon=1e9):
    total = 0
    while len(engine.events) > 0:
        fired = engine.run_events(horizon, 256)
        if fired == 0:
            break
        total += fired
    return total


@requires_c
def test_native_path_actually_runs():
    """Counter check: a hook-free run executes in C, with zero bounces
    (a silently always-bouncing build would still pass the differentials)."""
    engine = CWormEngine(6, EventQueue())
    assert engine.c_inactive_reason is None
    for worm in _line_worms():
        engine.inject(worm, worm.creation_time)
    _drain(engine)
    assert engine.c_runs > 0
    assert engine.c_bounces == 0
    assert engine.py_fallback_runs == 0
    assert engine.active_worms == 0


@requires_c
def test_hook_attached_mid_run_bounces_to_python():
    """Attaching a per-hop hook between windows must bounce every later
    window to the Python kernel -- served by it (the hook fires), timed
    like it (bitwise match with a hook-free pure-Python twin)."""
    c_engine = CWormEngine(6, EventQueue())
    py_engine = WormEngine(6, EventQueue())
    for engine in (c_engine, py_engine):
        for worm in _line_worms():
            engine.inject(worm, worm.creation_time)

    fired_c = c_engine.run_events(1e9, 100)
    fired_py = py_engine.run_events(1e9, 100)
    assert fired_c == fired_py
    assert c_engine.c_runs == 1 and c_engine.c_bounces == 0

    acquired = []
    c_engine._on_acquire = lambda worm, pos, t: acquired.append((worm.uid, pos, t))
    fired_c += _drain(c_engine)
    fired_py += _drain(py_engine)

    assert c_engine.c_bounces >= 1  # every post-hook window bounced
    assert acquired, "the Python fallback must have served the hook"
    assert fired_c == fired_py
    assert c_engine.events.now == py_engine.events.now
    assert c_engine.active_worms == py_engine.active_worms == 0


@requires_c
def test_construction_time_declines():
    """Foreign queue class and per-hop tracer hooks disable the native
    path for the engine's whole lifetime, with a reason string."""

    class _HookTracer:
        def on_acquire(self, worm, pos, t):
            pass

    hooked = CWormEngine(4, EventQueue(), _HookTracer())
    assert not hooked._c_ok
    assert "hook" in hooked.c_inactive_reason
    with pytest.raises(TypeError):
        # the registry pairs CWormEngine with the calendar EventQueue;
        # handing it the heap queue fails fast like WormEngine does
        CWormEngine(4, HeapEventQueue())


@requires_c
def test_far_future_timestamps_bounce():
    """Events at or beyond 2^52 cycles exceed what the C loop models
    (exact float+seq compares need integer-exact doubles); such a run
    must bounce and still match the pure kernel bitwise."""
    far = float(2**53)
    c_engine = CWormEngine(6, EventQueue())
    py_engine = WormEngine(6, EventQueue())
    fired = {}
    for name, engine in (("c", c_engine), ("py", py_engine)):
        for worm in _line_worms(count=10):
            engine.inject(worm, worm.creation_time)
        total = _drain(engine)
        # with the network idle, inject one worm in the far future:
        # cstep.inject declines it (no mutation), Python schedules its
        # request record (fast=False keeps it in the queue), and the
        # next window bounces when it meets the far timestamp
        engine.inject(
            Worm(999, WormClass.UNICAST, 0, far, (0, 1, 2), 8), far, fast=False
        )
        fired[name] = total + _drain(engine, horizon=far * 2)
    assert fired["c"] == fired["py"]
    assert c_engine.events.now == py_engine.events.now
    assert c_engine.c_bounces >= 1
    assert c_engine.c_runs > c_engine.c_bounces  # phase 1 ran natively
    assert c_engine.active_worms == 0


def test_unbuilt_extension_falls_back(monkeypatch):
    """With the extension reported unavailable the wrapper runs every
    window through Python and says why."""
    monkeypatch.setattr(cext, "available", lambda: False)
    monkeypatch.setattr(
        cext, "unavailable_reason", lambda: "forced off for the test"
    )
    engine = CWormEngine(6, EventQueue())
    assert engine.c_inactive_reason == "forced off for the test"
    for worm in _line_worms(count=20):
        engine.inject(worm, worm.creation_time)
    _drain(engine)
    assert engine.c_runs == 0
    assert engine.py_fallback_runs > 0
    assert engine.active_worms == 0


@requires_c
def test_hook_error_survives_the_window_exit():
    """An exception raised by a hook inside a native window must reach
    the caller as itself, even when the window's attribute restore
    misses the interpreter's type cache (a lookup that, with the error
    still pending, used to swallow it into a SystemError)."""
    import sys

    class _Failing:
        def on_complete(self, worm, t_done, recovered):
            sys._clear_type_cache()
            raise ValueError("hook failed")

    for _ in range(20):
        engine = CWormEngine(6, EventQueue(), _Failing())
        engine.inject(Worm(1, WormClass.UNICAST, 0, 0.0, (0, 1, 2), 4), 0.0,
                      fast=False)
        with pytest.raises(ValueError, match="hook failed"):
            engine.run_events(1e9, None, None)


@requires_c
def test_uncoercible_horizon_falls_back():
    engine = CWormEngine(6, EventQueue())
    for worm in _line_worms(count=5):
        engine.inject(worm, worm.creation_time)
    fired = engine.run_events(10**400, 64)  # float() overflows
    assert fired > 0
    assert engine.py_fallback_runs == 1
    assert engine.c_runs == 0


# --------------------------------------------------------------------- #
# the "auto" policy


def test_auto_never_selects_c_when_unbuilt(monkeypatch):
    """Regression: with no compiled extension registered, "auto" must
    resolve to a pure-Python kernel for every size and observed depth."""
    monkeypatch.delitem(KERNELS, "c", raising=False)
    for nodes in (8, 16, 511, 512, 4096):
        for depth in (None, 0, 1, 255, 256, 100_000):
            kernel = resolve_auto_kernel(nodes, depth)
            assert kernel in ("heap", "calendar"), (nodes, depth)
            assert kernel in KERNELS


def test_auto_depth_heuristic_overrides_node_prior(monkeypatch):
    monkeypatch.delitem(KERNELS, "c", raising=False)
    # node prior without observation
    assert resolve_auto_kernel(16) == "heap"
    assert resolve_auto_kernel(512) == "calendar"
    # observation wins over the prior in both directions
    assert resolve_auto_kernel(16, observed_depth=10_000) == "calendar"
    assert resolve_auto_kernel(4096, observed_depth=3) == "heap"


def test_auto_resolves_per_run_from_observed_depth(monkeypatch):
    """A kernel="auto" simulator re-resolves on repeat runs using the
    previous run's peak pending depth; explicit kernels never move."""
    monkeypatch.delitem(KERNELS, "c", raising=False)
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    sim = NocSimulator(topo, routing)  # auto
    assert sim.kernel_policy == "auto" and sim.kernel == "heap"
    spec = TrafficSpec(0.004, 0.0, 32)
    config = SimConfig(seed=11, warmup_cycles=500.0,
                       target_unicast_samples=100,
                       target_multicast_samples=0, max_cycles=50_000.0)
    first = sim.run(spec, config)
    assert first.kernel == "heap"
    assert first.peak_pending > 0
    assert sim._observed_depth == first.peak_pending
    # force a "deep" observation: the next auto run must pick calendar,
    # and produce the same numbers (the kernels are bit-identical)
    sim._observed_depth = 10_000
    second = sim.run(spec, config)
    assert second.kernel == "calendar"
    assert _eq_fp(_fingerprint(first), _fingerprint(second))
    pinned = NocSimulator(topo, routing, kernel="heap")
    pinned._observed_depth = 10_000
    assert pinned.run(spec, config).kernel == "heap"


@requires_c
def test_auto_prefers_c_when_built():
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    assert resolve_auto_kernel(16) == "c"
    assert resolve_auto_kernel(4096, observed_depth=5) == "c"
    result = NocSimulator(topo, routing).run(
        TrafficSpec(0.004, 0.0, 32),
        SimConfig(seed=11, warmup_cycles=500.0, target_unicast_samples=50,
                  target_multicast_samples=0, max_cycles=50_000.0),
    )
    assert result.kernel == "c"


def test_c_kernel_status_reports_build():
    built, reason = c_kernel_status()
    assert built is cext.available()
    assert built is ("c" in KERNELS)
    if not built:
        assert reason


#: run ``python -m repro kernels`` after ``SETUP`` prepared the import system
_KERNELS_CLI = (
    "import sys\n{setup}\n"
    "from repro.cli import main\n"
    "sys.exit(main(['kernels']))\n"
)

#: a compiled module that is present but cannot load
_BROKEN_EXTENSION = """
import importlib.abc, importlib.machinery
class _Broken(importlib.abc.Loader):
    def create_module(self, spec):
        return None
    def exec_module(self, module):
        raise ImportError("undefined symbol: PyBroken_Symbol")
class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "repro.sim._cstep":
            return importlib.machinery.ModuleSpec(name, _Broken())
        return None
sys.meta_path.insert(0, _Finder())
"""


def _kernels_report(setup: str, *, no_cext: bool = False) -> str:
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env.pop("REPRO_NO_CEXT", None)
    if no_cext:
        env["REPRO_NO_CEXT"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _KERNELS_CLI.format(setup=setup)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout + proc.stderr


def test_kernels_cli_reports_unbuilt_extension_plainly():
    """No compiled module at all: "extension not built", never the
    misleading circular-import text the bare import used to produce."""
    out = _kernels_report("sys.modules['repro.sim._cstep'] = None")
    assert "circular import" not in out
    assert "NOT built -- extension not built" in out


def test_kernels_cli_keeps_the_real_import_error():
    """A compiled module that exists but fails to load keeps its error."""
    out = _kernels_report(_BROKEN_EXTENSION)
    assert "circular import" not in out
    assert "failed to import (undefined symbol: PyBroken_Symbol)" in out


# --------------------------------------------------------------------- #
# the Poisson arrival stream: statistical contract, default untouched

#: stream implementations: the Python stream replaying the legacy scalar
#: draw order, and its native twin (None when the extension is off)
STREAMS = {"legacy": PoissonArrivalStream, "native": cext.native_arrivals()}


def _stream_pair(mode, seed, *, num_nodes=16, rate=0.02, mcast_rate=0.002):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    stream = STREAMS[mode](
        rng, num_nodes, rate, mcast_rate, list(range(0, num_nodes, 4)),
        None, lambda t, node, dest: out.append((t, node, dest)),
    )
    return stream, out


@pytest.mark.parametrize("mode", sorted(STREAMS))
def test_arrival_stream_contract(mode):
    """Both stream implementations must deliver a merged, time-ordered
    per-node Poisson process with self-excluding uniform destinations."""
    if STREAMS[mode] is None:
        pytest.skip(f"native stream off: {cext.native_arrivals_reason()}")
    count = 20_000
    stream, out = _stream_pair(mode, seed=42)
    for _ in range(count):
        stream.fire(stream.next_time)
    times = [t for t, _, _ in out]
    assert times == sorted(times)
    assert all(dest != node for _, node, dest in out)
    uni = [(node, dest) for _, node, dest in out if dest >= 0]
    # per-node unicast rate: 16 nodes at 0.02 vs 4 sources at 0.002
    expected_uni_share = (16 * 0.02) / (16 * 0.02 + 4 * 0.002)
    share = len(uni) / count
    assert abs(share - expected_uni_share) < 0.02
    # empirical rate from the covered span
    span = times[-1] - times[0]
    rate = len(uni) / span
    assert abs(rate - 16 * 0.02) / (16 * 0.02) < 0.05
    # destination histogram roughly uniform over the 15 candidates
    from collections import Counter

    dest_counts = Counter(dest for _, dest in uni)
    assert set(dest_counts) == set(range(16))
    lo, hi = min(dest_counts.values()), max(dest_counts.values())
    assert hi < 1.5 * lo


def test_default_arrival_path_is_bitwise_untouched():
    """The default config must reproduce the frozen golden fingerprint
    exactly, on whichever stream the resolved kernel drives."""
    from test_golden_seed import GOLDEN

    build, make_spec, config, want = GOLDEN["quarc16-unicast"]
    topo, routing = build()
    result = NocSimulator(topo, routing).run(make_spec(routing), config)
    assert result.unicast.mean == want["unicast"][0]
    assert result.sim_time == want["sim_time"]
    assert result.events == want["events"]


# --------------------------------------------------------------------- #
# non-Poisson traffic sources through the kernel boundary


def _traffic_source_specs():
    from repro.traffic.sources import SourceSpec

    return {
        "cbr": SourceSpec(kind="cbr", cbr_jitter=1.0),
        "onoff": SourceSpec(kind="onoff", on_mean=150.0, off_mean=450.0),
        "onoff-pareto": SourceSpec(
            kind="onoff", on_mean=150.0, off_mean=450.0,
            on_tail="pareto", pareto_alpha=1.5,
        ),
        "hotspot": SourceSpec(
            kind="hotspot",
            base=SourceSpec(kind="onoff", on_mean=150.0, off_mean=450.0),
            hotspots=(0,), hotspot_factor=8.0,
        ),
    }


@pytest.mark.parametrize("name", sorted(_traffic_source_specs()))
def test_non_poisson_sources_bitwise_across_python_kernels(name):
    """Arrival generation lives outside the kernels: any Python-side
    traffic source must produce bit-identical runs on heap and calendar."""
    source = _traffic_source_specs()[name]
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.1, 32, random_multicast_sets(routing, 4, seed=3))
    config = SimConfig(seed=7, warmup_cycles=1_000.0,
                       target_unicast_samples=400,
                       target_multicast_samples=80, max_cycles=400_000.0)
    heap = NocSimulator(topo, routing, kernel="heap").run(
        spec, config, source=source
    )
    cal = NocSimulator(topo, routing, kernel="calendar").run(
        spec, config, source=source
    )
    assert _eq_fp(_fingerprint(cal), _fingerprint(heap)), name
    assert heap.source == cal.source == source.label


@requires_c
@pytest.mark.parametrize("name", sorted(_traffic_source_specs()))
def test_non_poisson_sources_bitwise_on_c_kernel(name):
    """The explicit interop contract of the traffic subsystem: the C
    fast path calls ``arrivals.fire`` back into Python per arrival, so
    CBR/ON-OFF/hotspot streams run under ``kernel="c"`` and match the
    pure-Python kernels bit for bit."""
    source = _traffic_source_specs()[name]
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.1, 32, random_multicast_sets(routing, 4, seed=3))
    config = SimConfig(seed=7, warmup_cycles=1_000.0,
                       target_unicast_samples=400,
                       target_multicast_samples=80, max_cycles=400_000.0)
    heap = NocSimulator(topo, routing, kernel="heap").run(
        spec, config, source=source
    )
    c = NocSimulator(topo, routing, kernel="c").run(spec, config, source=source)
    assert _eq_fp(_fingerprint(c), _fingerprint(heap)), name


@requires_c
def test_trace_replay_bitwise_on_c_kernel(tmp_path):
    from repro.traffic.sources import SourceSpec
    from repro.traffic.trace import write_trace

    path = tmp_path / "c.jsonl"
    write_trace(
        path, 16,
        [(float(100 + 40 * i), i % 16, (i % 16 + 1 + i % 15) % 16)
         for i in range(400)],
    )
    source = SourceSpec(kind="trace", trace_path=str(path))
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.0, 32)
    config = SimConfig(seed=7, warmup_cycles=500.0,
                       target_unicast_samples=300,
                       target_multicast_samples=0, max_cycles=400_000.0)
    heap = NocSimulator(topo, routing, kernel="heap").run(
        spec, config, source=source
    )
    c = NocSimulator(topo, routing, kernel="c").run(spec, config, source=source)
    assert _eq_fp(_fingerprint(c), _fingerprint(heap))
