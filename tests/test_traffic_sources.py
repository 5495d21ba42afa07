"""Tests for the pluggable traffic-source subsystem.

Three layers of contract:

* **stream level** -- each concrete source produces the process it
  claims (CBR gaps are exactly the period, ON/OFF preserves the mean
  rate while inflating variance, hotspot skews destinations by the
  declared factor, traces replay byte-for-byte) and is seed-
  deterministic;
* **spec level** -- :class:`SourceSpec` validates its parameters and
  round-trips through dicts/JSON;
* **executor level** -- the same seeded task produces the identical
  result through the serial, process-pool and distributed executors,
  for every source kind (the determinism clause the cache and the
  divergence study both stand on).
"""

import dataclasses
import json
import math
import statistics
import subprocess

import numpy as np
import pytest

from repro.distributed import DistributedExecutor
from repro.orchestration import SimTask, make_executor, run_tasks
from repro.sim import NocSimulator, SimConfig
from repro.sim.arrivals import MULTICAST
from repro.traffic.sources import (
    DEFAULT_SOURCE,
    SOURCE_KINDS,
    SourceSpec,
    source_from_dict,
)
from repro.traffic.trace import (
    TraceArrivalStream,
    read_trace,
    trace_digest,
    write_trace,
)

from test_distributed import spawn_worker


def collect(
    spec: SourceSpec,
    *,
    seed: int = 0,
    num_nodes: int = 16,
    lam_u: float = 0.004,
    lam_m: float = 0.0,
    mnodes: tuple = (),
    cdfs=None,
    count: int = 300,
) -> list:
    """Drive a source's stream for ``count`` arrivals -> [(t, node, dest)]."""
    rng = np.random.default_rng(seed)
    log: list = []
    stream = spec.make_stream(
        rng, num_nodes, lam_u, lam_m, sorted(mnodes), cdfs,
        lambda t, node, dest: log.append((t, node, dest)),
    )
    while len(log) < count and stream.pending:
        stream.fire(stream.next_time)
    return log


NON_POISSON = {
    "cbr": SourceSpec(kind="cbr", cbr_jitter=1.0),
    "onoff-exp": SourceSpec(kind="onoff", on_mean=200.0, off_mean=600.0),
    "onoff-pareto": SourceSpec(
        kind="onoff", on_mean=200.0, off_mean=600.0,
        on_tail="pareto", pareto_alpha=1.5,
    ),
    "hotspot": SourceSpec(
        kind="hotspot", base=SourceSpec(), hotspots=(0,), hotspot_factor=8.0
    ),
}


class TestCBR:
    def test_gaps_are_exactly_the_period(self):
        rate = 0.004
        log = collect(NON_POISSON["cbr"], lam_u=rate, count=400)
        period = 1.0 / rate
        per_node: dict = {}
        for t, node, _dest in log:
            per_node.setdefault(node, []).append(t)
        assert len(per_node) == 16
        for times in per_node.values():
            for a, b in zip(times, times[1:]):
                assert b - a == pytest.approx(period, abs=1e-6)

    def test_phase_jitter_spreads_within_one_period(self):
        rate = 0.004
        log = collect(NON_POISSON["cbr"], lam_u=rate, count=64)
        first = sorted(t for t, _n, _d in log)[:16]
        assert all(0.0 <= t < 1.0 / rate for t in first)
        # full jitter: phases are not clustered at zero
        assert max(first) > 0.5 / rate

    def test_zero_jitter_is_phase_locked(self):
        spec = SourceSpec(kind="cbr", cbr_jitter=0.0)
        log = collect(spec, count=32)
        assert [t for t, _n, _d in log[:16]] == [0.0] * 16

    def test_jitter_validated(self):
        with pytest.raises(ValueError, match="cbr_jitter"):
            SourceSpec(kind="cbr", cbr_jitter=1.5)
        with pytest.raises(ValueError, match="cbr_jitter"):
            SourceSpec(kind="cbr", cbr_jitter=-0.1)


class TestOnOff:
    def test_mean_rate_preserved(self):
        rate = 0.004
        log = collect(NON_POISSON["onoff-exp"], lam_u=rate, count=6000)
        horizon = max(t for t, _n, _d in log)
        measured = len(log) / (horizon * 16)
        assert measured == pytest.approx(rate, rel=0.1)

    def test_burstier_than_poisson(self):
        """Squared coefficient of variation of per-node gaps: ~1 for
        Poisson, well above 1 for ON/OFF with duty 0.25."""

        def cv2(spec):
            log = collect(spec, count=4000)
            gaps = []
            per_node: dict = {}
            for t, node, _dest in log:
                if node in per_node:
                    gaps.append(t - per_node[node])
                per_node[node] = t
            m = statistics.fmean(gaps)
            return statistics.pvariance(gaps) / (m * m)

        assert cv2(DEFAULT_SOURCE) == pytest.approx(1.0, abs=0.25)
        assert cv2(NON_POISSON["onoff-exp"]) > 1.5

    def test_pareto_tail_runs_and_preserves_rate(self):
        # alpha=1.5 windows have infinite variance, so the empirical rate
        # converges slowly -- the tolerance is correspondingly loose
        rate = 0.004
        log = collect(NON_POISSON["onoff-pareto"], lam_u=rate, count=20_000)
        horizon = max(t for t, _n, _d in log)
        assert len(log) / (horizon * 16) == pytest.approx(rate, rel=0.25)

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="on_mean"):
            SourceSpec(kind="onoff", on_mean=0.0)
        with pytest.raises(ValueError, match="off_mean"):
            SourceSpec(kind="onoff", off_mean=-1.0)
        with pytest.raises(ValueError, match="on_tail"):
            SourceSpec(kind="onoff", on_tail="weibull")
        with pytest.raises(ValueError, match="pareto_alpha"):
            SourceSpec(kind="onoff", on_tail="pareto", pareto_alpha=1.0)


class TestHotspot:
    def test_destination_skew_matches_factor(self):
        """The skew travels as spec weights -> per-source dest CDFs (the
        same folding network.run performs), not inside the stream."""
        from repro.core.flows import TrafficSpec

        spec = NON_POISSON["hotspot"]
        tspec = TrafficSpec(
            0.004, 0.0, 16, unicast_weights=spec.unicast_weights(16)
        )
        cdfs = [
            np.cumsum(tspec.destination_probabilities(s, 16))
            for s in range(16)
        ]
        log = collect(spec, cdfs=cdfs, count=8000)
        hits = sum(1 for _t, node, dest in log if dest == 0 and node != 0)
        total = sum(1 for _t, node, dest in log if node != 0)
        # weights (8, 1 x 15), self excluded: P(dest=0 | source!=0) = 8/22
        assert hits / total == pytest.approx(8 / 22, rel=0.1)

    def test_weights_exposed_to_the_model(self):
        w = NON_POISSON["hotspot"].unicast_weights(16)
        assert w == (8.0,) + (1.0,) * 15
        assert DEFAULT_SOURCE.unicast_weights(16) is None

    def test_timing_comes_from_the_base(self):
        """Hotspot over CBR keeps CBR's deterministic gaps."""
        spec = SourceSpec(
            kind="hotspot", base=SourceSpec(kind="cbr", cbr_jitter=1.0),
            hotspots=(3,), hotspot_factor=4.0,
        )
        assert spec.label == "hotspot(cbr)"
        log = collect(spec, lam_u=0.004, count=200)
        per_node: dict = {}
        for t, node, _dest in log:
            per_node.setdefault(node, []).append(t)
        times = per_node[5]
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(250.0, abs=1e-6)

    def test_validated(self):
        with pytest.raises(ValueError, match="base"):
            SourceSpec(kind="hotspot", hotspots=(0,))
        with pytest.raises(ValueError, match="hotspot"):
            SourceSpec(kind="hotspot", base=SourceSpec())
        with pytest.raises(ValueError, match="factor"):
            SourceSpec(
                kind="hotspot", base=SourceSpec(), hotspots=(0,),
                hotspot_factor=0.5,
            )
        with pytest.raises(ValueError, match="hotspot"):
            SourceSpec(
                kind="hotspot",
                base=SourceSpec(
                    kind="hotspot", base=SourceSpec(), hotspots=(1,)
                ),
                hotspots=(0,),
            )


class TestTrace:
    def arrivals(self):
        return [(1.5, 0, 3), (2.0, 1, MULTICAST), (2.0, 2, 0), (7.25, 0, 15)]

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        digest = write_trace(path, 16, self.arrivals(), metadata={"x": 1})
        assert digest == trace_digest(path)
        header, times, nodes, dests = read_trace(path)
        assert header["num_nodes"] == 16 and header["x"] == 1
        assert list(times) == [1.5, 2.0, 2.0, 7.25]
        assert list(nodes) == [0, 1, 2, 0]
        assert list(dests) == [3, MULTICAST, 0, 15]

    def test_replay_fires_in_order_then_exhausts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, 16, self.arrivals())
        log: list = []
        stream = TraceArrivalStream.from_file(
            path, 16, lambda t, n, d: log.append((t, n, d))
        )
        while stream.pending:
            stream.fire(stream.next_time)
        assert log == self.arrivals()
        assert math.isinf(stream.next_time)

    def test_digest_mismatch_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, 16, self.arrivals())
        with pytest.raises(ValueError, match="digest"):
            TraceArrivalStream.from_file(
                path, 16, lambda *a: None, expected_digest="0" * 32
            )

    def test_network_size_mismatch_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, 16, self.arrivals())
        with pytest.raises(ValueError, match="num_nodes|nodes"):
            TraceArrivalStream.from_file(path, 32, lambda *a: None)

    def test_non_monotonic_trace_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, 16, [(5.0, 0, 1), (1.0, 0, 2)])
        with pytest.raises(ValueError, match="non-decreasing"):
            read_trace(path)

    def test_spec_autostamps_digest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        digest = write_trace(path, 16, self.arrivals())
        spec = SourceSpec(kind="trace", trace_path=str(path))
        assert spec.trace_digest == digest


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SourceSpec(kind="fractal")

    def test_dict_roundtrip_every_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, 16, [(1.0, 0, 1)])
        specs = list(NON_POISSON.values()) + [
            DEFAULT_SOURCE,
            SourceSpec(kind="trace", trace_path=str(path)),
        ]
        for spec in specs:
            assert source_from_dict(spec.as_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            source_from_dict({"kind": "cbr", "burst_len": 4})

    def test_labels(self):
        assert DEFAULT_SOURCE.label == "poisson"
        assert NON_POISSON["cbr"].label == "cbr"
        assert NON_POISSON["onoff-exp"].label == "onoff"
        assert NON_POISSON["onoff-pareto"].label == "onoff-pareto"
        assert NON_POISSON["hotspot"].label == "hotspot(poisson)"


_NONFINITE = [float("nan"), float("inf"), float("-inf")]

#: field -> the spec it perturbs (ON/OFF knobs on an ON/OFF spec, the
#: hotspot factor on a hotspot over Poisson)
_FINITE_FIELDS = {
    "on_mean": NON_POISSON["onoff-exp"],
    "off_mean": NON_POISSON["onoff-exp"],
    "pareto_alpha": NON_POISSON["onoff-pareto"],
    "hotspot_factor": NON_POISSON["hotspot"],
}


class TestNonFiniteParameters:
    """NaN passes every ``<``/``<=`` range check, and ``json`` reads it
    from a scenario file; such a source used to run zero events and be
    cached like any other.  It must fail closed wherever it enters."""

    @pytest.mark.parametrize("value", _NONFINITE, ids=str)
    @pytest.mark.parametrize("field", sorted(_FINITE_FIELDS))
    def test_spec_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(_FINITE_FIELDS[field], **{field: value})

    @pytest.mark.parametrize("field", sorted(_FINITE_FIELDS))
    def test_dict_rejects(self, field):
        data = _FINITE_FIELDS[field].as_dict()
        data[field] = float("nan")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            source_from_dict(data)

    def test_exp_tail_rejects_a_nonfinite_alpha_too(self):
        with pytest.raises(ValueError, match="pareto_alpha must be finite"):
            SourceSpec(kind="onoff", pareto_alpha=float("nan"))

    def test_stream_constructor_rejects(self):
        from repro.traffic.sources import OnOffArrivalStream

        with pytest.raises(ValueError, match="on_mean must be finite"):
            OnOffArrivalStream(
                np.random.default_rng(0), 16, 0.004, 0.0, [], None,
                lambda *a: None, on_mean=float("nan"), off_mean=600.0,
            )

    def test_scenario_json_with_nan_rejected(self, tmp_path):
        from repro.traffic.scenarios import SCENARIOS, Scenario, resolve_scenario

        data = SCENARIOS["onoff-bursty"].to_dict()
        data["source"]["on_mean"] = float("nan")
        text = json.dumps(data)
        assert '"on_mean": NaN' in text  # what json writes and reads back
        with pytest.raises(ValueError, match="on_mean must be finite"):
            Scenario.from_json(text)
        path = tmp_path / "nan.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="on_mean must be finite"):
            resolve_scenario(str(path))

    def test_valid_specs_keep_their_task_keys(self):
        from repro.traffic.scenarios import SCENARIOS

        pinned = {
            "cbr-sync": "421a4276d220d3bac19e95f5d4bd973b",
            "onoff-bursty": "e0915f8ea3103a7651aab32b7f79a955",
            "onoff-pareto": "a071155f0df5adcc4b9413212cf0f872",
            "hotspot-onoff": "26198cbdbdda417e182b22adb2b3209d",
            "mesh-onoff": "c0ab229f4250d17f495ab70b01dd1d03",
        }
        for name, key in pinned.items():
            task = SCENARIOS[name].task(0.004, SimConfig(seed=11))
            assert task.task_key() == key, name


class TestSeededDeterminism:
    @pytest.mark.parametrize("name", sorted(NON_POISSON))
    def test_same_seed_same_stream(self, name):
        spec = NON_POISSON[name]
        a = collect(spec, seed=42, count=500, lam_m=0.001, mnodes=range(16))
        b = collect(spec, seed=42, count=500, lam_m=0.001, mnodes=range(16))
        assert a == b

    @pytest.mark.parametrize("name", sorted(NON_POISSON))
    def test_different_seed_differs(self, name):
        a = collect(NON_POISSON[name], seed=1, count=200)
        b = collect(NON_POISSON[name], seed=2, count=200)
        assert a != b

    @pytest.mark.parametrize("name", sorted(NON_POISSON))
    def test_same_seed_same_sim_result(self, name):
        topo_sim = lambda: NocSimulator(*_quarc16())  # noqa: E731
        spec, cfg = _small_spec(), _small_cfg()
        r1 = topo_sim().run(spec, cfg, source=NON_POISSON[name])
        r2 = topo_sim().run(spec, cfg, source=NON_POISSON[name])
        assert r1.unicast.mean == r2.unicast.mean
        assert r1.generated_messages == r2.generated_messages
        assert r1.source == NON_POISSON[name].label


def _quarc16():
    from repro.routing import QuarcRouting
    from repro.topology import QuarcTopology

    topo = QuarcTopology(16)
    return topo, QuarcRouting(topo)


def _small_spec():
    from repro.core.flows import TrafficSpec

    return TrafficSpec(0.004, 0.0, 16)


def _small_cfg():
    return SimConfig(
        seed=9, warmup_cycles=500.0, target_unicast_samples=200,
        target_multicast_samples=40, max_cycles=200_000.0,
    )


def _source_task(spec: SourceSpec, label: str) -> SimTask:
    return SimTask(
        network="quarc",
        network_args=(16,),
        workload="random",
        group_size=4,
        workload_seed=3,
        message_rate=0.004,
        multicast_fraction=0.05,
        message_length=16,
        sim=_small_cfg(),
        source=spec,
        label=label,
    )


class TestExecutorEquivalence:
    """Acceptance clause: same seed -> same arrivals (and therefore the
    same simulated latencies) through every executor, for every
    non-Poisson source including trace replay."""

    def tasks(self, tmp_path):
        specs = dict(NON_POISSON)
        trace_file = tmp_path / "exec.jsonl"
        write_trace(
            trace_file, 16,
            [
                (float(50 + 25 * i), i % 16, (i % 16 + 1 + i % 15) % 16)
                for i in range(600)
            ],
        )
        specs["trace"] = SourceSpec(kind="trace", trace_path=str(trace_file))
        return [_source_task(s, f"exec-{k}") for k, s in sorted(specs.items())]

    @staticmethod
    def fp(results):
        return [
            (r.unicast.mean, r.unicast.count, r.multicast.mean,
             r.generated_messages, r.events, r.source)
            for r in results
        ]

    def test_serial_parallel_distributed_bitwise(self, tmp_path):
        tasks = self.tasks(tmp_path)
        serial = self.fp(run_tasks(tasks))

        pool = make_executor(2)
        try:
            parallel = self.fp(run_tasks(tasks, executor=pool))
        finally:
            pool.close()
        assert _eq_nan(parallel, serial)

        ex = DistributedExecutor(
            "tcp://127.0.0.1:0", min_workers=1, start_timeout=30.0,
            heartbeat_timeout=5.0, worker_grace=10.0,
        )
        proc = None
        try:
            address = ex.start()
            proc = spawn_worker(address)
            distributed = self.fp(run_tasks(tasks, executor=ex))
        finally:
            ex.close()
            if proc is not None:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        assert _eq_nan(distributed, serial)


def _eq_nan(a, b):
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (math.isnan(x) and math.isnan(y))
        if isinstance(x, (tuple, list)):
            return len(x) == len(y) and all(eq(i, j) for i, j in zip(x, y))
        return x == y

    return eq(a, b)


class TestProvenanceAndLoad:
    def test_result_stamped_with_source_and_loads(self):
        topo, routing = _quarc16()
        res = NocSimulator(topo, routing).run(
            _small_spec(), _small_cfg(), source=NON_POISSON["cbr"]
        )
        assert res.source == "cbr"
        assert res.nominal_load == pytest.approx(0.004)
        assert math.isfinite(res.offered_load)
        # CBR delivers its nominal rate almost exactly
        assert res.offered_load == pytest.approx(0.004, rel=0.05)

    def test_default_source_stamps_poisson(self):
        topo, routing = _quarc16()
        res = NocSimulator(topo, routing).run(_small_spec(), _small_cfg())
        assert res.source == "poisson"

    def test_registry_covers_every_kind(self):
        assert sorted(SOURCE_KINDS) == [
            "cbr", "hotspot", "onoff", "poisson", "trace"
        ]
        for kind, source in SOURCE_KINDS.items():
            assert source.kind == kind


class TestArrivalLog:
    def test_arrival_log_captures_spawns(self):
        topo, routing = _quarc16()
        log: list = []
        res = NocSimulator(topo, routing).run(
            _small_spec(), _small_cfg(), arrival_log=log
        )
        assert len(log) == res.generated_messages
        times = [t for t, _n, _d in log]
        assert times == sorted(times)
        assert all(0 <= n < 16 for _t, n, _d in log)

    def test_logged_run_equals_unlogged(self):
        topo, routing = _quarc16()
        r1 = NocSimulator(topo, routing).run(_small_spec(), _small_cfg())
        r2 = NocSimulator(topo, routing).run(
            _small_spec(), _small_cfg(), arrival_log=[]
        )
        assert r1.unicast.mean == r2.unicast.mean
        assert r1.events == r2.events


class TestWeightFolding:
    def test_explicit_spec_weights_win_over_source(self):
        """A spec that already carries unicast_weights keeps them; the
        source's skew only fills the gap."""
        from repro.core.flows import TrafficSpec

        topo, routing = _quarc16()
        explicit = (1.0,) * 8 + (3.0,) * 8
        spec = dataclasses.replace(_small_spec(), unicast_weights=explicit)
        res = NocSimulator(topo, routing).run(
            spec, _small_cfg(), source=NON_POISSON["hotspot"]
        )
        assert res.spec.unicast_weights == explicit

    def test_source_weights_fold_into_spec(self):
        topo, routing = _quarc16()
        res = NocSimulator(topo, routing).run(
            _small_spec(), _small_cfg(), source=NON_POISSON["hotspot"]
        )
        assert res.spec.unicast_weights == (8.0,) + (1.0,) * 15
