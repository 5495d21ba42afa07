"""Tests for the declarative scenario registry and its cache-key contract.

The heart of this file is the parametrized "forgot-to-hash-it" suite:
*every* field of :class:`SimTask`, :class:`SimConfig`,
:class:`SourceSpec` and :class:`Scenario` must either provably perturb
the content hash it feeds, or be explicitly listed as descriptive.  A
new field added to any of these dataclasses without a row in the
perturbation tables fails the test by construction -- the failure mode
where a config knob silently doesn't invalidate the cache can never
ship quietly again.
"""

import dataclasses
import json
import math
import warnings

import pytest

from repro.core import AnalyticalModel
from repro.experiments.compare import (
    divergence_panels,
    render_divergence_summary,
)
from repro.experiments.io import ResultCache
from repro.experiments.report import render_scenario_series
from repro.experiments.runner import (
    RateDriftWarning,
    SweepPoint,
    apply_task_result,
)
from repro.faults import FaultSpec, QoSClass, QoSSpec, link_kill
from repro.orchestration import SimTask, make_executor
from repro.orchestration.tasks import StatsSummary, TaskResult
from repro.sim import AdaptiveSettings, SimConfig
from repro.traffic.scenarios import (
    SCENARIOS,
    Scenario,
    record_trace,
    resolve_scenario,
    run_scenario,
    save_scenario_json,
    scenario_result_to_dict,
)
from repro.traffic.sources import DEFAULT_SOURCE, SourceSpec

QUICK = SimConfig(
    seed=7, warmup_cycles=200.0, target_unicast_samples=60,
    target_multicast_samples=12, max_cycles=50_000.0,
)


def _tiny(name: str, **kw) -> Scenario:
    return dataclasses.replace(
        resolve_scenario(name), load_fractions=(0.2, 0.4), **kw
    )


# --------------------------------------------------------------------- #
# registry integrity


class TestRegistry:
    def test_at_least_four_non_poisson_sources(self):
        labels = {
            s.source.label for s in SCENARIOS.values()
            if s.source != DEFAULT_SOURCE
        }
        assert len(labels) >= 4, labels

    def test_poisson_control_present(self):
        assert SCENARIOS["poisson-uniform"].source == DEFAULT_SOURCE

    def test_names_match_keys_and_are_unique(self):
        assert sorted(SCENARIOS) == sorted(s.name for s in SCENARIOS.values())
        keys = [s.scenario_key() for s in SCENARIOS.values()]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_json_roundtrip(self, name):
        s = SCENARIOS[name]
        assert Scenario.from_json(s.to_json()) == s

    def test_key_excludes_name_and_description(self):
        s = SCENARIOS["cbr-uniform"]
        renamed = dataclasses.replace(
            s, name="elsewhere", description="different words"
        )
        assert renamed.scenario_key() == s.scenario_key()

    def test_resolve_by_name_file_and_error(self, tmp_path):
        assert resolve_scenario("onoff-bursty") is SCENARIOS["onoff-bursty"]
        path = tmp_path / "s.json"
        path.write_text(SCENARIOS["cbr-sync"].to_json())
        assert resolve_scenario(str(path)) == SCENARIOS["cbr-sync"]
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("no-such-scenario")

    def test_validation(self):
        with pytest.raises(ValueError, match="network"):
            Scenario(name="x", network="hypercube")
        with pytest.raises(ValueError, match="workload"):
            Scenario(name="x", workload="adversarial")
        with pytest.raises(ValueError, match="name"):
            Scenario(name="")
        with pytest.raises(ValueError, match="load_fractions|rates"):
            Scenario(name="x", load_fractions=())
        with pytest.raises(ValueError, match="unknown Scenario fields"):
            Scenario.from_dict({"name": "x", "topology": "quarc"})


# --------------------------------------------------------------------- #
# the forgot-to-hash-it suite

BASE_TASK_KW = dict(
    network="quarc", network_args=(16,), workload="random", group_size=6,
    workload_seed=2009, rim=None, message_rate=0.004,
    multicast_fraction=0.05, message_length=32, sim=SimConfig(seed=11),
    one_port=False,
    source=SourceSpec(
        kind="hotspot",
        base=SourceSpec(kind="onoff", on_mean=200.0, off_mean=600.0),
        hotspots=(0,), hotspot_factor=8.0,
    ),
)

#: field -> replacement value that must change SimTask.task_key().
TASK_PERTURBATIONS = {
    "network": "spidergon",
    "network_args": (32,),
    "workload": "random_per_node",
    "group_size": 7,
    "workload_seed": 2010,
    "rim": "L",
    "message_rate": 0.005,
    "multicast_fraction": 0.06,
    "message_length": 64,
    "sim": SimConfig(seed=12),
    "one_port": True,
    "source": SourceSpec(kind="cbr"),
    "faults": FaultSpec(events=(link_kill(500.0, 0, 1),)),
    "qos": QoSSpec(classes=(
        QoSClass("bulk", 0.5, priority=0),
        QoSClass("express", 0.5, priority=1),
    )),
    "monitors": ("pdr",),
}
#: descriptive fields, deliberately outside the hash
TASK_DESCRIPTIVE = {"label", "scenario"}

SIM_CONFIG_PERTURBATIONS = {
    "seed": 12,
    "warmup_cycles": 6_000.0,
    "target_unicast_samples": 2_001,
    "target_multicast_samples": 401,
    "max_cycles": 3_000_000.0,
    "max_in_flight": 123,
    "check_interval": 2048,
}

SOURCE_PERTURBATIONS = {
    "kind": None,  # replaced wholesale below: kind implies other fields
    "cbr_jitter": 0.25,
    "on_mean": 100.0,
    "off_mean": 500.0,
    "on_tail": "pareto",
    "pareto_alpha": 2.5,
    "base": SourceSpec(kind="cbr"),
    "hotspots": (0, 1),
    "hotspot_factor": 4.0,
    "trace_path": "/tmp/other.jsonl",
    "trace_digest": "f" * 32,
}

SCENARIO_PERTURBATIONS = {
    "network": "torus",
    "network_args": (4, 4),
    "workload": "random_per_node",
    "group_size": 5,
    "workload_seed": 99,
    "rim": "R",
    "multicast_fraction": 0.2,
    "message_length": 8,
    "source": SourceSpec(kind="cbr"),
    "load_fractions": (0.1, 0.9),
    "rates": (0.001, 0.002),
    "one_port": True,
    "seed": 4,
    "faults": FaultSpec(events=(link_kill(500.0, 0, 1),)),
    "qos": QoSSpec(classes=(
        QoSClass("bulk", 0.5, priority=0),
        QoSClass("express", 0.5, priority=1),
    )),
    "monitors": ("pdr",),
}
SCENARIO_DESCRIPTIVE = {"name", "description"}


class TestEveryFieldIsHashed:
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimTask)]
    )
    def test_sim_task_field(self, field):
        if field in TASK_DESCRIPTIVE:
            base = SimTask(**BASE_TASK_KW)
            stamped = dataclasses.replace(base, **{field: "changed"})
            assert stamped.task_key() == base.task_key()
            return
        assert field in TASK_PERTURBATIONS, (
            f"new SimTask field {field!r}: add it to TASK_PERTURBATIONS "
            f"(hashed) or TASK_DESCRIPTIVE (provably excluded)"
        )
        base = SimTask(**BASE_TASK_KW)
        changed = dataclasses.replace(
            base, **{field: TASK_PERTURBATIONS[field]}
        )
        assert changed.task_key() != base.task_key(), field

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimConfig)]
    )
    def test_sim_config_field(self, field):
        assert field in SIM_CONFIG_PERTURBATIONS, (
            f"new SimConfig field {field!r}: add a perturbation "
            f"(every run-control knob must reach the task key)"
        )
        base = SimTask(**BASE_TASK_KW)
        changed = dataclasses.replace(
            base,
            sim=dataclasses.replace(
                base.sim, **{field: SIM_CONFIG_PERTURBATIONS[field]}
            ),
        )
        assert changed.task_key() != base.task_key(), field

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SourceSpec)]
    )
    def test_source_spec_field(self, field):
        assert field in SOURCE_PERTURBATIONS, (
            f"new SourceSpec field {field!r}: add a perturbation "
            f"(every source knob must reach the task key)"
        )
        base = SimTask(**BASE_TASK_KW)
        if field == "kind":
            changed = dataclasses.replace(base, source=SourceSpec())
        elif field in ("base", "hotspots", "hotspot_factor"):
            # perturb in place on the hotspot wrapper the base task uses
            changed = dataclasses.replace(
                base,
                source=dataclasses.replace(
                    base.source, **{field: SOURCE_PERTURBATIONS[field]}
                ),
            )
        elif field in ("trace_path", "trace_digest"):
            trace_a = SourceSpec(
                kind="trace", trace_path="/tmp/a.jsonl", trace_digest="a" * 32
            )
            base = dataclasses.replace(
                SimTask(**BASE_TASK_KW), source=trace_a
            )
            changed = dataclasses.replace(
                base,
                source=dataclasses.replace(
                    trace_a, **{field: SOURCE_PERTURBATIONS[field]}
                ),
            )
        else:
            kind = "cbr" if field == "cbr_jitter" else "onoff"
            src = SourceSpec(kind=kind)
            base = dataclasses.replace(SimTask(**BASE_TASK_KW), source=src)
            changed = dataclasses.replace(
                base,
                source=dataclasses.replace(
                    src, **{field: SOURCE_PERTURBATIONS[field]}
                ),
            )
        assert changed.task_key() != base.task_key(), field

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(Scenario)]
    )
    def test_scenario_field(self, field):
        base = SCENARIOS["onoff-bursty"]
        if field in SCENARIO_DESCRIPTIVE:
            changed = dataclasses.replace(base, **{field: "changed"})
            assert changed.scenario_key() == base.scenario_key()
            return
        assert field in SCENARIO_PERTURBATIONS, (
            f"new Scenario field {field!r}: add a perturbation "
            f"(every study knob must reach the scenario key)"
        )
        changed = dataclasses.replace(
            base, **{field: SCENARIO_PERTURBATIONS[field]}
        )
        assert changed.scenario_key() != base.scenario_key(), field


# --------------------------------------------------------------------- #
# running scenarios


class TestRunScenario:
    def test_serial_smoke_and_model_columns(self):
        res = run_scenario(_tiny("cbr-uniform"), sim_config=QUICK)
        assert len(res.points) == 2
        for p in res.points:
            assert p.has_sim
            assert math.isfinite(p.model_occupancy_unicast)
            assert math.isfinite(p.offered_load)
        assert res.saturation_rate > 0.0

    def test_absolute_rates_override_fractions(self):
        s = dataclasses.replace(
            SCENARIOS["cbr-uniform"], rates=(0.001, 0.002), load_fractions=()
        )
        _sat, sweep, points = s.model_series()
        assert sweep == [0.001, 0.002]
        assert [p.rate for p in points] == [0.001, 0.002]

    def test_hotspot_scenario_weights_reach_the_model(self):
        """The skew is modelled, not just simulated: a hotspot scenario's
        model series differs from the uniform control's."""
        uniform = SCENARIOS["poisson-uniform"].model_series()
        hotspot = SCENARIOS["hotspot-poisson"].model_series()
        assert hotspot[0] != uniform[0]  # saturation rate shifts

    def test_one_port_scenario_reaches_the_model(self):
        """The model series of a one-port scenario is the one-port
        model's, as its simulation is one-port."""
        uniform = SCENARIOS["poisson-uniform"]
        one_port = dataclasses.replace(uniform, one_port=True)
        task = one_port.task(0.0, SimConfig())
        topo, routing = task.build_network()
        spec = task.build_spec(routing, sets=task.build_sets(routing))
        model = AnalyticalModel(topo, routing, one_port=True, recursion="occupancy")
        sat, rates, points = one_port.model_series()
        assert sat == model.saturation_rate(spec.with_rate(1e-6))
        multicast = [p.model_occupancy_multicast for p in points]
        assert multicast == [model.evaluate(spec.with_rate(r)).multicast_latency for r in rates]
        # on 16 nodes the rim saturates first, so only the latencies move
        assert multicast != [p.model_occupancy_multicast for p in uniform.model_series()[2]]
        # on 8 the single injection channel saturates first
        small = dataclasses.replace(uniform, network_args=(8,))
        small_one_port = dataclasses.replace(small, one_port=True)
        assert small_one_port.model_series()[0] < small.model_series()[0]

    def test_cache_round_trip_is_bitwise(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        s = _tiny("onoff-bursty")
        first = run_scenario(s, sim_config=QUICK, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        again = run_scenario(s, sim_config=QUICK, cache=cache)
        assert cache.hits == 2
        assert dataclasses.asdict(first.points[0]) == pytest.approx(
            dataclasses.asdict(again.points[0]), nan_ok=True
        )
        # cached entries carry the scenario's source provenance
        info = cache.info()
        assert info["by_source"] == {"onoff": 2}

    def test_serial_equals_parallel(self):
        s = _tiny("cbr-uniform")
        serial = run_scenario(s, sim_config=QUICK)
        pool = make_executor(2)
        try:
            parallel = run_scenario(s, sim_config=QUICK, executor=pool)
        finally:
            pool.close()
        for a, b in zip(serial.points, parallel.points):
            assert a.sim_unicast == b.sim_unicast
            assert a.offered_load == b.offered_load

    def test_adaptive_mode(self):
        s = dataclasses.replace(_tiny("cbr-uniform"), load_fractions=(0.3,))
        res = run_scenario(
            s, sim_config=QUICK,
            adaptive=AdaptiveSettings(ci_rel=0.5, min_reps=2, max_reps=2),
        )
        [p] = res.points
        assert p.sim_replications == 2

    def test_finite_points_drops_saturated(self):
        s = dataclasses.replace(
            SCENARIOS["poisson-uniform"], rates=(0.05,), load_fractions=()
        )
        res = run_scenario(s, sim_config=QUICK)
        assert res.points[0].sim_saturated
        assert res.finite_points() == []


# --------------------------------------------------------------------- #
# reports and divergence panels


class TestReports:
    def make_results(self):
        return [
            run_scenario(_tiny(n), sim_config=QUICK)
            for n in ("poisson-uniform", "onoff-bursty")
        ]

    def test_render_scenario_series(self):
        res = run_scenario(_tiny("cbr-uniform"), sim_config=QUICK)
        text = render_scenario_series(res)
        assert "scenario cbr-uniform" in text
        assert "constant-bit-rate" in text
        assert "offered load drift" in text
        assert "agreement[occupancy]" in text

    def test_divergence_summary(self):
        results = self.make_results()
        text = render_divergence_summary(results, threshold=10.0)
        assert "poisson-uniform" in text and "onoff-bursty" in text
        assert "verdict" in text and "threshold: 10%" in text

    def test_divergence_panels_bias_sign_convention(self):
        results = self.make_results()
        panels = divergence_panels(results)
        for panel in panels:
            assert math.isfinite(panel.bias)
            assert panel.occupancy.variant == "occupancy"
            assert panel.verdict(1e9) in ("agrees", "no data")
            if math.isfinite(panel.occupancy.unicast_mape):
                expected = (
                    "over-predicts" if panel.bias > 0 else "under-predicts"
                )
                assert panel.verdict(0.0) == expected

    def test_scenario_json_save(self, tmp_path):
        res = run_scenario(_tiny("cbr-uniform"), sim_config=QUICK)
        path = save_scenario_json(res, tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data["scenario"]["name"] == "cbr-uniform"
        assert data["scenario_key"] == res.scenario.scenario_key()
        assert len(data["points"]) == 2
        assert scenario_result_to_dict(res) == data


# --------------------------------------------------------------------- #
# trace recording


class TestRecordTrace:
    def test_record_then_replay_is_deterministic(self, tmp_path):
        s = dataclasses.replace(
            SCENARIOS["onoff-bursty"], rates=(0.003,), load_fractions=()
        )
        spec = record_trace(s, 0.003, tmp_path / "t.jsonl", sim_config=QUICK)
        assert spec.kind == "trace" and len(spec.trace_digest) == 32
        replay = dataclasses.replace(s, source=spec, name="replayed")
        with warnings.catch_warnings():
            # a bursty trace legitimately drifts from the nominal rate;
            # here only determinism is under test
            warnings.simplefilter("ignore", RateDriftWarning)
            r1 = run_scenario(replay, sim_config=QUICK)
            r2 = run_scenario(replay, sim_config=QUICK)
        assert r1.points[0].sim_unicast == r2.points[0].sim_unicast
        assert r1.points[0].has_sim

    def test_trace_metadata_names_the_scenario(self, tmp_path):
        from repro.traffic.trace import read_trace

        s = dataclasses.replace(
            SCENARIOS["cbr-uniform"], rates=(0.002,), load_fractions=()
        )
        record_trace(s, 0.002, tmp_path / "t.jsonl", sim_config=QUICK)
        header, _t, _n, _d = read_trace(tmp_path / "t.jsonl")
        assert header["scenario"] == "cbr-uniform"
        assert header["scenario_key"] == s.scenario_key()
        assert header["rate"] == 0.002


# --------------------------------------------------------------------- #
# offered-load drift accounting (satellite: measured vs nominal)


def _result(nominal, offered, generated=1_000_000, saturated=False):
    return TaskResult(
        task_key="k", label="drift-test", unicast=StatsSummary(40.0, 1.0, 500),
        multicast=StatsSummary(), saturated=saturated, target_met=True,
        deadlock_recoveries=0, recovered_samples=0, sim_time=1e5,
        events=10_000, generated_messages=generated, completed_messages=generated,
        nominal_load=nominal, offered_load=offered,
    )


def _point():
    return SweepPoint(0.004, 40.0, 45.0, 40.0, 45.0)


class TestRateDrift:
    def test_large_drift_warns(self):
        with pytest.warns(RateDriftWarning, match="drift"):
            apply_task_result(_point(), _result(0.004, 0.005))

    def test_small_drift_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RateDriftWarning)
            apply_task_result(_point(), _result(0.004, 0.004002))

    def test_statistical_noise_tolerated_when_few_messages(self):
        # 3% drift on 400 messages is within 4/sqrt(n) noise
        with warnings.catch_warnings():
            warnings.simplefilter("error", RateDriftWarning)
            apply_task_result(_point(), _result(0.004, 0.00412, generated=400))

    def test_saturated_runs_exempt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RateDriftWarning)
            apply_task_result(
                _point(), _result(0.004, 0.002, saturated=True)
            )

    def test_unstamped_results_exempt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RateDriftWarning)
            apply_task_result(_point(), _result(math.nan, math.nan))

    def test_point_records_measured_load(self):
        p = _point()
        apply_task_result(p, _result(0.004, 0.004002))
        assert p.offered_load == 0.004002
        assert p.offered_load_drift == pytest.approx(0.0005)
