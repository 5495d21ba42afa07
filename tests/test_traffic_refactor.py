"""Bitwise refactor guard for the traffic-source subsystem.

The arrivals pipeline was re-layered in the traffic-source PR: the
simulator consumes arrivals through
:class:`~repro.traffic.sources.SourceSpec` /
``TrafficSource.make_stream`` (or, under the compiled kernel, through
the native twin of the Poisson stream) instead of constructing
:class:`~repro.sim.arrivals.PoissonArrivalStream` directly.  The
Poisson default must be a *pure* refactor -- not one draw reordered,
not one float different.  This file pins that three ways:

* **stream differential** -- the legacy constructor (and the native
  stream) and the layered path, driven from identically seeded
  generators over the A/B scenario parameter space, must emit the
  identical ``(t, node, dest)`` sequence;
* **sim differential** -- a run with the implicit default source and a
  run with an explicit ``SourceSpec()`` must fingerprint identically on
  every registered kernel, across the calendar-queue A/B scenario
  suite (the golden-seed suite separately pins those same runs to the
  frozen pre-refactor numbers);
* **key stability** -- a source-less ``SimTask`` hashes to the exact
  pre-subsystem key (frozen literal), so every existing cache entry and
  journal stays addressable.
"""

import numpy as np
import pytest

from repro.orchestration import SimTask
from repro.sim import KERNELS, NocSimulator, PoissonArrivalStream, SimConfig, cext
from repro.traffic.sources import DEFAULT_SOURCE, SourceSpec

from test_calendar_queue import AB_SCENARIOS, _eq_fp, _fingerprint

#: captured from the pre-refactor code (PR 7 HEAD) for this exact task;
#: if this ever changes, every cached result on disk silently strands
FROZEN_LEGACY_KEY = "4a514e29f4e4bc43f99ca70c1be2db8f"


def _kernels():
    names = [k for k in sorted(KERNELS) if k != "c"]
    if cext.available():
        names.append("c")
    return names


# --------------------------------------------------------------------- #
# stream-level differential


STREAM_CASES = {
    "unicast": dict(n=16, lam_u=0.004, lam_m=0.0, mnodes=()),
    "multicast": dict(n=16, lam_u=0.004, lam_m=0.0008, mnodes=tuple(range(16))),
    "multicast-subset": dict(
        n=32, lam_u=0.002, lam_m=0.0005, mnodes=tuple(range(0, 32, 3))
    ),
    "weighted": dict(n=16, lam_u=0.004, lam_m=0.0, mnodes=(), weighted=True),
    "multicast-only": dict(n=16, lam_u=0.0, lam_m=0.002, mnodes=tuple(range(16))),
}


def _drive_stream(build, seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    log: list = []
    stream = build(rng, lambda t, node, dest: log.append((t, node, dest)))
    while len(log) < count:
        stream.fire(stream.next_time)
    return log


#: direct stream constructors: the legacy Python stream and its native
#: twin (None when the extension is off)
DIRECT = {"legacy": PoissonArrivalStream, "native": cext.native_arrivals()}


@pytest.mark.parametrize("mode", sorted(DIRECT))
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_stream_layer_is_bitwise_transparent(case, mode):
    if DIRECT[mode] is None:
        pytest.skip(f"native stream off: {cext.native_arrivals_reason()}")
    params = dict(STREAM_CASES[case])
    n = params["n"]
    cdfs = None
    if params.pop("weighted", False):
        w = np.array([4.0] + [1.0] * (n - 1))
        cdfs = []
        for s in range(n):
            p = w.copy()
            p[s] = 0.0
            cdfs.append(np.cumsum(p / p.sum()))

    def legacy(rng, spawn):
        return DIRECT[mode](
            rng, n, params["lam_u"], params["lam_m"],
            sorted(params["mnodes"]), cdfs, spawn,
        )

    def layered(rng, spawn):
        return SourceSpec().make_stream(
            rng, n, params["lam_u"], params["lam_m"],
            sorted(params["mnodes"]), cdfs, spawn,
        )

    for seed in (0, 11, 2009):
        assert _drive_stream(legacy, seed, 400) == _drive_stream(
            layered, seed, 400
        ), (case, mode, seed)


# --------------------------------------------------------------------- #
# sim-level differential: implicit default vs explicit SourceSpec()


@pytest.mark.parametrize("name", sorted(AB_SCENARIOS))
def test_default_source_explicit_source_bitwise(name):
    build, make_spec, config = AB_SCENARIOS[name]
    topo, routing = build()
    spec = make_spec(routing)
    for kernel in _kernels():
        implicit = NocSimulator(topo, routing, kernel=kernel).run(spec, config)
        explicit = NocSimulator(topo, routing, kernel=kernel).run(
            spec, config, source=SourceSpec()
        )
        assert _eq_fp(_fingerprint(explicit), _fingerprint(implicit)), (
            name, kernel,
        )
        assert implicit.source == explicit.source == "poisson"


# --------------------------------------------------------------------- #
# key stability


def test_sourceless_task_key_is_the_frozen_pre_refactor_key():
    task = SimTask(
        network="quarc", network_args=(16,), workload="random", group_size=6,
        workload_seed=2009, message_rate=0.004, multicast_fraction=0.05,
        message_length=32, sim=SimConfig(seed=11), label="x",
    )
    assert task.task_key() == FROZEN_LEGACY_KEY


def test_default_source_task_key_matches_none():
    """A scenario running the default Poisson source must share cache
    entries with the plain sweeps: tasks() ships source=None for it."""
    base = dict(
        network="quarc", network_args=(16,), workload="random", group_size=6,
        workload_seed=2009, message_rate=0.004, multicast_fraction=0.05,
        message_length=32, sim=SimConfig(seed=11),
    )
    bare = SimTask(**base)
    stamped = SimTask(**base, scenario="poisson-uniform", label="p0")
    assert stamped.task_key() == bare.task_key() == FROZEN_LEGACY_KEY
    # but an explicit non-default source must not collide
    assert (
        SimTask(**base, source=SourceSpec(kind="cbr")).task_key()
        != bare.task_key()
    )
    # note: an *explicit* SourceSpec() also perturbs the key -- callers
    # wanting cache sharing pass None, which Scenario.tasks() does
    assert DEFAULT_SOURCE == SourceSpec()
