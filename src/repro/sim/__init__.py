"""Flit-level wormhole NoC simulator (the validation substrate).

The paper validates its model against a flit-level OMNET++ simulator
(Section 4).  We rebuild that simulator as an *exact event-driven worm
simulator*: under the paper's own assumptions -- single-flit channel
buffers, one flit per channel per cycle, messages longer than the network
diameter, non-preemptive FIFO arbitration -- a worm's flits form a rigid
train behind its header, so the complete flit-level timing (including the
absorb-and-forward clone absorption instants of every multicast target) is
an exact closed-form function of the header's channel-acquisition times.
The event-driven simulator therefore reproduces cycle-accurate flit-level
behaviour at a small fraction of the cost of ticking every flit.

See ``DESIGN.md`` ("Substitutions") and :mod:`repro.sim.worm` for the
derivation and :mod:`repro.sim.network` for the simulator facade.
"""

from repro.sim.adaptive import (
    AdaptivePoint,
    AdaptiveSettings,
    StopDecision,
    run_adaptive_tasks,
    stopping_decision,
)
from repro.sim.arrivals import PoissonArrivalStream
from repro.sim.engine import ENGINE_VERSION, EventQueue, HeapEventQueue
from repro.sim.measurement import LatencyStats
from repro.sim.network import (
    AUTO_KERNEL_DEPTH,
    AUTO_KERNEL_MIN_NODES,
    KERNELS,
    NocSimulator,
    SimConfig,
    SimResult,
    resolve_auto_kernel,
)
from repro.sim.replication import (
    ReplicationSummary,
    mser_truncation,
    pooled_mean_halfwidth,
    replication_tasks,
    run_replications,
    summarize_task_results,
)
from repro.sim.trace import ChannelUtilizationTracer, CompositeTracer
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import (
    CWormEngine,
    HeapWormEngine,
    WormEngine,
    c_kernel_status,
)

__all__ = [
    "ENGINE_VERSION",
    "EventQueue",
    "AUTO_KERNEL_DEPTH",
    "AUTO_KERNEL_MIN_NODES",
    "resolve_auto_kernel",
    "HeapEventQueue",
    "HeapWormEngine",
    "KERNELS",
    "PoissonArrivalStream",
    "Worm",
    "WormClass",
    "NocSimulator",
    "SimConfig",
    "SimResult",
    "LatencyStats",
    "AdaptivePoint",
    "AdaptiveSettings",
    "StopDecision",
    "run_adaptive_tasks",
    "stopping_decision",
    "ReplicationSummary",
    "run_replications",
    "replication_tasks",
    "summarize_task_results",
    "mser_truncation",
    "pooled_mean_halfwidth",
    "ChannelUtilizationTracer",
    "CompositeTracer",
    "CWormEngine",
    "WormEngine",
    "c_kernel_status",
]
