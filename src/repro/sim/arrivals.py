"""Batched Poisson arrival generation for the NoC simulator.

The pre-typed kernel scheduled one self-rescheduling closure per traffic
source into the main event heap: every arrival cost a lambda allocation,
two passes through a heap shared with millions of network events, and a
Python dispatch.  This module generates the same arrival process *outside*
the event heap, in refilled blocks consumed by the engine's fused loop
(:meth:`repro.sim.wormengine.WormEngine.run_events`).

Bit-compatibility
-----------------
Results must be identical to the legacy kernel for a fixed seed (the
golden-seed regression suite enforces this), which pins down the exact
order in which the shared ``numpy`` Generator is consumed:

* at setup, one initial inter-arrival gap per unicast source (in node
  order) then one per multicast source (in sorted node order);
* thereafter, in arrival-time order across *all* sources: the destination
  draw (unicast only) followed by that source's next gap.

The legacy kernel realised this order implicitly -- generator events fired
from the heap in time order, drawing as they fired.  Here a tiny per-source
head-heap replays the same merge ahead of time, in blocks: the draws are
the same scalar draws in the same global order, so the realisation is
bit-identical, but the per-arrival cost drops to one small-heap update and
a list append (no closure, no traffic through the main event heap).  Ties
between two sources at the same timestamp break by generation order,
mirroring the legacy scheduler's sequence numbers.  Drawing per-source
blocks (``rng.exponential(size=B)``) would *change the interleaving* --
and therefore the realisation -- so every stream here draws scalars.

The block arrays also pre-resolve destinations (uniform integer draw with
the self-exclusion shift, or CDF inversion for weighted patterns), so the
consumer just reads ``(time, node, dest)`` triples.

Merge point with the calendar kernel (ENGINE_VERSION 3)
-------------------------------------------------------
The fused dispatch loop merges this stream against the event queue by
comparing ``next_time`` heads, and caches the arrival head on the engine
between firings so the free-path fast-forward checks are plain float
compares.  Two ordering details are load-bearing there: ``fire`` updates
``next_time`` *before* invoking ``spawn`` (the engine re-reads the head
at injection, so a freshly spawned worm fast-forwards against the *next*
arrival, not the one being consumed), and ties between an event and an
arrival at the same timestamp fire the event first -- both properties
are pinned by the calendar/heap differential suite.

Native twin (compiled kernel)
-----------------------------
Under ``kernel="c"`` the simulator replaces :class:`PoissonArrivalStream`
and the CBR and ON/OFF :class:`MergedArrivalStream` subclasses of
:mod:`repro.traffic.sources` with ``repro.sim._cstep.ArrivalStream``,
which keeps the same per-source head-heap (an ON/OFF head carries its
window along) and draws from the same Generator with numpy's own
distribution functions, one arrival at a time as it fires -- the same
draws in the same order, so the same bits.  The dispatch loop consumes
it inline.  These classes stay as the compiler-free path and as the
oracle the native stream is checked against (at import by
:mod:`repro.sim.cext`, and by ``tests/test_native_arrivals.py``).
"""

from __future__ import annotations

import math
from heapq import heapify, heapreplace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["PoissonArrivalStream", "MergedArrivalStream"]

#: destination placeholder marking a multicast arrival
MULTICAST = -1


class PoissonArrivalStream:
    """Merged per-node Poisson arrivals, pre-generated in blocks.

    Implements the engine's :class:`~repro.sim.wormengine.ArrivalSource`
    protocol: ``next_time`` plus ``fire(t)``, which pops the next arrival
    and invokes ``spawn(t, node, dest)`` (``dest`` is ``MULTICAST`` for a
    multicast arrival).

    Parameters
    ----------
    rng:
        The run's shared generator; consumed in the legacy draw order.
    num_nodes:
        Network size ``N`` (for destination draws).
    unicast_rate / multicast_rate:
        Per-node Poisson rates; a rate of 0 disables that class.
    multicast_nodes:
        Nodes generating multicast traffic, already sorted.
    dest_cdfs:
        Per-source destination CDFs for weighted patterns; ``None`` keeps
        the uniform integer-draw fast path.
    spawn:
        Callback receiving each consumed arrival.
    block:
        Maximum arrivals pre-generated per refill.  Refills start small
        and double toward this cap, so short runs do not pay for draws
        they never consume while long runs amortise the refill overhead.
    """

    __slots__ = (
        "next_time",
        "_rng",
        "_num_nodes",
        "_heads",
        "_order",
        "_dest_cdfs",
        "_spawn",
        "_block",
        "_next_block",
        "_times",
        "_nodes",
        "_dests",
        "_idx",
        "_count",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        block: int = 2048,
    ) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rng = rng
        self._num_nodes = num_nodes
        self._dest_cdfs = dest_cdfs
        self._spawn = spawn
        self._block = block
        self._next_block = min(256, block)
        # source heads: (next arrival time, generation order, node, scale);
        # unicast sources use the true node id, multicast sources are
        # tagged by ~node so one heap carries both classes.  Initial draws
        # happen in the legacy order: unicast nodes first, then multicast.
        heads: list[tuple[float, int, int, float]] = []
        order = 0
        if unicast_rate > 0.0:
            scale = 1.0 / unicast_rate
            for node in range(num_nodes):
                heads.append((self._initial_time(node, scale), order, node, scale))
                order += 1
        if multicast_rate > 0.0:
            scale = 1.0 / multicast_rate
            for node in multicast_nodes:
                heads.append((self._initial_time(~node, scale), order, ~node, scale))
                order += 1
        heapify(heads)
        self._heads = heads
        self._order = order
        self._times: list[float] = []
        self._nodes: list[int] = []
        self._dests: list[int] = []
        self._idx = 0
        self._count = 0
        self._refill()

    @property
    def pending(self) -> bool:
        """True while the stream can still produce arrivals."""
        return bool(self._heads)

    def _initial_time(self, source: int, scale: float) -> float:
        """First arrival time of ``source`` (a tagged node id: ``node``
        for unicast, ``~node`` for multicast).  Runs once per source at
        setup, never in the refill hot path, so overriding it cannot
        perturb the legacy draw sequence for the Poisson default."""
        return self._rng.exponential(scale)

    # ------------------------------------------------------------------ #
    def _refill(self) -> None:
        """Pre-generate the next block of merged arrivals."""
        heads = self._heads
        if not heads:
            self.next_time = math.inf
            self._count = 0
            self._idx = 0
            return
        rng = self._rng
        exponential = rng.exponential
        integers = rng.integers
        n = self._num_nodes
        cdfs = self._dest_cdfs
        order = self._order
        size = self._next_block
        self._next_block = min(size * 2, self._block)
        times: list[float] = []
        nodes: list[int] = []
        dests: list[int] = []
        for _ in range(size):
            t, _o, node, scale = heads[0]
            if node >= 0:
                # destination draw precedes the gap draw, as in the
                # legacy per-event generator
                if cdfs is None:
                    dest = int(integers(0, n - 1))
                    if dest >= node:
                        dest += 1
                else:
                    dest = int(np.searchsorted(cdfs[node], rng.random(), side="right"))
                    dest = min(dest, n - 1)
                dests.append(dest)
                nodes.append(node)
            else:
                dests.append(MULTICAST)
                nodes.append(~node)
            times.append(t)
            heapreplace(heads, (t + exponential(scale), order, node, scale))
            order += 1
        self._order = order
        self._times = times
        self._nodes = nodes
        self._dests = dests
        self._idx = 0
        self._count = len(times)
        self.next_time = times[0]

    def fire(self, t: float) -> float:
        """Consume the arrival at ``t``; returns the new ``next_time``."""
        i = self._idx
        node = self._nodes[i]
        dest = self._dests[i]
        i += 1
        if i >= self._count:
            self._refill()
        else:
            self._idx = i
            self.next_time = self._times[i]
        # spawn after advancing: injection may fast-forward through idle
        # channels, which consults next_time for non-interference
        self._spawn(t, node, dest)
        return self.next_time


class MergedArrivalStream(PoissonArrivalStream):
    """Merged arrivals with a pluggable per-source gap process.

    Base class for the non-Poisson sources in :mod:`repro.traffic`:
    subclasses override :meth:`_initial_time` (absolute first arrival of
    one source) and :meth:`_next_gap` (inter-arrival gap following the
    arrival a source just produced), and this base replays exactly the
    block-pregenerated merge machinery the Poisson stream uses -- the
    per-source head-heap with generation-order tie-breaks, destination
    draws preceding gap draws in arrival-time order, and doubling refill
    blocks consumed by the engine's fused loop.

    The draw-order convention matters here for *determinism*, not legacy
    bit-compatibility (a non-Poisson process has no legacy realisation
    to match): all randomness is consumed from the run's seeded
    generator in merge order, so a fixed seed yields one fixed arrival
    realisation on every kernel (heapq, calendar, c) and every executor.
    The Poisson classes keep their own specialised ``_refill`` bodies,
    so this subclass cannot perturb the golden-pinned hot path.
    """

    __slots__ = ()

    def _next_gap(self, source: int, scale: float, t: float) -> float:
        """Gap between the arrival ``source`` produced at ``t`` and its
        next one.  ``source`` is the tagged node id (``node`` unicast,
        ``~node`` multicast); ``scale`` is ``1/rate`` for its class."""
        raise NotImplementedError

    def _refill(self) -> None:
        heads = self._heads
        if not heads:
            self.next_time = math.inf
            self._count = 0
            self._idx = 0
            return
        rng = self._rng
        integers = rng.integers
        next_gap = self._next_gap
        n = self._num_nodes
        cdfs = self._dest_cdfs
        order = self._order
        size = self._next_block
        self._next_block = min(size * 2, self._block)
        times: list[float] = []
        nodes: list[int] = []
        dests: list[int] = []
        for _ in range(size):
            t, _o, node, scale = heads[0]
            if node >= 0:
                # destination draw precedes the gap draw, matching the
                # Poisson stream's convention
                if cdfs is None:
                    dest = int(integers(0, n - 1))
                    if dest >= node:
                        dest += 1
                else:
                    dest = int(np.searchsorted(cdfs[node], rng.random(), side="right"))
                    dest = min(dest, n - 1)
                dests.append(dest)
                nodes.append(node)
            else:
                dests.append(MULTICAST)
                nodes.append(~node)
            times.append(t)
            heapreplace(heads, (t + next_gap(node, scale, t), order, node, scale))
            order += 1
        self._order = order
        self._times = times
        self._nodes = nodes
        self._dests = dests
        self._idx = 0
        self._count = len(times)
        self.next_time = times[0]
