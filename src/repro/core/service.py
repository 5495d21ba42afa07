"""Mean channel service times: the fixed point of paper Eq. 6.

The mean service time of a channel is the mean time a worm occupies it:
the downstream channel's own service plus one cycle of forwarding plus the
(self-traffic discounted) waiting it may incur for that downstream channel::

    x_i = sum_j P(i->j) * [ (1 - lambda_i P(i->j) / lambda_j) * W_j + x_j + 1 ]

with ejection channels anchoring the recursion at ``x = msg`` (a sink
absorbs one flit per cycle, so an ejection channel is occupied for exactly
the message length).  ``W_j`` is the M/G/1 waiting time (Eq. 3) under the
paper's variance convention (Eq. 5), which couples back to ``x_j`` -- on
cyclic channel graphs (any ring/rim) the equations are mutually recursive,
so we solve them by damped fixed-point iteration over all channels.

The iteration runs in the optional C extension :mod:`repro.core._eq6`
when it is built (``python -m repro kernels`` says whether it is), and
otherwise in :func:`_fixed_point_numpy`.  The numpy loop is the
reference: the compiled one repeats its arithmetic and summation order
element by element, and ``tests/test_eq6_native.py`` compares the two
bit for bit.

Saturation: when any channel's utilisation ``rho = lambda * x`` reaches 1
its waiting time diverges; the solver reports this via
:attr:`ServiceTimeResult.saturated` (and :class:`SaturatedError` from the
strict entry points).

Two recursions
--------------
``recursion="paper"`` implements Eq. 6 verbatim.  ``recursion="occupancy"``
drops the ``+ 1`` chain::

    x_i = msg + sum_j P(i->j) * [ (1 - ...) W_j + (x_j - msg) ]

which equals the *exact* mean channel occupancy of a wormhole worm under
the rigid-train mechanics (channel held for the message length plus all
discounted downstream stalls) whenever messages are longer than the
remaining path -- the regime the paper assumes.  Eq. 6's extra ``+1`` per
downstream hop additionally charges each channel for the header's
downstream propagation delay, inflating utilisation for paths that are
long relative to the message.  Both are provided; the A-expmax/A-service
ablation benches quantify the difference against the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.core.channel_graph import ChannelGraph, RouteTable
from repro.core.flows import FlowAccumulator
from repro.native import load_optional

__all__ = [
    "SaturatedError",
    "ServiceTimeResult",
    "native_fixed_point_status",
    "solve_service_times",
]

_eq6, _EQ6_UNAVAILABLE = load_optional("repro.core._eq6")


def native_fixed_point_status() -> tuple[bool, str | None]:
    """``(built, reason_if_not)`` for the compiled Eq. 6 loop."""
    return _eq6 is not None, _EQ6_UNAVAILABLE


class SaturatedError(RuntimeError):
    """Raised when the offered load saturates at least one channel."""

    def __init__(
        self, message: str, *, channel: str | None = None, rho: float | None = None
    ) -> None:
        super().__init__(message)
        self.channel = channel
        self.rho = rho


@dataclass
class ServiceTimeResult:
    """Converged (or diverged) state of the Eq. 6 fixed point."""

    graph: ChannelGraph
    flows: FlowAccumulator
    message_length: int
    mean_service: NDArray[np.float64]  #: x_i per channel (cycles)
    waiting: NDArray[np.float64]  #: W_i per channel (cycles); inf where saturated
    utilization: NDArray[np.float64]  #: rho_i per channel
    iterations: int
    converged: bool
    saturated: bool

    @property
    def max_utilization(self) -> float:
        return float(np.max(self.utilization)) if len(self.utilization) else 0.0

    def bottleneck(self) -> tuple[str, float]:
        """The most utilised channel and its rho."""
        idx = int(np.argmax(self.utilization))
        return self.graph.describe(idx), float(self.utilization[idx])

    def discounted_waiting(self, prev: int, idx: int) -> float:
        """Waiting a worm coming from channel ``prev`` incurs at ``idx``:
        ``(1 - feed_fraction) * W_idx`` (the Eq. 6 discount)."""
        w = self.waiting[idx]
        disc = 1.0 - self.flows.feed_fraction(prev, idx)
        if w == 0.0 or disc == 0.0:
            return 0.0
        return disc * float(w)

    def discounted_waitings(self, table: RouteTable) -> NDArray[np.float64]:
        """:meth:`discounted_waiting` for every channel pair of ``table``."""
        disc = self.flows.discounts(table)
        w = self.waiting[table.pair_dst]
        with np.errstate(invalid="ignore"):
            out = np.where((w == 0.0) | (disc == 0.0), 0.0, disc * w)
        return np.asarray(out, dtype=np.float64)


def _pk_waiting(
    lam: NDArray[np.float64], busy: NDArray[np.bool_], x: NDArray[np.float64], msg: float
) -> NDArray[np.float64]:
    """Vectorised Pollaczek-Khinchine (Eq. 3) with sigma = x - msg (Eq. 5);
    ``busy`` is ``lam > 0``.  Infinite where ``rho >= 1`` (also where
    ``x`` is infinite: then ``rho`` is too)."""
    sigma = np.maximum(x - msg, 0.0)
    second_moment = x * x + sigma * sigma
    rho = lam * x
    unsat = busy & (rho < 1.0)
    w = np.where(unsat, lam * second_moment / (2.0 * (1.0 - rho)), np.where(busy, np.inf, 0.0))
    return np.asarray(w, dtype=np.float64)


def _fixed_point_numpy(
    x: NDArray[Any],
    lam: NDArray[np.float64],
    e_src: NDArray[np.int32],
    e_dst: NDArray[np.int32],
    e_p: NDArray[np.float64],
    e_disc: NDArray[np.float64],
    msg: float,
    base: float,
    hop_cost: float,
    tol: float,
    max_iterations: int,
    damping: float,
) -> tuple[int, bool]:
    """The damped Eq. 6 iteration in numpy, from the float64 iterate
    ``x``: leaves the final iterate in ``x`` and returns ``(iterations,
    converged)``.

    Each channel's new value is ``base`` plus the contributions of its
    forward edges, ``e_p * (discounted W + (x[dst] - base) + hop_cost)``
    (``msg`` for channels without edges).  ``repro.core._eq6.
    fixed_point`` takes the same arguments and reproduces this bit for
    bit; this loop is its reference and the compiler-free path.
    """
    n = len(x)
    out = x  # the loop rebinds x; its last value is copied back into out
    # Channels without forward transitions anchor at x = msg: ejection
    # channels structurally (sink absorbs 1 flit/cycle), unused channels
    # trivially (their value is never consumed by any flow).
    anchored = np.bincount(e_src, minlength=n) == 0
    # x_new[i] = base + the contributions of i's edges in edge order (msg
    # for anchored channels): one bincount over a leading entry per
    # channel followed by the edges, which adds in exactly that order
    targets = np.concatenate([np.arange(n), e_src])
    terms = np.concatenate([np.where(anchored, msg, base), np.zeros(len(e_src))])
    contrib = terms[n:]
    fully_discounted = e_disc == 0.0
    busy = lam > 0.0
    converged = False
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, max_iterations + 1):
            w = _pk_waiting(lam, busy, x, msg)
            # a fully-discounted edge (feed fraction 1) contributes no waiting
            # even when the downstream queue is saturated (W = inf): 0 * inf
            w_term = np.where(fully_discounted, 0.0, e_disc * w[e_dst])
            np.multiply(e_p, w_term + (x[e_dst] - base) + hop_cost, out=contrib)
            x_new = np.bincount(targets, weights=terms, minlength=n)
            delta = float(np.max(np.abs(x_new - x)))
            if not math.isfinite(delta):
                # a saturated channel propagated inf upstream: diverged
                x = x_new
                break
            x = damping * x_new + (1.0 - damping) * x
            if delta < tol * max(1.0, msg):
                converged = True
                break
    out[...] = x
    return iterations, converged


def solve_service_times(
    graph: ChannelGraph,
    flows: FlowAccumulator,
    message_length: int,
    *,
    recursion: str = "paper",
    tol: float = 1e-9,
    max_iterations: int = 5000,
    damping: float = 0.5,
) -> ServiceTimeResult:
    """Solve the Eq. 6 fixed point for all channels.

    Parameters
    ----------
    recursion:
        ``"paper"`` (Eq. 6 verbatim) or ``"occupancy"`` (exact wormhole
        channel occupancy; see module docstring).
    damping:
        Fraction of the new iterate mixed in each step; 0.5 is robust on
        the cyclic rim graphs, 1.0 is plain Gauss-Jacobi.
    """
    if recursion not in ("paper", "occupancy"):
        raise ValueError(f"recursion must be 'paper' or 'occupancy', got {recursion!r}")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    msg = float(message_length)
    lam = flows.arrival_rate
    hop_cost = 1.0 if recursion == "paper" else 0.0
    base = 0.0 if recursion == "paper" else msg
    x = np.full(graph.num_channels, msg, dtype=float)
    fixed_point = _fixed_point_numpy if _eq6 is None else _eq6.fixed_point
    iterations, converged = fixed_point(
        x, lam, flows.edge_src, flows.edge_dst, flows.edge_prob, flows.edge_discount,
        msg, base, hop_cost, tol, max_iterations, damping,
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = _pk_waiting(lam, lam > 0.0, x, msg)
        rho = np.where(np.isfinite(x), lam * x, np.inf)
        rho = np.where(lam == 0.0, 0.0, rho)
    saturated = bool(np.any(rho >= 1.0)) or bool(np.any(~np.isfinite(x)))
    return ServiceTimeResult(
        graph=graph,
        flows=flows,
        message_length=message_length,
        mean_service=x,
        waiting=w,
        utilization=rho,
        iterations=iterations,
        converged=converged and not saturated,
        saturated=saturated,
    )
