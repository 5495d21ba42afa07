"""Availability gate for the optional compiled stepper (:mod:`_cstep`).

The C extension is *optional*: the repo must remain fully functional --
tests green, ``kernel="auto"`` resolving sensibly -- on a machine with
no C compiler.  This module is the single place that knows whether the
extension imported, configured itself against the live class layouts,
and is therefore safe to drive; everything else asks :func:`available`
/ :func:`unavailable_reason` instead of importing :mod:`_cstep`
directly.

The import itself goes through :func:`repro.native.load_optional`,
shared with the model's compiled loop.  ``configure`` then hands the
extension the actual :class:`~repro.sim.worm.Worm`,
:class:`~repro.sim.engine.EventQueue` and
:class:`~repro.sim.measurement.LatencyStats` classes so it can resolve
their ``__slots__`` member offsets at runtime -- the C code never
hard-codes a struct layout, so an interpreter or class-layout change
degrades to "extension unavailable" rather than corruption.  Any failure
during import *or* configuration is recorded as the reason string
surfaced in run provenance and ``python -m repro kernels``.

The extension also carries the native arrival stream
(``_cstep.ArrivalStream``) for the generated timing processes in
:data:`NATIVE_PROCESSES`, which draws from the run's numpy Generator
with the distribution functions of the numpy it was built against.
Before it is offered, :func:`_check_native_arrivals` replays short
interleaved draw sequences through it and through the Python streams
(:class:`~repro.sim.arrivals.PoissonArrivalStream` and the CBR and
ON/OFF streams of :mod:`repro.traffic.sources`) on same-seed
Generators; if the numpy running now draws different bits, only the
native stream is turned off (:func:`native_arrivals_reason` says why)
and the rest of the compiled kernel stays on.
"""

from __future__ import annotations

import heapq
from types import ModuleType
from typing import Any, Optional

from repro.native import load_optional

__all__ = [
    "NATIVE_PROCESSES",
    "available",
    "unavailable_reason",
    "module",
    "native_arrivals",
    "native_arrivals_reason",
]

#: the ``SourceSpec.kind`` timings the native stream draws (its
#: ``process`` argument); a hotspot over any of them draws natively too
NATIVE_PROCESSES = ("poisson", "cbr", "onoff")

_MOD: Optional[ModuleType] = None
_imported, _ERROR = load_optional("repro.sim._cstep")
_ARRIVALS_ERROR: Optional[str] = _ERROR

if _imported is not None:
    try:
        from repro.sim.engine import (
            _TRIM,
            EV_INJECT,
            EV_RELEASE,
            EV_REQUEST,
            EventQueue,
        )
        from repro.sim.measurement import LatencyStats
        from repro.sim.state import _FIFO_COMPACT
        from repro.sim.worm import Worm, WormClass

        _imported.configure(
            Worm,
            EventQueue,
            heapq.heappush,
            EV_REQUEST,
            EV_RELEASE,
            EV_INJECT,
            _TRIM,
            _FIFO_COMPACT,
            WormClass.UNICAST,
            LatencyStats,
        )
    except Exception as exc:  # pragma: no cover - layout-drift safety net
        _ERROR = _ARRIVALS_ERROR = f"configure failed ({exc!r})"
    else:
        _MOD = _imported


def _check_native_arrivals(mod: ModuleType) -> Optional[str]:
    """None when ``mod.ArrivalStream`` reproduces the Python streams on
    this numpy, else the reason it does not.

    For each gap process -- Poisson, CBR at jitter 0 and 1, ON/OFF with
    exponential and with Pareto windows (the latter reaches libm's
    ``expm1``) -- both streams fire the same 15 arrivals from same-seed
    Generators, once with uniform and once with weighted destinations,
    so the integer, exponential, uniform and Pareto draws all
    interleave.  The short ON/OFF windows make every source cross
    several of them.
    """
    import numpy as np

    from repro.sim.arrivals import PoissonArrivalStream
    from repro.traffic.sources import CBRArrivalStream, OnOffArrivalStream

    # (Python stream, native process, the parameters both take)
    onoff = {"on_mean": 2.0, "off_mean": 3.0}
    processes: tuple[tuple[Any, str, dict[str, Any]], ...] = (
        (PoissonArrivalStream, "poisson", {}),
        (CBRArrivalStream, "cbr", {"jitter": 0.0}),
        (CBRArrivalStream, "cbr", {"jitter": 1.0}),
        (OnOffArrivalStream, "onoff", onoff),
        (OnOffArrivalStream, "onoff", {**onoff, "tail": "pareto", "alpha": 1.5}),
    )
    weights = np.array([[0.0, 0.1, 0.2, 0.3, 0.4]] * 5)
    for python_type, process, params in processes:
        for cdfs in (None, list(np.cumsum(weights, axis=1))):
            logs: tuple[list[Any], list[Any]] = ([], [])
            streams = (
                python_type(
                    np.random.default_rng(2009), 5, 0.3, 0.1, [1, 3], cdfs,
                    lambda *a: logs[0].append(a), block=16, **params,
                ),
                mod.ArrivalStream(
                    np.random.default_rng(2009), 5, 0.3, 0.1, [1, 3], cdfs,
                    lambda *a: logs[1].append(a), process=process, **params,
                ),
            )
            for stream in streams:
                for _ in range(15):
                    stream.fire(stream.next_time)
            if logs[0] != logs[1]:
                return (
                    f"numpy {np.__version__} draws differently from the "
                    "libnpyrandom the extension was built with"
                )
    return None


if _MOD is not None:
    try:
        _ARRIVALS_ERROR = _check_native_arrivals(_MOD)
    except Exception as exc:  # pragma: no cover - build-drift safety net
        _ARRIVALS_ERROR = f"self-check failed ({exc!r})"


def available() -> bool:
    """True iff the compiled stepper imported and configured itself."""
    return _MOD is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled stepper cannot be used (None when it can)."""
    return _ERROR


def module() -> Optional[ModuleType]:
    """The configured extension module, or None."""
    return _MOD


def native_arrivals() -> Optional[type]:
    """The native arrival stream type, or None when it is off."""
    if _MOD is None or _ARRIVALS_ERROR is not None:
        return None
    return _MOD.ArrivalStream


def native_arrivals_reason() -> Optional[str]:
    """Why the native arrival stream is off (None when it is on)."""
    return _ARRIVALS_ERROR
