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
extension the actual :class:`~repro.sim.worm.Worm` and
:class:`~repro.sim.engine.EventQueue` classes so it can resolve their
``__slots__`` member offsets at runtime -- the C code never hard-codes a
struct layout, so an interpreter or class-layout change degrades to
"extension unavailable" rather than corruption.  Any failure during
import *or* configuration is recorded as the reason string surfaced in
run provenance and ``python -m repro kernels``.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.native import load_optional

__all__ = ["available", "unavailable_reason", "module"]

_MOD = None
_imported, _ERROR = load_optional("repro.sim._cstep")

if _imported is not None:
    try:
        from repro.sim.engine import (
            _TRIM,
            EV_INJECT,
            EV_RELEASE,
            EV_REQUEST,
            EventQueue,
        )
        from repro.sim.state import _FIFO_COMPACT
        from repro.sim.worm import Worm

        _imported.configure(
            Worm,
            EventQueue,
            heapq.heappush,
            EV_REQUEST,
            EV_RELEASE,
            EV_INJECT,
            _TRIM,
            _FIFO_COMPACT,
        )
    except Exception as exc:  # pragma: no cover - layout-drift safety net
        _ERROR = f"configure failed ({exc!r})"
    else:
        _MOD = _imported


def available() -> bool:
    """True iff the compiled stepper imported and configured itself."""
    return _MOD is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled stepper cannot be used (None when it can)."""
    return _ERROR


def module():
    """The configured extension module, or None."""
    return _MOD
