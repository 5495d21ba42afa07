"""Import gate shared by the optional C extensions.

The repository builds two optional modules, the simulator's dispatch
fast path (:mod:`repro.sim._cstep`, gated by :mod:`repro.sim.cext`) and
the analytical model's Eq. 6 loop (:mod:`repro.core._eq6`, used by
:mod:`repro.core.service`).  Each falls back to pure Python when it
cannot be loaded; :func:`load_optional` is the one place that decides
whether it can, and says why not.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
from types import ModuleType

__all__ = ["load_optional"]


def load_optional(name: str) -> tuple[ModuleType | None, str | None]:
    """``(module, None)`` for the importable compiled module ``name``, or
    ``(None, reason)`` when it is disabled, not built or broken."""
    if os.environ.get("REPRO_NO_CEXT"):
        # the same switch that skips the build also disables a built
        # extension at runtime, so the pure-Python story can be exercised
        # on any install (CI's compiler-free job sets it)
        return None, "disabled by REPRO_NO_CEXT"
    if importlib.util.find_spec(name) is None:
        # no compiled module on the path: the normal compiler-free
        # install.  Importing it anyway from inside its own package's
        # import would report a misleading "circular import".
        return None, "extension not built"
    try:
        return importlib.import_module(name), None
    except ImportError as exc:
        return None, f"extension present but failed to import ({exc})"
