"""Build script.  All metadata lives in pyproject.toml; this file exists
only to declare the two *optional* C extensions:

* repro.sim._cstep -- the simulator's compiled dispatch fast path;
* repro.core._eq6 -- the analytical model's Eq. 6 fixed-point loop.

Both are strictly accelerators: the pure-Python kernels and the numpy
fixed-point loop are the behavioural reference and every feature works
without a compiler.  A failed compile therefore must never fail the
install -- the custom build_ext below degrades any toolchain error to a
warning naming the extension, and the module is reported unavailable
at import time (surfaced by `python -m repro kernels`).

repro.sim._cstep draws Poisson arrivals with numpy's own distribution
functions, so building it needs numpy's headers and the static
``libnpyrandom.a`` numpy ships under ``numpy/random/lib``; numpy is
imported only when that extension is actually built.

Set REPRO_NO_CEXT=1 to skip the extension build entirely (used by CI's
compiler-free job to prove the fallback story); the same variable
disables built extensions at runtime.
"""

import os
import sys

from setuptools import setup
from setuptools.command.build_ext import build_ext
from setuptools.extension import Extension


class optional_build_ext(build_ext):
    """build_ext that treats every failure as 'extension unavailable'."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            self._skip("C extensions", exc)

    def build_extension(self, ext):
        try:
            if ext.name == "repro.sim._cstep":
                _link_npyrandom(ext)
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._skip(f"{ext.name} extension", exc)

    @staticmethod
    def _skip(what, exc):
        print(
            f"warning: building the optional {what} failed ({exc!r}); "
            "continuing with the pure-Python code paths",
            file=sys.stderr,
        )


def _link_npyrandom(ext):
    """Point ``ext`` at numpy's headers and ``libnpyrandom.a``."""
    try:
        import numpy
    except ImportError as exc:
        raise RuntimeError(f"numpy is needed to build it ({exc})") from None
    lib = os.path.join(os.path.dirname(numpy.__file__), "random", "lib")
    if not os.path.exists(os.path.join(lib, "libnpyrandom.a")):
        raise RuntimeError(f"numpy {numpy.__version__} ships no {lib}/libnpyrandom.a")
    ext.include_dirs.append(numpy.get_include())
    ext.library_dirs.append(lib)
    ext.libraries.append("npyrandom")


if os.environ.get("REPRO_NO_CEXT"):
    ext_modules = []
else:
    ext_modules = [
        # numpy's headers and libnpyrandom are added at build time
        # (_link_npyrandom); no fused multiply-adds, so the latency
        # statistics round like LatencyStats.add
        Extension(
            "repro.sim._cstep",
            sources=["src/repro/sim/_cstep.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        ),
        # no fused multiply-adds: the loop must round like the numpy one
        Extension(
            "repro.core._eq6",
            sources=["src/repro/core/_eq6.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        ),
    ]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
