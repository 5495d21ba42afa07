"""Run fingerprints, and the compare step that refuses mismatched runs.

Every result file carries a fingerprint: core count, interpreter and
numpy versions, whether the compiled kernel is built and the digest of
``_cstep.c``, the kernel each workload phase resolved to,
``ENGINE_VERSION``, the commit (when the checkout is a git work tree)
and a digest of the ``src/`` tree.  Compare result files with::

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Runs whose fingerprints differ in kernel, interpreter or core count are
not compared: the step prints the reason and exits with status 3.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Optional


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(src: Path) -> str:
    """Digest of every tracked-looking file under ``src`` (no caches,
    no built extensions)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c", ".h"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, kernels: dict[str, list[str]]) -> dict:
    import numpy

    from repro.sim import ENGINE_VERSION, cext

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cext_built": cext.available(),
        "cext_reason": cext.unavailable_reason(),
        "cstep_sha256": _sha256_file(root / "src" / "repro" / "sim" / "_cstep.c"),
        "kernels": kernels,
        "engine_version": ENGINE_VERSION,
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }


def mismatch(a: dict, b: dict) -> Optional[str]:
    """Why two fingerprints may not be compared (None when they may)."""
    checks = [
        ("core count", "cores"),
        ("interpreter", "implementation"),
        ("interpreter version", "python"),
        ("compiled kernel built", "cext_built"),
        ("resolved kernel per phase", "kernels"),
    ]
    for label, key in checks:
        if a.get(key) != b.get(key):
            return f"{label} differs: {a.get(key)!r} vs {b.get(key)!r}"
    return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], new: list[dict]) -> tuple[int, str]:
    """``(exit status, report)`` for two groups of result files."""
    runs = base + new
    workloads = {r["workload"] for r in runs}
    if len(workloads) != 1:
        return 3, f"refusing to compare: different workloads {sorted(workloads)}"
    traces = {r["trace"] for r in runs}
    if len(traces) != 1:
        return 3, "refusing to compare: traced and untraced runs mixed"
    ref = runs[0]["fingerprint"]
    for r in runs[1:]:
        why = mismatch(ref, r["fingerprint"])
        if why is not None:
            return 3, f"refusing to compare: {why}"
    lines = [
        f"== {workloads.pop()}: base {len(base)} run(s), new {len(new)} run(s) ==",
        f"  {'metric':40s} {'base median':>14s} {'new median':>14s} "
        f"{'new/base':>9s} {'base IQR':>9s} {'new IQR':>9s}",
    ]
    for name, meta in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b or not n:
            continue
        bq, nq = _quartiles(b), _quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        b_iqr = (bq[2] - bq[0]) / bq[1] if bq[1] else float("nan")
        n_iqr = (nq[2] - nq[0]) / nq[1] if nq[1] else float("nan")
        lines.append(
            f"  {name + ' [' + meta['unit'] + ']':40s} {bq[1]:14.6g} {nq[1]:14.6g} "
            f"{ratio:9.4f} {b_iqr:9.2%} {n_iqr:9.2%}"
        )
    return 0, "\n".join(lines)
