"""The repository benchmark: paper grid, steady-state simulator, scenario suite.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 2009 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all three workloads, one process

Before anything is timed the compiled kernel ``repro.sim._cstep`` is
rebuilt from this checkout's ``src/`` (forced), so runs measure what an
install gives.  Each workload then sets up several times (``setup_s`` is
the median import time plus the median set-up) and runs measured passes until
``--seconds`` have elapsed.

Every phase and simulation unit repeats the same inputs, so each is timed
by its fastest sample: ``wall_s`` sums the fastest time of each phase,
and the events/s metrics divide a load class's events by the summed
fastest times of its units.  On a shared host, whose speed drifts by a
quarter within a minute, the fastest of many short samples repeats from
run to run several times better than a median or a mean does.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
untraced and traced passes in pairs and prints the per-layer metrics
(self time per layer, see ``spans.py``) plus ``trace.overhead_pct``,
and writes a "where time goes" table.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a full result
file (fingerprint, per-pass samples, gates, digest) goes under
``.bench_build/perfbench/results/`` -- compare those with
``compare.py``.  ``--tiny`` shrinks every workload for the smoke test
(``smoke.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-grid", "sim-steady", "scenario-suite")
SETUP_REPEATS = 5
#: the package import is timed once in this process and this many times
#: in fresh interpreters; ``setup_s`` takes the median
IMPORT_REPEATS = 5


def end_to_end_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def build_extension(build_dir: Path) -> float:
    """Force-rebuild ``repro.sim._cstep`` in place; returns seconds."""
    for stale in (ROOT / "src" / "repro" / "sim").glob("_cstep*.so"):
        stale.unlink()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--force",
         "--build-temp", str(build_dir / "ext-temp"),
         "--build-lib", str(build_dir / "ext-lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 or not list((ROOT / "src" / "repro" / "sim").glob("_cstep*.so")):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("error: building repro.sim._cstep failed")
    return time.perf_counter() - t0


def fresh_import_seconds() -> float:
    """Seconds to import the package under test in a fresh interpreter."""
    code = (f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "t0 = time.perf_counter(); import suite; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else float("nan")


def fastest_walls(passes) -> dict[str, float]:
    """Phase -> its fastest wall time over the passes."""
    walls: dict[str, float] = {}
    for p in passes:
        for phase, seconds in p.walls.items():
            walls[phase] = min(walls.get(phase, seconds), seconds)
    return walls


def fastest_units(passes) -> tuple[dict[str, tuple[bool, int, float]], bool]:
    """Simulation unit -> (light load?, events, fastest host seconds) over
    every sample of every pass, and whether each unit's event count
    repeated exactly."""
    units: dict[str, tuple[bool, int, float]] = {}
    repeated = True
    for p in passes:
        for key, light, events, seconds in p.sims:
            if key in units:
                _, first, fastest = units[key]
                repeated = repeated and events == first
                seconds = min(seconds, fastest)
            units[key] = (light, events, seconds)
    return units, repeated


def events_per_s(units, light: bool) -> float:
    """Simulator throughput of one load class: its units' events over
    their summed fastest host seconds."""
    chosen = [(e, s) for is_light, e, s in units.values() if is_light == light]
    seconds = sum(s for _, s in chosen)
    return sum(e for e, _ in chosen) / seconds if seconds > 0 else float("nan")


def measure(wl, seconds: float):
    """Untraced passes until ``seconds`` have elapsed (at least
    ``wl.min_passes``)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        gc.collect()  # no pass inherits another's garbage
        passes.append(wl.run_pass())
    return passes


def measure_traced(wl, tracer):
    """``wl.trace_pairs`` pairs of an untraced then a traced pass.  The
    wrappers come off (and are checked gone) before each untraced pass."""
    untraced, traced = [], []
    for _ in range(wl.trace_pairs):
        tracer.assert_clean()
        gc.collect()
        untraced.append(wl.run_pass())
        gc.collect()
        tracer.install()
        try:
            traced.append(wl.run_pass(tracer))
        finally:
            tracer.remove()
    tracer.assert_clean()
    return untraced, traced


def run_workload(name: str, args, import_s: float, out_dir: Path) -> dict:
    import spans
    import stamp
    import suite

    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = suite.WORKLOADS[name](args.seed, args.tiny, work_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    print(f"== {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
          f"{', tiny' if args.tiny else ''} ==", flush=True)
    tracer = None
    if args.trace:
        tracer = spans.LayerTracer(extra_modules=[suite])
        untraced, traced = measure_traced(wl, tracer)
        passes = untraced + traced
    else:
        passes = measure(wl, args.seconds)
    for i, p in enumerate(passes):
        walls = ", ".join(f"{k} {v:.3f} s" for k, v in p.walls.items())
        tag = " (traced)" if args.trace and i >= len(passes) // 2 else ""
        print(f"  pass {i + 1}{tag}: {walls}", flush=True)

    gates: dict[str, bool] = {}
    for p in passes:
        for gate, ok in p.gates.items():
            gates[gate] = gates.get(gate, True) and ok
    digests = [hashlib.sha256(p.digest_text().encode()).hexdigest() for p in passes]
    gates["digest_repeats_across_passes"] = len(set(digests)) == 1
    units, gates["sim_events_repeat_per_unit"] = fastest_units(passes)
    walls = fastest_walls(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not gates["sim_events_repeat_per_unit"]:
        failed = attempted
    if not gates["digest_repeats_across_passes"]:
        # every pass whose outputs differ from the first fails whole
        failed += sum(p.attempted - p.failed for p, d in zip(passes, digests) if d != digests[0])
    if args.trace:
        half = len(passes) // 2
        gates["traced_equals_untraced"] = digests[:half] == digests[half:]
    failed = min(failed, attempted)

    named = {"setup_s": setup_s}
    if name == "paper-grid":
        named["grid_cold_s"] = walls.get("cold", float("nan"))
        named["grid_warm_s"] = walls.get("warm", float("nan"))
        values = [p.extra["model_error_pct"] for p in passes if "model_error_pct" in p.extra]
        if values:
            named["model_error_pct"] = median(values)
    if name == "scenario-suite":
        named["scenarios_s"] = sum(walls.values())
    light = events_per_s(units, True)
    contended = events_per_s(units, False)
    if name == "sim-steady":
        named["sim_light_events_per_s"] = light
        named["sim_contended_events_per_s"] = contended
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["peak_rss_mb"] = peak_rss_mb
    named["failed_frac"] = failed / attempted

    if args.trace:
        overhead = (median([p.wall for p in traced]) / median([p.wall for p in untraced])
                    - 1.0) * 100.0
        values = tracer.totals(len(traced))
        values["trace.overhead_pct"] = overhead
        units = dict(spans.metric_names())
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(walls.values()),
            "sim_light_events_per_s": light,
            "sim_contended_events_per_s": contended,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end_units().items()}

    kernels: dict[str, set] = {}
    for p in passes:
        for phase, ks in p.kernels.items():
            kernels.setdefault(phase, set()).update(ks)
    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fingerprint": stamp.fingerprint(ROOT, {k: sorted(v) for k, v in kernels.items()}),
        "metrics": metrics,
        "named": named,
        "passes": [{"walls": p.walls, "sims": p.sims} for p in passes],
        "fastest_walls": walls,
        "setup_samples": setups,
        "import_s": import_s,
        "gates": gates,
        "digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(gates.values()),
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))

    fp = result["fingerprint"]
    print(f"  fingerprint: {fp['cores']} cores, {fp['implementation']} {fp['python']}, "
          f"numpy {fp['numpy']}, cext {'built' if fp['cext_built'] else 'NOT built'} "
          f"(_cstep.c {fp['cstep_sha256'][:12]}), engine v{fp['engine_version']}, "
          f"commit {fp['commit'] or 'n/a'}, src {fp['source_sha256'][:12]}")
    print(f"  kernels: {fp['kernels']}")
    for gate, ok in gates.items():
        print(f"  gate {gate}: {'ok' if ok else 'FAILED'}")
    for key, value in named.items():
        print(f"  {key} = {value:.6g}")
    if args.trace:
        table = tracer.table(name)
        (results_dir / f"{stem}-layers.txt").write_text(table + "\n")
        print(table)
    print(f"  digest {result['digest']}")
    print(f"  result file {results_dir / (stem + '.json')}", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} holds no repository sources (setup.py, src/repro)",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    build_s = build_extension(out_dir)
    print(f"built repro.sim._cstep in {build_s:.2f} s", flush=True)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import suite  # noqa: F401 -- the timed import of the package under test
    imports = [time.perf_counter() - t0]
    imports += [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
    import_s = median(imports)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, import_s, out_dir) for name in names]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        # every workload's named metrics; the per-workload ones combine
        named: dict[str, float] = {}
        for r in results:
            named.update(r["named"])
        named["setup_s"] = import_s + sum(median(r["setup_samples"]) for r in results)
        named["peak_rss_mb"] = max(r["named"]["peak_rss_mb"] for r in results)
        named["failed_frac"] = failed / attempted
        units = {"setup_s": "s", "grid_cold_s": "s", "grid_warm_s": "s",
                 "model_error_pct": "%", "sim_light_events_per_s": "events/s",
                 "sim_contended_events_per_s": "events/s", "scenarios_s": "s",
                 "peak_rss_mb": "MB", "failed_frac": "ratio"}
        metrics = {k: {"value": named[k], "unit": u} for k, u in units.items() if k in named}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
