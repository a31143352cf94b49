"""Benchmark of robustmix's batch paths: acceptance, paper-scale, bnb-prove.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload acceptance --seed 3 --seconds 30 --trace 0

Run from the repository root.  One workload runs in this process, closed
loop: one thread, one call after another, iterations repeated until
--seconds have passed.  Every timed operation is calibrated against a
fixed reference loop run just before and after it (see calibrated()).  --trace 0 measures the end-to-end metrics;
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics and the tracing overhead.  Without --workload every
workload runs in a fresh process of its own, untraced and then traced.
Human-readable lines come first; the last line of standard output is
one JSON object with the metrics BENCHMARK.json names.  Results and
spans are written under .bench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: an unpinned run measured
# score_s at 1.3 s against 0.3 s pinned.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import heapq
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _load_library():
    """Put the checkout's src/ on the path; False when it has no robustmix."""
    src = ROOT / "src"
    if not (src / "robustmix" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _by_copy(rows: list[dict], key: str) -> list[list]:
    """rows[key] grouped by relabelled copy."""
    groups = defaultdict(list)
    for row in rows:
        groups[row["copy"]].append(row[key])
    return list(groups.values())


def _typical(rows: list[dict], key: str) -> float:
    """Mean over copies of the median over each copy's repeats.  Copies
    differ in search order and so in work; the mean weighs each alike."""
    return statistics.fmean(_median(v) for v in _by_copy(rows, key))


# Calibration.  The reference sandbox runs the same code up to 1.8x
# slower for seconds to minutes at a time, whole 55-s runs included, as
# neighbours load the machine; process time slows just as much, so it is
# not CPU steal.  Every timed operation is therefore bracketed by a
# fixed pure-Python Dijkstra on a 60x60 grid that owes nothing to the
# library, and reported as (operation time / mean bracket time) x
# CAL_REF_S: seconds at the reference speed.  Over nine 55-s windows of
# paper-scale operations, the spread (IQR/median) of their summed median
# times fell from 0.12 raw to 0.03 calibrated.
CAL_SIDE = 60
SETUPS = 7  # set-ups per run, for setup_s
CAL_REF_S = 0.004  # about the loop's time on the reference sandbox


def _calibration_graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(0)
    adj = []
    for r in range(CAL_SIDE):
        for c in range(CAL_SIDE):
            adj.append([
                ((r + dr) * CAL_SIDE + c + dc, rng.random())
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
                if 0 <= r + dr < CAL_SIDE and 0 <= c + dc < CAL_SIDE
            ])
    return adj


CAL_ADJ = _calibration_graph()


def calibration_s() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    dist = [math.inf] * len(CAL_ADJ)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in CAL_ADJ[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return time.perf_counter() - start


def calibrated(fn, *args, **kwargs):
    """(result, seconds, scale): fn's time, and the factor that takes it
    to the reference speed measured just before and after it.  A garbage
    collection first keeps earlier operations' garbage out of its time."""
    gc.collect()
    before = calibration_s()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return result, seconds, 2 * CAL_REF_S / (before + calibration_s())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metrics, record for the results file)."""
    from tracing import Tracer, layer_metrics
    from workloads import COVERAGE, WORKLOADS, Outcome

    wl = WORKLOADS[name]()
    workdir = OUT / f"work-{os.getpid()}"
    out = Outcome()
    # Untraced iterations trace only the pair-solves, for their latency
    # and checks; traced ones trace every layer.
    plain_tracer = Tracer(only=wl.solves, keep=wl.solves)
    full_tracer = Tracer(keep=wl.solves)
    try:
        # setup_s is the median of SETUPS set-ups, cycling over the copies;
        # the last set-up of each copy is the one the run uses.
        setup_s, inputs = [], [None] * wl.copies
        for i in range(max(SETUPS, wl.copies)):
            copy = i % wl.copies
            inputs[copy], secs, scale = calibrated(
                wl.setup, seed, copy, workdir / f"copy{copy}")
            setup_s.append(secs * scale)

        plain, traced, layers, quality = [], [], [], []
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            is_traced = trace and k % 2 == 1
            copy = (k // 2 if trace else k) % wl.copies
            tracer = full_tracer if is_traced else plain_tracer
            tracer.reset()
            phases = dict.fromkeys(wl.phases, 0.0)
            latencies = []

            def timed(phase, fn, *args, **kwargs):
                first = len(tracer.kept)
                result, secs, scale = calibrated(fn, *args, **kwargs)
                phases[phase] += secs * scale
                latencies.extend(1e3 * kept[3] * scale for kept in tracer.kept[first:])
                return result

            start = time.perf_counter()
            try:
                with tracer.installed():
                    payload = wl.iterate(inputs[copy], timed)
            except Exception:
                out.op(False, f"iteration {k}: {traceback.format_exc(limit=3)}")
                payload = None
            last = time.perf_counter() - start
            if payload is not None:
                row = {"copy": copy, "wall_s": sum(phases.values()),
                       "solves": len(tracer.kept), **phases}
                if is_traced:
                    traced.append(row)
                    layers.append(layer_metrics(tracer, payload.get("evals", 0)))
                else:
                    plain.append({**row, "latencies": latencies})
                try:
                    quality.append(wl.check(inputs[copy], payload, tracer.kept, out))
                except Exception:
                    out.op(False, f"check {k}: {traceback.format_exc(limit=3)}")
            # Free its outputs before the next iteration, for peak_rss_mb;
            # the spans stay, and the last traced iteration's are written.
            payload = None
            tracer.kept.clear()
            k += 1
            # Stop when another iteration would end mostly past the deadline.
            if time.perf_counter() + last / 2 >= deadline and (not trace or k >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m = {"setup_s": _median(setup_s), "peak_rss_mb": peak_rss_mb}
    if plain:
        m["wall_s"] = _typical(plain, "wall_s")
        for i, phase in enumerate(wl.phases, 1):
            m[phase] = m[f"phase{i}_s"] = _typical(plain, phase)
        m["solves_per_s"] = statistics.fmean(r["solves"] for r in plain) / m["wall_s"]
        # Every solve of every untraced iteration is one sample.
        solve_ms = sorted(t for row in plain for t in row["latencies"])
        m["solve_p50_ms"] = _median(solve_ms)
        m["solve_samples"] = len(solve_ms)
        if len(solve_ms) >= 100:  # p90 needs ten samples beyond it
            m["solve_p90_ms"] = statistics.quantiles(solve_ms, n=10)[-1]
    for key in quality[0] if quality else ():
        m[key] = _median([q[key] for q in quality])
    if layers:
        for key in layers[0]:  # median_low keeps counts whole
            m[key] = statistics.median_low([layer[key] for layer in layers])
        m["trace.wall_s"] = _typical(traced, "wall_s")
        m["trace.overhead_ratio"] = m["trace.wall_s"] / m["wall_s"]
        for key, holds, what in COVERAGE[name]:
            if not out.op(holds(m[key]), f"coverage: {name} must have {what}; {key}={m[key]}"):
                print(f"COVERAGE FAILED: {name} must have {what} ({key}={m[key]})",
                      file=sys.stderr)
    m["failed_frac"] = out.failed / max(out.attempted, 1)
    record = {
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "iterations": {"untraced": [{k: v for k, v in r.items() if k != "latencies"}
                                    for r in plain], "traced": traced},
        "setup_samples_s": setup_s,
    }
    if trace:
        _write_spans(name, seed, full_tracer.spans)
    return m, record


def _write_spans(name: str, seed: int, spans: list):
    """The last traced iteration's spans, times relative to its start."""
    path = OUT / "spans" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    rows = [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
        fh.write("\n")


def _unit(key: str, declared: dict) -> str:
    if key in declared:
        return declared[key]
    for suffix, unit in (("_ms", "ms"), ("per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("cost", "cost"), ("ratio", "ratio"), ("frac", "ratio"),
                         ("per_node", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def single(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    env = environment()
    m, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} {mode}: python {env['python']}, "
          f"numpy {env['numpy']}, BLAS {env['blas']}, nproc {env['nproc']}, "
          f"BLAS/OpenMP threads {env['threads']}")
    print(f"# operations attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}", file=sys.stderr)
    units = {k: _unit(k, declared) for k in m}
    for key in sorted(m):
        if not key.startswith("phase"):  # printed under their own names
            print(f"  {key:<48} {m[key]:.6g} {units[key]}")
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in m.items()})
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    section = bench["per_layer" if args.trace else "end_to_end"]
    missing = [s["name"] for s in section if s["name"] not in m]
    if missing:  # no iteration completed, so nothing was measured
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {s["name"]: {"value": m[s["name"]], "unit": s["unit"]} for s in section},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    from workloads import WORKLOADS

    summary, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="acceptance, paper-scale or bnb-prove; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not _load_library():
        print(f"error: no robustmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
