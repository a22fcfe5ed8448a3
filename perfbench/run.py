#!/usr/bin/env python3
"""Benchmark of the twintree package, run from the root of a checkout.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 36 --trace 0

Workloads (see workloads.py and README.md):
  pipeline  one ``twintree pipeline`` run on a generated 2-block digraph
  protocol  ``twintree cluster`` + ``twintree metrics`` on a 4-block digraph
            (both cycle over four generated digraphs)
  signals   analyze/synthesize/derivative/smoothness profile of a seeded
            stream of signals through one engine built at set-up
  all       the three in turn, in this one process

The package is imported from ``src/`` of the checkout.  Set-up is
repeated SETUP_REPEATS times and its median reported; then operations
run back to back, each after a short calibration (see op_cost), until
the next one would end after --seconds.  Every operation's outputs are
checked (see workloads.py); a failed check or an exception counts the
operation as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the inputs (spans.py wraps each layer's public
functions),
prints the per-layer metrics and writes the spans to
.perfbench/spans-<workload>-<seed>.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Share of an operation's time spent calibrating before it.
CALIBRATION_SHARE = 0.05
# One BLAS thread: the work is Python loops and small BLAS-2 products,
# and one thread is steadier than two on a shared 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
import numpy  # noqa: E402  (after the thread settings it reads)

WORKLOAD_NAMES = ("pipeline", "protocol", "signals")
# Name, scale and unit of each workload's operation time in the report.
OP_NAMES = {"pipeline": ("pipeline_s", 1, "s"),
            "protocol": ("protocol_s", 1, "s"),
            "signals": ("signal_ms", 1000, "ms")}


def import_checkout() -> str | None:
    """Import twintree from this checkout's src/; an error message if not."""
    src = ROOT / "src"
    if not (src / "twintree" / "__init__.py").is_file():
        return f"twintree sources not found under {src}"
    sys.path.insert(0, str(src))
    import twintree
    if Path(twintree.__file__).resolve().parent != src / "twintree":
        return f"imported twintree from {twintree.__file__}, not {src}"
    return None


def calibration_kernel() -> float:
    """Fixed work in the program's mix: tuple-keyed dicts and small BLAS."""
    table = {}
    for i in range(20000):
        table[(i, i + 1)] = i * 0.5
    a = numpy.full((64, 64), 1.0 / 64)
    for _ in range(50):
        a = a @ a
    return len(table) + float(a[0, 0])


def calibrate(budget: float) -> float:
    """Median time of the calibration kernel, run for about ``budget``
    seconds (at least once)."""
    times: list[float] = []
    while not times or sum(times) < budget:
        t = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def op_cost(samples: list[tuple[int, float, float]], cycle: int) -> float:
    """Operation time over the calibration time measured just before it:
    per input the median, averaged over the inputs.

    Other tenants of the machine slow it in phases of seconds to minutes,
    which move a 36 s run's median wall time by 10-40 %; the calibration
    kernel slows with the operation, so the ratio stays within a few per
    cent.  Averaging per input keeps inputs of different cost in fixed
    proportion.
    """
    by_input: dict[int, list[float]] = {}
    for i, dt, calib in samples:
        by_input.setdefault(i % cycle, []).append(dt / calib)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(samples, n=100)[p - 1]
    return "max", max(samples)


def machine_facts() -> dict:
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, reference: dict) -> dict:
    import spans
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir, reference)
    tracer = spans.Tracer() if trace else None
    attempted = failed = 0
    problems: list[str] = []

    def record(where: str, found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{where}: {p}" for p in found)

    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            if tracer:
                tracer.install()
            t = time.perf_counter()
            try:
                wl.setup()
            finally:
                setups.append(time.perf_counter() - t)
                if tracer:
                    tracer.uninstall()
            record("setup", wl.check_setup())

        plain: list[tuple[int, float, float]] = []
        traced: list[tuple[int, float, float]] = []
        traced_tags: set[int] = set()
        start = time.perf_counter()
        i = 0
        while True:
            wl.prepare(i)
            calib = calibrate(CALIBRATION_SHARE * statistics.median(
                [dt for _, dt, _ in plain + traced] or [0.0]))
            # Whole passes over the inputs alternate, so traced and
            # untraced operations see the same inputs.
            on = trace and (i // wl.cycle) % 2 == 1
            if on:
                tracer.run = i
                traced_tags.add(i)
                tracer.install()
            t = time.perf_counter()
            try:
                wl.op(i)
                error = None
            except (Exception, SystemExit):
                error = traceback.format_exc()
            finally:
                dt = time.perf_counter() - t
                if on:
                    tracer.uninstall()
            (traced if on else plain).append((i, dt, calib))
            record(f"op {i}", [error] if error else wl.check(i))
            i += 1
            elapsed = time.perf_counter() - start
            if (i >= (2 * wl.cycle if trace else 1)
                    and elapsed + statistics.median(
                        dt for _, dt, _ in plain + traced) > seconds):
                break
        try:
            facts = wl.facts(i)
        except (Exception, SystemExit):
            facts = []
            problems.append("facts: " + traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"FAILED {name} {p}", file=sys.stderr)

    result = {"name": name, "seed": seed, "facts": facts,
              "attempted": attempted, "failed": failed,
              "reference": "present" if wl.has_reference else "absent"}
    if trace:
        result["per_layer"] = per_layer(
            tracer, traced_tags, op_cost(plain, wl.cycle),
            op_cost(traced, wl.cycle), facts)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{name}-{seed}.json").write_text(
            json.dumps(tracer.spans))
    else:
        times = [dt for _, dt, _ in plain]
        result["ops"] = {"n": len(times), "median": statistics.median(times),
                         "tail": tail(times),
                         "per_s": len(times) / sum(times),
                         "calib": statistics.median(c for _, _, c in plain)}
        result["end_to_end"] = {
            "op_cost": (op_cost(plain, wl.cycle), "x"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        result["setup"] = {"import_s": import_s,
                           "median_setup_s": statistics.median(setups),
                           "repeats": len(setups)}
    return result


def per_layer(tracer, traced_tags: set, plain_cost: float,
              traced_cost: float, facts: list[dict]) -> dict:
    """Per-layer values for one operation plus the set-up it relies on;
    input facts are averaged over the run's inputs."""
    import spans

    def fact(key: str) -> float:
        return statistics.fmean(f.get(key, 0) for f in facts) if facts else 0.0

    setup = tracer.totals({"setup"})
    ops = tracer.totals(traced_tags)
    n = len(traced_tags)
    out = {}
    for name in spans.SITES:
        c_setup, s_setup = setup.get(name, (0, 0.0))
        c_ops, s_ops = ops.get(name, (0, 0.0))
        out[f"{name}_calls"] = (c_setup + c_ops / n, "count")
        out[f"{name}_s"] = (s_setup + s_ops / n, "s")
    omega = fact("omega_size")
    out["cli.artifact_bytes"] = (fact("artifact_bytes"), "B")
    out["analysis.omega_size"] = (omega, "count")
    out["analysis.active"] = (fact("active"), "count")
    out["analysis.full_rank_row"] = (fact("full_rank_row"), "count")
    out["analysis.rows_useful_ratio"] = (
        fact("active") / omega if omega else 0.0, "ratio")
    out["trace.op_cost"] = (traced_cost, "x")
    out["trace.untraced_op_cost"] = (plain_cost, "x")
    out["trace.overhead_ratio"] = (traced_cost / plain_cost - 1.0, "ratio")
    out["trace.spans"] = (sum(1 for s in tracer.spans if s[4] != "setup") / n,
                          "count")
    return out


def print_report(r: dict, machine: dict) -> None:
    name = r["name"]
    print(f"== workload {name}, seed {r['seed']}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for f in r["facts"]:
        print("input: " + " ".join(f"{k}={v}" for k, v in f.items()))
    print(f"reference outputs for this seed: {r['reference']}")
    if "end_to_end" in r:
        ops = r["ops"]
        op, scale, unit = OP_NAMES[name]
        label, tail_s = ops["tail"]
        print(f"{op}: median {scale * ops['median']:.6f} {unit}, {label} "
              f"{scale * tail_s:.6f} {unit}, over {ops['n']} operations")
        print(f"op_cost: {r['end_to_end']['op_cost'][0]:.4f} x the "
              f"calibration kernel (median {ops['calib']:.6f} s)")
        if name == "signals":
            print(f"signals_per_s: {ops['per_s']:.3f} 1/s")
        s = r["setup"]
        print(f"setup_s: {r['end_to_end']['setup_s'][0]:.6f} s "
              f"(imports {s['import_s']:.6f} s + median of {s['repeats']} "
              f"set-ups {s['median_setup_s']:.6f} s)")
        for key, (value, unit) in r["end_to_end"].items():
            print(f"  {key} = {value!r} {unit}")
    else:
        for key, (value, unit) in r["per_layer"].items():
            print(f"  {key} = {value!r} {unit}")
        print(f"tracing overhead: "
              f"{100 * r['per_layer']['trace.overhead_ratio'][0]:+.1f} % "
              f"(traced vs untraced op_cost)")
    print(f"failed_ratio: {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / r['attempted']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_checkout()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads  # imports numpy, scipy and every layer

    import_s = time.perf_counter() - T0
    machine = machine_facts()
    reference = workloads.load_reference()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            import_s, reference) for n in names]
    for r in results:
        print_report(r, machine)

    key = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results
                   for k, v in r[key].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
