#!/usr/bin/env python3
"""Write perfbench/reference.jsonl: the workloads' outputs for seeds 0..SEEDS-1.

Run from the root of a checkout whose outputs are the reference (the
benchmark's first one was captured at the commit that added it):

    python3 perfbench/capture_reference.py

A later change that alters outputs on purpose recaptures and says so.
"""

from __future__ import annotations

import shutil
import sys

import run

SEEDS = 16


def main() -> int:
    error = run.import_checkout()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    workdir = run.OUT_DIR / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref: dict = {}
    try:
        for cls in (workloads.Pipeline, workloads.Protocol):
            ref[cls.name] = {}
            for seed in range(SEEDS):
                wl = cls(seed, workdir, {})
                wl.setup()
                graphs = []
                for g in range(wl.cycle):
                    wl.prepare(g)
                    wl.op(g)
                    problems: list[str] = []
                    exact, floats = wl.outputs(wl.ws(g), problems)
                    if problems:
                        raise SystemExit(f"{cls.name} seed {seed}: {problems}")
                    graphs.append({"exact": exact, "float": floats})
                ref[cls.name][str(seed)] = graphs
                print(f"{cls.name} seed {seed} captured", flush=True)

        sig = workloads.Signals(0, workdir, {})
        sig.setup()
        problems = sig.check_setup()
        kinds = {}
        for i, kind in enumerate(sig.kinds):
            if kind != "noise":
                sig.prepare(i)
                sig.op(i)
                problems += sig.check(i)
                kinds[kind] = workloads.reference_record(sig.record())
        ref["signals"] = {"engine": sig.engine_facts(), "kinds": kinds}
        noise_at = sig.kinds.index("noise")
        for seed in range(SEEDS):
            sig.seed = seed
            sig.restart_stream()
            ref["signals"][str(seed)] = []
            for _ in range(sig.reference_noise):
                sig.prepare(noise_at)
                sig.op(noise_at)
                problems += sig.check(noise_at)
                ref["signals"][str(seed)].append(
                    workloads.reference_record(sig.record()))
        if problems:
            raise SystemExit(f"signals: {problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workloads.save_reference(ref)
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
