"""Benchmark entry point: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload frames --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps each layer's entry points in
spans and reports the per-layer metrics.  The metric names and units are
the ones declared in ``BENCHMARK.json``.  The last line of standard output
is the result; the line before it is the full record (host tags, seed,
parameters, per-metric details), which is also written under
``.perfbench/`` with the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time

from common import (
    ROOT,
    SRC,
    adopt_orphans,
    env_tags,
    log,
    program_present,
    reap_children,
    write_json,
)

#: Workload name -> the module that runs it.
WORKLOADS = {"frames": "frames", "sweep": "sweep", "service": "serve"}
#: A run that has not finished by then stops itself (and its daemon),
#: leaving time to reap its children within the 180 s a run may take.
WATCHDOG_S = 150


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        log(f"no program sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()[args.trace]

    adopt_orphans()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    started = time.perf_counter()
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        if args.trace:
            outcome = module.run_traced(args.seed, args.seconds)
        else:
            outcome = module.run(args.seed, args.seconds)
    finally:
        signal.alarm(0)
        killed = reap_children()
    if killed:
        log(f"killed {killed} child process(es) still running at the end")

    measured = outcome["metrics"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    not_exercised = sorted(set(declared) - set(measured))
    if not_exercised and not args.trace:
        raise KeyError(f"end-to-end metrics not measured: {not_exercised}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "trace" in outcome:
        write_json(f"spans-{stem}.json", outcome["trace"])
    record = {
        "env": env_tags(args.seed),
        "workload": args.workload,
        "params": {"seconds": args.seconds, "trace": args.trace},
        "end_to_end" if not args.trace else "per_layer": metrics,
        "not_exercised": not_exercised,
        "details": outcome["details"],
        "run_s": time.perf_counter() - started,
    }
    write_json(f"record-{stem}.json", record)
    print(json.dumps(record, sort_keys=True, default=str))
    failed = int(outcome["failed"])
    attempted = int(outcome["attempted"])
    print(
        json.dumps(
            {
                "correct": attempted > 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
