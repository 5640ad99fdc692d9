#!/usr/bin/env python
"""Trajectory benchmark of the streaming fast path.

Renders a registered camera trajectory through the frame-level fast path,
checks frame-by-frame parity against the per-voxel reference oracle
(images within 1e-9, workload statistics exactly equal), times the
amortized per-frame cost, and appends the result to the
``BENCH_trajectory.json`` trajectory next to this script::

    PYTHONPATH=src python benchmarks/bench_trajectory.py
    PYTHONPATH=src python benchmarks/bench_trajectory.py --check

``--check`` exits non-zero when any frame disagrees with the oracle or the
amortized time exceeds ``--max-ms-per-frame``, which makes the script
usable as a CI gate.  The default bound belongs to the default workload (a
dense 24-frame orbit of the ``train`` scene at 1.5x resolution): it is the
time per frame the frame-level execution took there on a 2-CPU host before
it became the only fast path (``BENCH_trajectory.json``, entry with
``cpu_count`` 2 and 24 frames).  Other shapes or hosts pass their own
bound; CI does.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.api.store import append_trajectory
from repro.engine.bench import run_trajectory_benchmark

#: Acceptance bar of the default workload: amortized ms per frame.
REQUIRED_MAX_MS_PER_FRAME = 311.8

#: Acceptance bar: maximum image deviation from the reference oracle.
REQUIRED_ATOL = 1e-9

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="train")
    parser.add_argument("--path", default="orbit", help="registered trajectory name")
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.5,
        help="resolution scale of the trajectory's cameras",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-ms-per-frame",
        type=float,
        default=REQUIRED_MAX_MS_PER_FRAME,
        help="amortized per-frame bound for --check (default "
        f"{REQUIRED_MAX_MS_PER_FRAME} ms, sized for the default workload)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless every frame matches the reference oracle and the "
        "amortized time is <= --max-ms-per-frame",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=TRAJECTORY_PATH,
        help="trajectory file to append the result to",
    )
    args = parser.parse_args(argv)

    result = run_trajectory_benchmark(
        scene=args.scene,
        path=args.path,
        frames=args.frames,
        resolution_scale=args.scale,
        repeats=args.repeats,
    )
    print(result.format())

    entry = result.as_dict()
    entry["cpu_count"] = os.cpu_count()
    entry["max_ms_per_frame_gate"] = args.max_ms_per_frame
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        if not result.stats_equal:
            print(
                f"FAIL: streaming statistics differ from the oracle "
                f"({result.stats_detail})",
                file=sys.stderr,
            )
            return 1
        if result.max_image_delta > REQUIRED_ATOL:
            print(
                f"FAIL: fast path disagrees with the oracle (max delta "
                f"{result.max_image_delta:.3g} > {REQUIRED_ATOL})",
                file=sys.stderr,
            )
            return 1
        if result.ms_per_frame > args.max_ms_per_frame:
            print(
                f"FAIL: {result.ms_per_frame:.1f} ms/frame > "
                f"{args.max_ms_per_frame} ms/frame",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: {result.ms_per_frame:.1f} ms/frame <= "
            f"{args.max_ms_per_frame} ms/frame"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
