"""Self-test: a perturbed output must drive ``success_ratio`` below 1.

Feeds each workload's checker a set of genuine outputs and the same set
with one output perturbed — a pixel moved by 1e-6, a workload count off by
one, a grid-point metric off in its last digits, a service reply that was
degraded, retried or carries a wrong frame checksum, a frame compared with
the per-voxel reference oracle — and requires the
genuine set to score 1.0 and every perturbed set to score below it.

    python3 perfbench/selftest.py

Exits 0 when every perturbation is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

from common import SRC, log, program_present


def _ratio(attempted: int, failed: int) -> float:
    return (attempted - failed) / attempted


def _frames_cases():
    from checks import frame_mismatch
    from frames import SCENE, _FrameChecker, cycle_poses
    from repro.api import Session
    from repro.core.config import StreamingConfig

    cycle, _ = cycle_poses(0)
    reference = StreamingConfig().with_options(streaming_kernel="reference")
    with Session() as session:
        first = session.render(SCENE, cycle[0])
        again = session.render(SCENE, cycle[0])
        oracle = session.render(SCENE, cycle[0], config=reference)

    def score(second) -> float:
        checker = _FrameChecker()
        checker.add(0, first)
        checker.add(0, second)
        return _ratio(2, checker.failed_frames({}))

    pixel = copy.deepcopy(again)
    pixel.output.image[0, 0, 0] += 1e-6
    count = copy.deepcopy(again)
    count.output.stats = dataclasses.replace(
        count.output.stats, gaussians_streamed=count.stats.gaussians_streamed + 1
    )

    def oracle_score(response) -> float:
        reason = frame_mismatch(
            oracle.image, oracle.stats, response.image, response.stats
        )
        return _ratio(1, 1 if reason else 0)

    return {
        "frames/genuine": (score(again), True),
        "frames/oracle-genuine": (oracle_score(again), True),
        "frames/oracle-pixel+1e-6": (oracle_score(pixel), False),
        "frames/pixel+1e-6": (score(pixel), False),
        "frames/gaussians_streamed+1": (score(count), False),
    }


def _sweep_cases():
    from repro.api import ExperimentSpec, Session
    from sweep import BASE, _point_failures

    with Session() as session:
        reference = session.sweep(
            ExperimentSpec(**BASE), cache=False, voxel_size=[0.4], num_hfu=[2, 4]
        )
    genuine = copy.deepcopy(reference)
    perturbed = copy.deepcopy(reference)
    point = perturbed.results[0]
    name = sorted(point.metrics)[0]
    point.metrics[name] = point.metrics[name] * (1.0 + 1e-9)
    points = len(reference.results)
    return {
        "sweep/genuine": (
            _ratio(points, len(_point_failures(reference, genuine))),
            True,
        ),
        f"sweep/{name}*(1+1e-9)": (
            _ratio(points, len(_point_failures(reference, perturbed))),
            False,
        ),
    }


def _service_cases():
    from repro.service.protocol import ServiceResponse
    from serve import FRAMES_PER_REQUEST, Exchange, _failures

    checksums = [1000.0 + i for i in range(FRAMES_PER_REQUEST)]

    def exchange(k: int, **meta) -> Exchange:
        tag = f"req-0-{k}"
        result = {
            "label": tag,
            "frames": FRAMES_PER_REQUEST,
            "image_checksums": list(checksums),
        }
        response = ServiceResponse(ok=True, result=result, id=tag)
        response.meta.update({"attempts": 1, "dispatch_index": k, **meta})
        return Exchange(k=k, tag=tag, due=0.0, response=response)

    def score(last: Exchange) -> float:
        batch = [exchange(0), exchange(1), last]
        expected = {e.k: checksums for e in batch}
        return _ratio(len(batch), len(_failures(batch, expected)))

    wrong = exchange(2)
    wrong.response.result["image_checksums"][1] += 1e-3
    return {
        "service/genuine": (score(exchange(2)), True),
        "service/degraded": (score(exchange(2, degraded={"scale": 0.5})), False),
        "service/attempts=2": (score(exchange(2, attempts=2)), False),
        "service/checksum+1e-3": (score(wrong), False),
    }


def main() -> int:
    if not program_present():
        log(f"no program sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    cases = {**_service_cases(), **_sweep_cases(), **_frames_cases()}
    report = {}
    caught = True
    for name, (ratio, genuine) in cases.items():
        ok = ratio == 1.0 if genuine else ratio < 1.0
        caught = caught and ok
        report[name] = {"success_ratio": ratio, "ok": ok}
    print(json.dumps({"passed": caught, "cases": report}, indent=1))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
