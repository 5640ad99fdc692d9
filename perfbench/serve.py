"""``service``: closed-loop ``trajectory`` requests to an out-of-process daemon.

The daemon runs as its own process (``python -m repro.service.cli``, the
``repro-serve`` entry point) with two worker actors and no result cache,
journal or chaos plan, so the load generator's threads never share an
interpreter lock with the actors.  Two connections, one thread each, send
requests: each request is a ``TrajectorySpec`` of
``FRAMES_PER_REQUEST`` explicit seeded poses with a tag of its own, so no
frame, result or response cache can serve it.  The connections run in
rounds: each sends one request, and the next round starts when both have
replied.  Every request of a round is due at the round's start, and
response time runs from that moment.  Between rounds nothing runs and the
host's speed is probed (see ``common.HostSpeed``).
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from checks import image_checksum, reply_mismatch
from common import (
    OUT,
    HostSpeed,
    child_env,
    median,
    peak_rss_mb,
    scale_times,
    timing_summary,
)
from frames import orbit_camera
from spans import Tracer, render_layer_metrics, traced

from repro.api import Session, TrajectorySpec
from repro.service import ServiceClient
from repro.scenes.registry import SCENE_REGISTRY

SCENE = "train"
WORKERS = 2
CONNECTIONS = 2
FRAMES_PER_REQUEST = 2
SETUPS = 3
#: Requests ``k`` with ``k % CHECK_STRIDE < CONNECTIONS`` are also rendered
#: in-process after the timed run and compared frame by frame.
CHECK_STRIDE = 10
#: Azimuth step between consecutive requests (the golden angle), so any
#: run's requests cover the orbit evenly whatever the seed.
GOLDEN_ANGLE = 137.50776405003785
REQUEST_TIMEOUT_S = 120.0


def request_spec(seed: int, k: int, warmup: bool = False) -> TrajectorySpec:
    """Request ``k`` of a seed: nearby poses at a seeded spot on the orbit."""
    azimuth = (seed * 97.0 + k * GOLDEN_ANGLE) % 360.0
    elevation = 35.0 if warmup else 22.0
    poses = [
        orbit_camera(SCENE, azimuth + 4.0 * i, elevation)
        for i in range(FRAMES_PER_REQUEST)
    ]
    tag = f"{'warm' if warmup else 'req'}-{seed}-{k}"
    return TrajectorySpec(scene=SCENE, path=poses, tag=tag)


def _num_pixels() -> int:
    width, height = SCENE_REGISTRY[SCENE].sim_resolution
    return width * height


class Daemon:
    """A ``repro-serve`` process, its log under ``.perfbench/``."""

    _serial = 0

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        Daemon._serial += 1
        self.log_path = OUT / f"daemon-{os.getpid()}-{Daemon._serial}.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.cli",
                "--port",
                "0",
                "--workers",
                str(WORKERS),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=child_env(),
        )
        self.address = self._await_banner()

    def _await_banner(self, timeout: float = 60.0) -> Tuple[str, ...]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_bytes().splitlines():
                if line.startswith(b'{"listening"'):
                    return tuple(json.loads(line)["listening"])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.process.kill()
        self.process.wait()
        self._log.close()
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def connect(self, name: str) -> ServiceClient:
        return ServiceClient.connect(
            self.address, client=name, timeout=REQUEST_TIMEOUT_S, reconnect=0
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Drain-stop the daemon and wait for its process to end."""
        if self.process.poll() is None:
            try:
                with self.connect("stop") as client:
                    client.shutdown(drain=True)
            except (OSError, ConnectionError, RuntimeError):
                pass
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        if self.process.returncode == 0:
            self.log_path.unlink()


def _warm(clients: List[ServiceClient], seed: int) -> int:
    """Warm the daemon: one request alone, then rounds until every actor served.

    The first request builds the shared renderer on its own, so the actors
    never race to build it twice and the daemon's memory does not depend
    on how that race fell.
    """
    clients[0].trajectory(request_spec(seed, 0, warmup=True))
    rounds = 0
    while True:
        threads = [
            threading.Thread(
                target=client.trajectory,
                args=(request_spec(seed, 1 + rounds * len(clients) + i, warmup=True),),
            )
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rounds += 1
        actors = clients[0].metrics()["actors"]
        if all(actor["tasks_done"] > 0 for actor in actors) or rounds >= 10:
            return rounds


def _setup(seed: int) -> Tuple[Daemon, List[ServiceClient]]:
    daemon = Daemon()
    try:
        clients = [daemon.connect(f"load{i}") for i in range(CONNECTIONS)]
        _warm(clients, seed)
    except BaseException:
        daemon.stop()
        raise
    return daemon, clients


def _close(daemon: Daemon, clients: List[ServiceClient]) -> None:
    for client in clients:
        client.close()
    daemon.stop()


@dataclass
class Exchange:
    """One request: when it was due, sent and answered, and the reply."""

    k: int
    tag: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str = ""
    #: Reference-host factor of the round the request ran in.
    factor: float = 1.0

    @property
    def response_time(self) -> float:
        """Reference-host seconds from due to reply."""
        return (self.done - self.due) * self.factor


def _send(
    client: ServiceClient,
    spec: TrajectorySpec,
    exchange: Exchange,
    tracer: Optional[Tracer] = None,
) -> None:
    span = (
        tracer.span("service.request", request=spec.tag)
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span:
        exchange.sent = time.perf_counter()
        try:
            exchange.response = client.trajectory(spec)
        except (OSError, ConnectionError) as error:
            exchange.error = f"{type(error).__name__}: {error}"
        exchange.done = time.perf_counter()


def _run_rounds(
    clients: List[ServiceClient],
    seed: int,
    host: HostSpeed,
    seconds: float,
    first_k: int = 0,
    max_rounds: int = 1_000_000,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[Exchange], List[float]]:
    """Closed-loop rounds: every client sends one request, all wait for all.

    Each client sends its next request only after its previous reply, and
    a round's requests are all due when the round starts, so response time
    counts any lateness of the sending threads.  Between rounds nothing
    runs and the host is probed.  Returns the exchanges and the rounds'
    reference-host seconds.
    """
    exchanges: List[Exchange] = []
    rounds: List[float] = []
    host.probe()
    started = time.perf_counter()
    while len(rounds) < max_rounds and time.perf_counter() - started < seconds:
        ks = [first_k + len(rounds) * len(clients) + i for i in range(len(clients))]
        specs = [request_spec(seed, k) for k in ks]
        due = time.perf_counter()
        batch = [Exchange(k=k, tag=spec.tag, due=due) for k, spec in zip(ks, specs)]
        threads = [
            threading.Thread(target=_send, args=(client, spec, exchange, tracer))
            for client, spec, exchange in zip(clients, specs, batch)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        factor = host.next_factor()
        for exchange in batch:
            exchange.factor = factor
        rounds.append((max(e.done for e in batch) - due) * factor)
        exchanges.extend(batch)
    return exchanges, rounds


def _warm_session(seed: int) -> Session:
    """An in-process session whose renderer is built and warm."""
    session = Session()
    session.render(request_spec(seed, 0, warmup=True))
    return session


def _checksums(responses) -> List[float]:
    return [image_checksum(response.image) for response in responses]


def _failures(
    exchanges: List[Exchange], expected: Dict[int, List[float]]
) -> List[str]:
    failures = []
    for exchange in exchanges:
        reason = exchange.error or reply_mismatch(
            exchange.response,
            exchange.tag,
            FRAMES_PER_REQUEST,
            expected.get(exchange.k),
            _num_pixels(),
        )
        if reason:
            failures.append(f"{exchange.tag}: {reason}")
    return failures


def run(seed: int, seconds: float) -> Dict[str, object]:
    host = HostSpeed()
    setups, raw_setups = [], []
    for index in range(SETUPS):
        (daemon, clients), wall, scaled = host.timed(_setup, seed)
        raw_setups.append(wall)
        setups.append(scaled)
        if index < SETUPS - 1:
            _close(daemon, clients)
    try:
        exchanges, rounds = _run_rounds(clients, seed, host, seconds)
        rss = daemon.peak_rss_mb()
    finally:
        _close(daemon, clients)

    checked = [e.k for e in exchanges if e.k % CHECK_STRIDE < CONNECTIONS]
    with _warm_session(seed) as session:
        expected = {
            k: _checksums(session.render(request_spec(seed, k))) for k in checked
        }
    failures = _failures(exchanges, expected)
    ok = sum(1 for e in exchanges if e.response is not None and e.response.ok)
    summary = timing_summary("request", [e.response_time for e in exchanges])
    walls = [e.done - e.due for e in exchanges]
    return {
        "attempted": len(exchanges),
        "failed": len(failures),
        "metrics": {
            "setup_s": median(setups),
            "latency_ms": summary["median_ms"],
            "latency_ms_tail": summary["tail_ms"],
            "throughput_per_s": ok / sum(rounds),
            "success_ratio": (len(exchanges) - len(failures)) / len(exchanges),
            "peak_rss_mb": rss,
        },
        "details": {
            "scene": SCENE,
            "frames_per_request": FRAMES_PER_REQUEST,
            "connections": CONNECTIONS,
            "workers": WORKERS,
            "setups_s": setups,
            "request": summary,
            "latency_from": "due time: the start of the request's round",
            "max_send_lateness_ms": 1e3 * max(e.sent - e.due for e in exchanges),
            "wall": {
                "setups_s": raw_setups,
                "request": timing_summary("request", walls),
            },
            "host": host.summary(),
            "checked_in_process": len(checked),
            "failures": failures[:10],
        },
    }


def run_traced(seed: int, seconds: float) -> Dict[str, object]:
    """Ping, one-connection and two-connection phases, with in-process twins.

    Every one-connection request is followed at once by an in-process
    render of the same poses in a plain session and again in a second,
    traced session (separate frame caches, so neither pass is served from
    the other's).  Adjacent timings see the same host speed, so their
    differences measure the service's overhead and the tracing's cost.
    """
    count = max(6, int(seconds // 2))
    host = HostSpeed()
    tracer = Tracer()
    plain = _warm_session(seed)
    spanned = _warm_session(seed)

    def render_in_span(spec: TrajectorySpec):
        with tracer.span("inprocess", request=spec.tag):
            return spanned.render(spec)

    daemon, clients = _setup(seed)
    try:
        pings = []
        for index in range(30):
            with tracer.span("service.ping", request=f"ping-{index}") as span:
                clients[0].ping()
            pings.append(span.duration)
        single: List[Exchange] = []
        single_rounds: List[float] = []
        inprocess: Dict[int, float] = {}
        inprocess_traced: Dict[int, float] = {}
        expected: Dict[int, List[float]] = {}
        for k in range(count):
            batch, rounds = _run_rounds(
                clients[:1], seed, host, float("inf"), k, 1, tracer
            )
            single.extend(batch)
            single_rounds.extend(rounds)
            responses, _, inprocess[k] = host.timed(plain.render, request_spec(seed, k))
            expected[k] = _checksums(responses)
            with traced(tracer):
                _, _, inprocess_traced[k] = host.timed(
                    render_in_span, request_spec(seed, k)
                )
        both, both_rounds = _run_rounds(
            clients, seed, host, float("inf"), first_k=count, max_rounds=count
        )
        snapshot = clients[0].metrics()
    finally:
        _close(daemon, clients)
        plain.close()
        spanned.close()

    failures = _failures(single + both, expected)
    actors = [actor["tasks_done"] for actor in snapshot["actors"]]
    engine = snapshot["engine"]
    lookups = engine["renderer_hits"] + engine["renderer_misses"]
    layer_ms = {
        **render_layer_metrics(tracer.spans),
        "service.ping_ms": 1e3 * median(pings),
    }
    metrics = {
        **scale_times(layer_ms, host.run_factor()),
        "engine.renderer_hit_ratio": engine["renderer_hits"] / lookups
        if lookups
        else 0.0,
        "service.overhead_ms": 1e3
        * median([e.response_time - inprocess[e.k] for e in single]),
        "service.actor_overlap": (len(both) / sum(both_rounds))
        / (len(single) / sum(single_rounds)),
        "service.actor_task_skew": max(actors) / max(1, min(actors)),
        "service.retried": snapshot["supervision"]["retried"],
        "service.degraded": snapshot["requests"]["degraded"],
        "service.rejected": snapshot["requests"]["rejected"],
        "trace.overhead_ratio": median(inprocess_traced.values())
        / median(inprocess.values())
        - 1.0,
    }
    return {
        "attempted": len(single) + len(both),
        "failed": len(failures),
        "metrics": metrics,
        "details": {
            "one_connection": timing_summary(
                "request", [e.response_time for e in single]
            ),
            "two_connections": timing_summary(
                "request", [e.response_time for e in both]
            ),
            "inprocess": timing_summary("render", list(inprocess.values())),
            "inprocess_traced": timing_summary(
                "render", list(inprocess_traced.values())
            ),
            "actor_tasks_done": actors,
            "layer_ms_wall": layer_ms,
            "host": host.summary(),
            "failures": failures[:10],
        },
        "trace": {"service": tracer.dump()},
    }
