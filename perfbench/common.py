"""Shared helpers of the benchmark: paths, host tags, statistics, memory.

Nothing here imports the program under test, so ``run.py`` can check that
the checkout holds the program before anything is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's sources live in the checkout.
SRC = ROOT / "src"
#: Everything the benchmark writes (records, span dumps, daemon logs).
OUT = ROOT / ".perfbench"

#: A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment of a child Python process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Host and build tags.
# ----------------------------------------------------------------------
def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """Content hash of the program's sources (the rev of a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_tags(seed: int) -> Dict[str, object]:
    """The ``env`` block every record carries."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: Sequence[float]) -> Tuple[float, float, bool]:
    """``(value, percentile, rule_met)`` of the tail of ``values``.

    The tail is the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it: the sample with exactly that many larger ones, at
    percentile ``100 * (n - TAIL_BEYOND) / n``.  With too few samples for
    the rule the maximum is returned and ``rule_met`` is False.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, False
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, True


def timing_summary(name: str, seconds: List[float]) -> Dict[str, object]:
    """Median and tail in ms of ``seconds``, with the tail's percentile and n."""
    value, percentile, rule_met = tail(seconds)
    return {
        "name": name,
        "n": len(seconds),
        "median_ms": 1e3 * median(seconds),
        "tail_ms": 1e3 * value,
        "tail_percentile": round(percentile, 2),
        "tail_rule_met": rule_met,
    }


# ----------------------------------------------------------------------
# Host speed.
# ----------------------------------------------------------------------
#: Seconds one probe round takes on the reference host; a time measured
#: while the probe takes longer is scaled down by the same factor.
REFERENCE_PROBE_S = 0.0015
#: Probe rounds per probe; their median is the probe's time.
PROBE_ROUNDS = 7


class HostSpeed:
    """Probes the host's speed between units of work.

    On a shared host the CPU's speed drifts by a quarter or more over tens
    of seconds, and every CPU-bound timing drifts with it.  A fixed probe —
    NumPy small-array work plus a pure-Python loop, the mix the program
    runs — is timed while the benchmark does nothing else, before and after
    each unit of work.  :meth:`timed` turns a unit's wall time into
    reference-host seconds: wall time x ``REFERENCE_PROBE_S`` / the mean of
    the probes around it.  The probe runs no program code, so a change to
    the program moves the scaled time exactly as it moves the wall time.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(12345)
        self._matrix = rng.standard_normal((64, 64))
        self._vector = rng.standard_normal(4096)
        self.probes: List[float] = []
        for _ in range(PROBE_ROUNDS):
            self._round()  # first calls pay for allocation and caches

    def _round(self) -> float:
        import numpy

        started = time.perf_counter()
        total = 0.0
        for _ in range(20):
            product = self._matrix @ self._matrix
            ordered = numpy.sort(self._vector)
            decay = numpy.exp(-self._vector * self._vector)
            total += float(decay.sum()) + product[0, 0] + ordered[0]
        count = 0
        for i in range(10000):
            count += i
        return time.perf_counter() - started

    def probe(self) -> float:
        """Median time of ``PROBE_ROUNDS`` rounds, in seconds (kept in ``probes``)."""
        value = median([self._round() for _ in range(PROBE_ROUNDS)])
        self.probes.append(value)
        return value

    def next_factor(self) -> float:
        """Reference-host factor of the work done since the last probe.

        Probes now, and scales by the mean of this probe and the last one.
        """
        before = self.probes[-1] if self.probes else self.probe()
        after = self.probe()
        return REFERENCE_PROBE_S / (0.5 * (before + after))

    def timed(self, work, *args, **kwargs):
        """Run ``work`` after the last probe: ``(result, wall s, scaled s)``."""
        if not self.probes:
            self.probe()
        started = time.perf_counter()
        result = work(*args, **kwargs)
        wall = time.perf_counter() - started
        return result, wall, wall * self.next_factor()

    def run_factor(self) -> float:
        """Reference-host factor of the whole run (median of its probes)."""
        return REFERENCE_PROBE_S / median(self.probes)

    def summary(self) -> Dict[str, object]:
        return {
            "reference_probe_ms": 1e3 * REFERENCE_PROBE_S,
            "probes": len(self.probes),
            "probe_median_ms": 1e3 * median(self.probes) if self.probes else None,
            "probe_min_ms": 1e3 * min(self.probes) if self.probes else None,
            "probe_max_ms": 1e3 * max(self.probes) if self.probes else None,
        }


def scale_times(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """``metrics`` with every ``*_ms`` value multiplied by ``factor``."""
    return {
        name: value * factor if name.endswith("_ms") else value
        for name, value in metrics.items()
    }


# ----------------------------------------------------------------------
# Memory.
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    try:
        text = status.read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def live_children_peak_rss_mb() -> float:
    """Summed peak RSS of this process's live multiprocessing children."""
    import multiprocessing

    return sum(peak_rss_mb(child.pid) for child in multiprocessing.active_children())


# ----------------------------------------------------------------------
# Process lifetime: a run ends with no process of its own left.
# ----------------------------------------------------------------------
#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of any descendant whose own parent exits first.

    A child that starts helpers of its own (the daemon, a pool worker, the
    shared-memory resource tracker) can leave them behind when it ends;
    as a sub-reaper this process inherits and can wait for them.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_resource_tracker() -> None:
    """End the multiprocessing resource tracker, which otherwise outlives us.

    The tracker is started on the first shared-memory segment and only exits
    once this process's end of its pipe closes; stopping it here closes the
    pipe and waits for it.
    """
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    except (ImportError, AttributeError):
        return
    if stop is not None:
        stop()


def _child_pids() -> List[int]:
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if stat[stat.rfind(")") + 2 :].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace_s: float = 10.0) -> int:
    """Stop and wait for every child left; returns how many had to be killed."""
    import multiprocessing

    _stop_resource_tracker()
    for child in multiprocessing.active_children():
        child.join(timeout=grace_s)
    deadline = time.monotonic() + grace_s
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in _child_pids():
            try:
                os.kill(pid, 9)
                killed += 1
            except ProcessLookupError:
                pass
        os.waitpid(-1, 0)


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def write_json(name: str, data: object) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(data, indent=1, sort_keys=True, default=str))
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
