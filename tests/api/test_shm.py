"""Lifecycle suite for the zero-copy shared-memory layer.

The promises under test: a :class:`~repro.api.shm.SharedArrayHandle`
round-trips exact bytes through pickling and reattach; a
:class:`~repro.api.shm.ShmRegistry` unlinks every segment it created —
after ``Session.close()`` and after a sweep worker dies; and the
warm process workers of a session's persistent pool adopt broadcast
contexts instead of rebuilding them (``context_rebuilds == 0`` on the
second identical sweep).
"""

import concurrent.futures
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.api import (
    ExperimentSpec,
    Session,
    SweepExecutor,
    leaked_segments,
    shm_available,
    sweep,
)
from repro.api.shm import SharedMemoryUnavailable, ShmPackage, ShmRegistry

needs_shm = pytest.mark.skipif(not shm_available(), reason="no shared memory")


@pytest.fixture
def shm_baseline():
    """Segments alive before the test: other live registries (the process
    default session, module fixtures) legitimately keep segments open, so
    leak assertions compare against this snapshot, not against empty."""
    return set(leaked_segments())


def assert_no_new_segments(baseline):
    assert set(leaked_segments()) <= baseline


class _DyingPool:
    """A process pool whose futures fail like dead workers."""

    def __init__(self, max_workers=None, mp_context=None):
        pass

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("worker died mid-render"))
        return future

    def shutdown(self, wait=True, **kwargs):
        pass


class TestHandleRoundTrip:
    @needs_shm
    def test_reattach_round_trips_exact_bytes(self, shm_baseline):
        rng = np.random.default_rng(7)
        payload = rng.standard_normal((512, 33))  # > the 32 KiB threshold
        with ShmRegistry() as registry:
            handle = registry.publish(payload)
            assert handle.is_shared
            clone = pickle.loads(pickle.dumps(handle))
            attached = clone.array()
            assert attached.tobytes() == payload.tobytes()
            assert attached.dtype == payload.dtype
            assert attached.shape == payload.shape
            # The handle itself travels as metadata, not as the buffer.
            assert len(pickle.dumps(handle)) < payload.nbytes / 100
        assert_no_new_segments(shm_baseline)

    @needs_shm
    def test_package_round_trips_object_graph(self, shm_baseline):
        rng = np.random.default_rng(3)
        graph = {
            "big": rng.standard_normal(20_000),
            "small": np.arange(4),
            "meta": ("x", 1.5),
        }
        with ShmRegistry() as registry:
            package = ShmPackage.pack(graph, registry)
            assert len(package.segments) >= 1
            assert package.pickled_bytes < graph["big"].nbytes / 10
            # Views are valid only while the registry lives (see
            # SharedArrayHandle.array): compare before it closes.
            out = pickle.loads(pickle.dumps(package)).unpack()
            np.testing.assert_array_equal(out["big"], graph["big"])
            np.testing.assert_array_equal(out["small"], graph["small"])
            assert out["meta"] == graph["meta"]
        assert_no_new_segments(shm_baseline)

    def test_inline_fallback_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.api.shm._shared_memory", None)
        registry = ShmRegistry()
        handle = registry.publish(np.arange(100_000, dtype=np.float64))
        assert not handle.is_shared
        np.testing.assert_array_equal(
            handle.array(), np.arange(100_000, dtype=np.float64)
        )
        assert registry.stats()["inline_fallbacks"] == 1
        with pytest.raises(SharedMemoryUnavailable):
            ShmRegistry(fallback_inline=False).publish(np.arange(100_000))
        registry.close()


@needs_shm
class TestConsolidatedSegment:
    """Sub-threshold arrays bundle into one consolidated segment."""

    def test_small_arrays_leave_the_payload(self, shm_baseline):
        rng = np.random.default_rng(11)
        graph = {
            "big": rng.standard_normal(20_000),
            "small": [rng.standard_normal(64) for _ in range(20)],
            "ints": np.arange(200, dtype=np.int32),
        }
        with ShmRegistry() as registry:
            bundled = ShmPackage.pack(graph, registry)
            plain = ShmPackage.pack(graph, registry, consolidate_min=None)
            assert bundled.consolidated is not None
            assert bundled.consolidated_arrays == 21
            small_bytes = sum(a.nbytes for a in graph["small"]) + graph["ints"].nbytes
            assert bundled.consolidated_bytes == small_bytes
            # The reduction the bundle buys: small arrays no longer ride
            # pickled in the payload.
            assert bundled.pickled_bytes < plain.pickled_bytes - small_bytes // 2
            out = pickle.loads(pickle.dumps(bundled)).unpack()
            np.testing.assert_array_equal(out["big"], graph["big"])
            for got, expected in zip(out["small"], graph["small"]):
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(out["ints"], graph["ints"])
            assert not out["small"][0].flags.writeable
        assert_no_new_segments(shm_baseline)

    def test_duplicate_references_share_one_entry(self):
        shared = np.arange(100, dtype=np.float64)
        graph = {"a": shared, "b": shared, "c": [shared, shared]}
        with ShmRegistry() as registry:
            package = ShmPackage.pack(graph, registry)
            assert package.consolidated_arrays == 1
            out = package.unpack()
            assert out["a"] is out["b"] is out["c"][0] is out["c"][1]
            np.testing.assert_array_equal(out["a"], shared)

    def test_mixed_dtypes_reconstruct_aligned(self):
        graph = [
            np.arange(9, dtype=np.int8),  # odd size forces padding
            np.arange(33, dtype=np.float32),
            np.arange(17, dtype=np.float64).reshape(1, 17),
            np.array([[1, 2], [3, 4]], dtype=np.uint16),
        ]
        with ShmRegistry() as registry:
            out = ShmPackage.pack(graph, registry).unpack()
            for got, expected in zip(out, graph):
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                np.testing.assert_array_equal(got, expected)

    def test_tiny_arrays_stay_pickled(self):
        graph = {"tiny": np.arange(3, dtype=np.int8)}  # < consolidate floor
        with ShmRegistry() as registry:
            package = ShmPackage.pack(graph, registry)
            assert package.consolidated is None
            assert package.consolidated_arrays == 0
            np.testing.assert_array_equal(package.unpack()["tiny"], graph["tiny"])

    def test_sweep_report_records_consolidation(self, shm_baseline):
        specs = sweep(
            ExperimentSpec(scene="lego", resolution_scale=0.5),
            num_hfu=(2, 4, 6, 8),
        )
        session = Session(seed=3, jobs=2)
        try:
            result = session.run_sweep(specs, swept=["num_hfu"], jobs=2)
            report = result.meta["execution"]
            if report["mode"] == "process":  # not degraded on this host
                assert report["consolidated_arrays"] > 0
                assert report["consolidated_bytes"] > 0
                # The consolidated remainder dwarfs what is still pickled.
                assert report["pickled_bytes"] < report["consolidated_bytes"]
        finally:
            session.close()
        assert_no_new_segments(shm_baseline)


@needs_shm
class TestRegistryLifecycle:
    def test_close_unlinks_everything(self, shm_baseline):
        registry = ShmRegistry()
        for seed in range(3):
            registry.publish(np.full(20_000, float(seed)))
        assert registry.stats()["segments_active"] == 3
        registry.close()
        assert registry.stats()["segments_active"] == 0
        assert_no_new_segments(shm_baseline)
        with pytest.raises(RuntimeError):
            registry.publish(np.zeros(10))

    def test_session_close_unlinks_context_packages(self, shm_baseline):
        session = Session(seed=5)
        spec = ExperimentSpec(scene="lego", resolution_scale=0.5)
        package = session.context_package(spec)
        assert len(package.segments) >= 1
        assert session.context_package(spec) is package  # cached per key
        session.close()
        assert_no_new_segments(shm_baseline)


@needs_shm
class TestWarmContexts:
    def test_repeated_sweep_rebuilds_nothing(self, shm_baseline):
        specs = sweep(
            ExperimentSpec(scene="lego", resolution_scale=0.5),
            num_hfu=(1, 2, 3, 4, 5, 6, 7, 8),
        )
        session = Session(seed=9)
        try:
            serial = session.run_many(specs)
            reports = []
            for _ in range(2):
                executor = SweepExecutor(jobs=2, mode="process", split_threshold=8)
                result = executor.run(specs, swept=["num_hfu"], session=session)
                reports.append(executor.report)
                assert [r.metrics for r in result.results] == [
                    r.metrics for r in serial
                ]
            cold, warm = reports
            if warm.mode == "process":  # not degraded on this host
                assert cold.shm_segments >= 1
                assert warm.context_rebuilds == 0
                assert warm.warm_contexts >= 1
        finally:
            session.close()
        assert_no_new_segments(shm_baseline)

    def test_executor_worker_death_leaves_no_segments(self, monkeypatch, shm_baseline):
        specs = sweep(
            ExperimentSpec(scene="lego", resolution_scale=0.5),
            num_hfu=(1, 2, 3, 4, 5, 6, 7, 8),
        )
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _DyingPool
        )
        session = Session(seed=9)
        try:
            executor = SweepExecutor(jobs=2, mode="process", split_threshold=8)
            result = executor.run(specs, swept=["num_hfu"], session=session)
            assert executor.report.degraded_from == "process"
            assert executor.report.mode in ("thread", "serial")
            assert len(result.results) == len(specs)
        finally:
            session.close()
        assert_no_new_segments(shm_baseline)
