"""Smoke test of the streaming render-path benchmark harness."""


def test_streaming_benchmark_smoke():
    """The streaming benchmark verifies equivalence on a reduced scene."""
    from repro.engine.bench import run_streaming_benchmark

    result = run_streaming_benchmark(
        num_gaussians=400, width=48, height=36, repeats=1
    )
    assert result.stats_equal, result.stats_detail
    assert result.max_image_delta <= 1e-9
    assert result.speedup > 0
    entry = result.as_dict()
    assert entry["seconds"]["vectorized"] > 0
    assert set(entry["seconds"]) == {"reference", "vectorized"}
    assert "speedup" in result.format() or "speedup" in entry
