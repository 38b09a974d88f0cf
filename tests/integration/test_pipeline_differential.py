"""Differential proof: the client's upload options never change state.

For each of the paper's operating points (MLE, BTED, FTED) the client
with an encrypt process pool and/or a fingerprint cache must leave the
provider and the key manager in *bit-identical* state to the cache-off,
single-process client. These tests execute that contract through
:mod:`tests.harness.differential` against real on-disk providers.
"""

from __future__ import annotations

import pytest

from tests.harness.differential import (
    MODES,
    assert_equivalent,
    make_deployment,
    make_workload,
    run_workload,
)

# A workload with real duplicate pressure: ~40 distinct blocks behind
# ~2600 chunk references across two files, so every mode exercises both
# the dedup fast path and (for FTED) several server-side retune points.
WORKLOAD = make_workload(
    files=2, chunks_per_file=1300, distinct_blocks=40, seed=11
)
FILE_NAMES = [name for name, _ in WORKLOAD]


def _run(tmp_path, mode, **client_kwargs):
    deployment = make_deployment(mode, tmp_path, **client_kwargs)
    results = run_workload(deployment, WORKLOAD)
    deployment.close()
    return deployment, results


@pytest.mark.parametrize("mode", MODES)
def test_pipelined_matches_serial_bit_for_bit(tmp_path, mode):
    """workers=2, no cache: strictly identical state *and* counters."""
    serial, serial_results = _run(tmp_path / "serial", mode, workers=1)
    piped, piped_results = _run(tmp_path / "piped", mode, workers=2)
    assert_equivalent(
        serial,
        piped,
        FILE_NAMES,
        serial_results,
        piped_results,
    )
    # Without a cache nothing is resolved client-side.
    assert all(r.cache_hits == 0 for r in piped_results)


@pytest.mark.parametrize("mode", MODES)
def test_cached_pipeline_matches_serial_storage(tmp_path, mode):
    """The fingerprint cache may skip PUTs, never change stored bytes."""
    serial, serial_results = _run(tmp_path / "serial", mode, workers=1)
    cached, cached_results = _run(
        tmp_path / "cached", mode, cache_capacity=8192
    )
    assert_equivalent(
        serial,
        cached,
        FILE_NAMES,
        serial_results,
        cached_results,
        ignore_offered_counters=True,
    )
    # The workload is duplicate-heavy, so the cache must actually fire —
    # otherwise this test would pass vacuously.
    assert sum(r.cache_hits for r in cached_results) > 0
    cache = cached.client.fingerprint_cache
    assert cache is not None and cache.hits == sum(
        r.cache_hits for r in cached_results
    )


def test_single_worker_pipeline_matches_serial(tmp_path):
    """A cache too small for the workload evicts; still identical."""
    serial, serial_results = _run(tmp_path / "serial", "fted", workers=1)
    piped, piped_results = _run(
        tmp_path / "piped", "fted", workers=1, cache_capacity=16
    )
    assert piped.client.fingerprint_cache.evictions > 0
    assert_equivalent(
        serial,
        piped,
        FILE_NAMES,
        serial_results,
        piped_results,
        ignore_offered_counters=True,
    )


@pytest.mark.parametrize("mode", ["fted"])
def test_pipelined_downloads_round_trip(tmp_path, mode):
    """Cached pool uploads stay readable through the download path."""
    deployment, _ = _run(
        tmp_path / "piped", mode, workers=2, cache_capacity=4096
    )
    for name, chunks in WORKLOAD:
        assert deployment.client.download(name) == b"".join(chunks)


def test_pipelined_metadata_dedup_matches_serial(tmp_path):
    """The metadata-dedup recipe layout is preserved by the pool."""
    serial = make_deployment(
        "fted", tmp_path / "serial", workers=1, metadata_dedup=True
    )
    piped = make_deployment(
        "fted", tmp_path / "piped", workers=2, metadata_dedup=True
    )
    serial_results = run_workload(serial, WORKLOAD)
    piped_results = run_workload(piped, WORKLOAD)
    serial.close()
    piped.close()
    assert_equivalent(
        serial, piped, FILE_NAMES, serial_results, piped_results
    )
    for name, chunks in WORKLOAD:
        assert piped.client.download(name) == b"".join(chunks)
