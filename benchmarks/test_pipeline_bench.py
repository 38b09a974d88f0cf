"""Upload throughput: cache-off vs fingerprint-cache client (BENCH_pipeline).

Replays the A1 synthetic workload (FSL-like snapshot series) through two
in-process deployments — the cache-off client and the same client with
a fingerprint cache (DESIGN.md §10) — and reports upload throughput in
MB/s. The cached client must never be slower; on this duplicate-heavy
workload the cache and the in-upload repeat check resolve the bulk of
repeat chunks client-side, skipping their encryption and PUT.

Emits the ``pipeline`` section (CI routes it to ``BENCH_pipeline.json``)
with both throughputs, the speedup, and cache statistics, and fails if
cached throughput drops below cache-off — the CI regression gate.
"""

import random
import time

from conftest import print_table
from emit import emit

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.storage.dedup import FingerprintCache
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import ProviderService
from repro.traces.model import materialize_chunk

_W = 2**16
_BATCH = 4096


def _make_client(cache_capacity: int) -> TedStoreClient:
    service = KeyManagerService(
        TedKeyManager(
            secret=b"pipeline-bench",
            blowup_factor=1.05,
            batch_size=_BATCH,
            sketch_width=_W,
            rng=random.Random(7),
        )
    )
    provider = ProviderService(in_memory=True)
    cache = (
        FingerprintCache(capacity=cache_capacity)
        if cache_capacity
        else None
    )
    return TedStoreClient(
        LocalKeyManager(service),
        LocalProvider(provider),
        profile=get_profile("shactr"),
        sketch_width=_W,
        batch_size=_BATCH,
        fingerprint_cache=cache,
    )


def _replay(client: TedStoreClient, dataset) -> dict:
    """Upload every snapshot; time only the upload calls."""
    upload_seconds = 0.0
    logical = 0
    chunk_count = 0
    stored = 0
    cache_hits = 0
    for snapshot in dataset.snapshots:
        # Materialize outside the timed region: chunk synthesis is test
        # scaffolding, not part of the client path being measured.
        chunks = [
            materialize_chunk(fp, size) for fp, size in snapshot.records
        ]
        started = time.perf_counter()
        result = client.upload_chunks(snapshot.snapshot_id, chunks)
        upload_seconds += time.perf_counter() - started
        logical += result.logical_bytes
        chunk_count += result.chunk_count
        stored += result.stored_chunks
        cache_hits += result.cache_hits
    mb = logical / (1 << 20)
    return {
        "upload_seconds": round(upload_seconds, 3),
        "logical_mb": round(mb, 1),
        "chunks": chunk_count,
        "stored_chunks": stored,
        "cache_hits": cache_hits,
        "mb_per_s": round(mb / upload_seconds, 2) if upload_seconds else 0.0,
    }


def test_fp_cache_vs_cache_off_throughput(fsl_dataset):
    cache_off_client = _make_client(cache_capacity=0)
    cached_client = _make_client(cache_capacity=1 << 16)
    cache_off = _replay(cache_off_client, fsl_dataset)
    cached = _replay(cached_client, fsl_dataset)

    rows = [
        {"path": "cache off", **cache_off},
        {"path": "fp-cache", **cached},
    ]
    speedup = (
        cached["mb_per_s"] / cache_off["mb_per_s"] if cache_off["mb_per_s"] else 0.0
    )
    print_table("Pipeline upload throughput (A1 FSL-like workload)", rows)
    print(f"fp-cache speedup: {speedup:.2f}x (target: >= 1.5x)")
    emit(
        "pipeline",
        {
            "cache_off": cache_off,
            "fp_cache": cached,
            "speedup": round(speedup, 3),
            "cache": cached_client.fingerprint_cache.stats(),
        },
    )

    # Equivalence spot-check: both clients must agree on what was stored.
    assert cached["chunks"] == cache_off["chunks"]
    assert cached["stored_chunks"] == cache_off["stored_chunks"]
    assert cached["logical_mb"] == cache_off["logical_mb"]
    # The duplicate-heavy workload must actually exercise the cache.
    assert cached["cache_hits"] > 0
    # Regression gate: the cache may never make uploads slower.
    assert cached["mb_per_s"] >= cache_off["mb_per_s"], (
        f"fp-cache client regressed below cache-off: "
        f"{cached['mb_per_s']} < {cache_off['mb_per_s']} MB/s"
    )
