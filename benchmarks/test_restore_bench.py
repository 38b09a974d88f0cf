"""Restore throughput: naive oracle vs client download (BENCH_restore).

The B.5 companion bench: uploads the A1 synthetic workload (FSL-like
snapshot series) once into an on-disk provider serving reads with
look-ahead container scheduling, then restores every snapshot twice —
through ``naive_download`` (every recipe entry fetched and decrypted
afresh) and through the client's download loop (DESIGN.md §11) — and
reports download throughput in MB/s. On this duplicate-heavy workload
the client fetches and decrypts each unique (ciphertext, key) pair once
per file and copies the repeats, which is where the speedup comes from.

Emits the ``restore`` section (CI routes it to ``BENCH_restore.json``)
with both throughputs, the speedup, and the provider-side
fragmentation/container-cache statistics, and fails if the client's
throughput drops below the oracle's — the CI regression gate. Restored
bytes are verified identical across the two for every snapshot.
"""

import hashlib
import random
import time

from conftest import print_table
from emit import emit

from tests.harness.differential import naive_download

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.storage.restore import FragmentationAnalyzer
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import ProviderService
from repro.traces.model import materialize_chunk

_W = 2**16
_BATCH = 4096
_LOOKAHEAD = 256


def _make_client(directory):
    """One client over an on-disk provider with look-ahead reads."""
    service = KeyManagerService(
        TedKeyManager(
            secret=b"restore-bench",
            blowup_factor=1.05,
            batch_size=_BATCH,
            sketch_width=_W,
            rng=random.Random(7),
        )
    )
    provider = ProviderService(
        directory=str(directory),
        container_bytes=1 << 20,  # small containers → real fragmentation
        lookahead_window=_LOOKAHEAD,
    )
    client = TedStoreClient(
        LocalKeyManager(service),
        LocalProvider(provider),
        profile=get_profile("shactr"),
        sketch_width=_W,
        batch_size=_BATCH,
    )
    return client, provider


def _download_all(download, names) -> dict:
    """Restore every snapshot; time only the ``download`` calls."""
    download_seconds = 0.0
    logical = 0
    digests = {}
    for name in names:
        started = time.perf_counter()
        data = download(name)
        download_seconds += time.perf_counter() - started
        logical += len(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    mb = logical / (1 << 20)
    return {
        "download_seconds": round(download_seconds, 3),
        "logical_mb": round(mb, 1),
        "mb_per_s": (
            round(mb / download_seconds, 2) if download_seconds else 0.0
        ),
        "digests": digests,
    }


def test_restore_client_vs_naive_throughput(fsl_dataset, tmp_path):
    client, provider = _make_client(tmp_path)
    names = []
    for snapshot in fsl_dataset.snapshots:
        chunks = [
            materialize_chunk(fp, size) for fp, size in snapshot.records
        ]
        client.upload_chunks(snapshot.snapshot_id, chunks)
        names.append(snapshot.snapshot_id)
    provider.flush()

    # Fragmentation of the final (most-aged) snapshot — the Figure 9
    # driver this bench exists to keep visible.
    last = fsl_dataset.snapshots[-1]
    engine = provider.engine
    algorithm = client.profile.hash_algorithm
    file_recipe, _ = client._fetch_recipes(last.snapshot_id)
    locations = [
        engine.locate(fp) for fp, _ in file_recipe.entries
    ]
    fragmentation = FragmentationAnalyzer.analyze(locations)

    # The oracle first: it warms the provider's container cache, so the
    # client then wins on client-side work skipped, not on a
    # cold-vs-warm cache artifact.
    naive = _download_all(
        lambda name: naive_download(client, name), names
    )
    restored = _download_all(client.download, names)

    # Byte-identity spot check against the oracle, every snapshot.
    assert restored.pop("digests") == naive.pop("digests")

    restorer_stats = {}
    restorer = engine._restorers.get(_LOOKAHEAD)
    if restorer is not None:
        restorer_stats = dict(restorer.stats)

    rows = [
        {"path": "naive_download", **naive},
        {"path": "client", **restored},
    ]
    speedup = (
        restored["mb_per_s"] / naive["mb_per_s"]
        if naive["mb_per_s"]
        else 0.0
    )
    print_table(
        "Restore download throughput (A1 FSL-like workload)", rows
    )
    print(
        f"client restore speedup: {speedup:.2f}x; "
        f"fragmentation factor (last snapshot): "
        f"{fragmentation.fragmentation_factor:.3f}"
    )
    emit(
        "restore",
        {
            "naive": naive,
            "client": restored,
            "speedup": round(speedup, 3),
            "lookahead_window": _LOOKAHEAD,
            "fragmentation": {
                "chunks": fragmentation.chunks,
                "containers_touched": fragmentation.containers_touched,
                "container_switches": fragmentation.container_switches,
                "chunks_per_container": round(
                    fragmentation.chunks_per_container, 2
                ),
                "fragmentation_factor": round(
                    fragmentation.fragmentation_factor, 4
                ),
            },
            "provider_restorer": restorer_stats,
        },
    )

    assert naive["logical_mb"] == restored["logical_mb"]
    # The look-ahead path must actually be serving these restores.
    assert restorer_stats.get("window_count", 0) > 0
    # Regression gate: the client may never restore slower than the oracle.
    assert restored["mb_per_s"] >= naive["mb_per_s"], (
        f"client restore regressed below naive_download: "
        f"{restored['mb_per_s']} < {naive['mb_per_s']} MB/s"
    )
