"""The three deployments the workloads run against.

* :class:`BackupDeployment` — one in-process client, a single on-disk
  provider built the way Exp B.5 builds it (``engine=``), an in-process
  key manager with a seeded RNG, and the pipelined client.
* :class:`ShardDeployment` — in-process 3-shard: a ``ShardedKeyManager``
  front and a ring-sharded on-disk ``ProviderService``.
* :class:`FleetDeployment` — 3 ``repro serve-shard`` provider processes
  and one ``repro serve-keymanager --shards 3`` process over TCP.

Each deployment hands out clients and a :meth:`counters` snapshot of
every counter the per-layer book reads, so a pass can take deltas over
exactly its measured phase.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import socket
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.obs import metrics as obs_metrics
from repro.storage.dedup import DedupEngine, FingerprintCache
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import DEFAULT_TENANT, ProviderService

import layers

PROFILE = "shactr"  # the throughput profile Exp B.5 and loadgen use
KM_SECRET = b"perfbench-km-secret"
RING_SEED = 2013
SHARDS = 3
#: Closed-loop client threads in the small-file workloads. The client is
#: interpreter-bound, so a second thread in the same process adds no
#: throughput; its ops wait for the interpreter lock in slices of the
#: 5 ms switch interval, and the latencies then measure that scheduler
#: rather than the program.
CLIENT_THREADS = 1
#: FTED retunes t every this many key requests. The paper's 48,000 is
#: scaled to the workloads' size (a backup round makes ~4,600 requests)
#: so t is tuned several times per run instead of staying at its
#: initial value of 1.
KM_TUNING_BATCH = 1024

#: Provider scaled the way the Exp B.5 index ablation scales it, so the
#: ~7 MiB of unique data a backup round writes cycles the memtable and
#: L0 compaction several times and seals ~14 containers.
BACKUP_KVSTORE = {"memtable_bytes": 8 << 10, "compaction_trigger": 2}
BACKUP_CONTAINER_BYTES = 512 << 10
#: Fingerprint-cache entries: below one version's ~550 chunks, so the
#: working set exceeds the cache and the LRU evicts every version.
BACKUP_FP_CACHE = 384
#: Encrypt worker threads of the pipelined backup client. ``shactr``
#: encryption holds the interpreter lock, so a second worker adds no
#: throughput here, only run-to-run noise; the fingerprint cache keeps
#: the client on the pipelined path.
BACKUP_WORKERS = 1


def tenant_master_key(tenant: str) -> bytes:
    return hashlib.sha256(b"perfbench-tenant:" + tenant.encode()).digest()


def _key_manager(seed: int) -> TedKeyManager:
    return TedKeyManager(
        secret=KM_SECRET,
        blowup_factor=1.05,
        batch_size=KM_TUNING_BATCH,
        sketch_width=2**21,
        rng=random.Random(seed),
    )


def disk_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                continue  # a .tmp file renamed away mid-walk
    return total


def _add_pairs(out: Dict[str, float], pairs, prefix: str = "") -> None:
    for name, value in pairs:
        if isinstance(value, (int, float)):
            out[prefix + name] += value


def _add_stats(out: Dict[str, float], prefix: str, stats: Dict) -> None:
    for name, value in stats.items():
        out[f"{prefix}{name}"] += value


class _Deployment:
    """Shared counter plumbing; subclasses set the fields below."""

    root: Path
    recorder: Optional[layers.Recorder]
    clients: List[TedStoreClient]

    def _engines(self) -> List[DedupEngine]:
        return []

    def _remote_pairs(self) -> Dict[str, float]:
        return {}

    def provider_pairs(self) -> Dict[str, float]:
        """The in-process provider service's own stats pairs."""
        raise NotImplementedError

    def _add_clients(self, tenants, km_for, provider_for) -> None:
        """One serial client per (client thread, tenant); a client is
        never shared between threads."""
        self.clients = []
        self.by_thread: List[Dict[str, TedStoreClient]] = []
        for thread in range(CLIENT_THREADS):
            per_tenant = {
                tenant: _client(
                    km_for(thread), provider_for(tenant), tenant,
                    self.recorder,
                )
                for tenant in tenants
            }
            self.clients.extend(per_tenant.values())
            self.by_thread.append(per_tenant)

    def counters(self) -> Dict[str, float]:
        """Every counter the book reads, flattened into one dict."""
        out: Dict[str, float] = defaultdict(float)
        _add_pairs(out, obs_metrics.get_registry().snapshot().items())
        for name, value in self._remote_pairs().items():
            out[name] += value
        for engine in self._engines():
            _add_stats(out, "kv:", engine.index.stats)
            _add_stats(out, "containers:", engine.containers.stats)
        for name, value in self.provider_pairs().items():
            out["srv:" + name] += value
        for client in self.clients:
            _add_stats(out, "timer:", client.timer.totals())
            cache = client.fingerprint_cache
            if cache is not None:
                _add_stats(out, "fp_cache:", cache.stats())
        out["disk_bytes"] = disk_bytes(self.root)
        return out


class BackupDeployment(_Deployment):
    """Single client, single on-disk provider, in-process key manager."""

    def __init__(
        self, root: Path, seed: int, recorder: Optional[layers.Recorder]
    ) -> None:
        self.root = root
        self.recorder = recorder
        self.km_service = KeyManagerService(_key_manager(seed))
        self._serve()

    def _serve(self) -> None:
        """Open the store at ``root`` and connect a fresh client to it."""
        self.engine = DedupEngine(
            self.root,
            container_bytes=BACKUP_CONTAINER_BYTES,
            kvstore_options=BACKUP_KVSTORE,
        )
        engine, km, recorder = self.engine, self.km_service, self.recorder
        if recorder is not None:
            engine = layers.trace_engine(engine, recorder)
            km = layers.trace_km_service(km, recorder)
        # directory= keeps recipes durable next to the engine, so the
        # reopen check can restore from disk alone.
        self.service = ProviderService(directory=str(self.root), engine=engine)
        service = self.service
        if recorder is not None:
            service = layers.trace_provider_service(service, recorder)
        self.clients = [
            _client(
                LocalKeyManager(km, client_id="backup"),
                LocalProvider(service),
                DEFAULT_TENANT,
                recorder,
                pipelined=True,
            )
        ]

    @property
    def client(self) -> TedStoreClient:
        return self.clients[0]

    def _engines(self) -> List[DedupEngine]:
        return [self.engine]

    def provider_pairs(self) -> Dict[str, float]:
        return dict(self.service.stats())

    def flush(self) -> None:
        self.service.flush()

    def reopen(self) -> TedStoreClient:
        """Close the provider and serve the same directory afresh."""
        self.service.close()
        self.recorder = None
        self._serve()
        return self.client

    def recipe_transport(self, tenant: str):
        return LocalProvider(self.service, tenant=tenant)

    def close(self) -> None:
        self.service.close()


class ShardDeployment(_Deployment):
    """In-process 3-shard: sharded KM front, ring-sharded provider."""

    def __init__(
        self, root: Path, seed: int, recorder: Optional[layers.Recorder],
        tenants,
    ) -> None:
        from repro.tedstore.ring import HashRing
        from repro.tedstore.sharding import ShardedKeyManager

        self.root = root
        self.recorder = recorder
        self.km_service = ShardedKeyManager(
            _key_manager(seed), HashRing.build(SHARDS, seed=RING_SEED)
        )
        self.service = ProviderService(
            directory=str(root), shards=SHARDS, ring_seed=RING_SEED
        )
        km, service = self.km_service, self.service
        if recorder is not None:
            km = layers.trace_km_service(km, recorder)
            service = layers.trace_provider_service(service, recorder)
        self._add_clients(
            tenants,
            lambda thread: LocalKeyManager(km, client_id=f"bench-{thread}"),
            lambda tenant: LocalProvider(service, tenant=tenant),
        )

    def _engines(self) -> List[DedupEngine]:
        return list(self.service.engine.shard_engines)

    def provider_pairs(self) -> Dict[str, float]:
        return dict(self.service.stats())

    def recipe_transport(self, tenant: str):
        return LocalProvider(self.service, tenant=tenant)

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            self.km_service.close()


def _client(
    km, provider, tenant: str, recorder, pipelined: bool = False
) -> TedStoreClient:
    """A client on the given transports; traced runs wrap its parts.

    ``pipelined`` selects the backup client: the pipelined path with
    ``BACKUP_WORKERS`` encrypt workers and a
    fingerprint cache. Otherwise the client takes the serial path.
    """
    chunker = ContentDefinedChunker(ChunkerParams())
    profile = get_profile(PROFILE)
    cache = FingerprintCache(capacity=BACKUP_FP_CACHE) if pipelined else None
    if recorder is not None:
        km = layers.trace_km_transport(km, recorder)
        provider = layers.trace_provider_transport(provider, recorder)
        chunker = layers.trace_chunker(chunker, recorder)
        profile = layers.trace_profile(profile, recorder)
        if cache is not None:
            cache = layers.trace_cache(cache, recorder)
    return TedStoreClient(
        km,
        provider,
        master_key=tenant_master_key(tenant),
        profile=profile,
        chunker=chunker,
        workers=BACKUP_WORKERS if pipelined else 1,
        fingerprint_cache=cache,
    )


def _free_ports(count: int) -> List[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class FleetDeployment(_Deployment):
    """3 provider shard processes + 1 key-manager process over TCP."""

    READY_TIMEOUT = 60.0
    STOP_TIMEOUT = 20.0

    def __init__(
        self, root: Path, recorder: Optional[layers.Recorder], tenants,
        src: Path,
    ) -> None:
        from repro.tedstore.fleet import MultiShardProvider
        from repro.tedstore.network import RemoteKeyManager
        from repro.tedstore.ring import HashRing, store_ring

        self.root = root
        self.recorder = recorder
        self.procs: List[subprocess.Popen] = []
        self._transports: List[object] = []
        root.mkdir(parents=True, exist_ok=True)
        ports = _free_ports(SHARDS + 1)
        self.ring = HashRing.build(SHARDS, seed=RING_SEED).with_endpoints(
            {k: f"127.0.0.1:{ports[k]}" for k in range(SHARDS)}
        )
        store_ring(root / "ring.json", self.ring)
        self.km_address = ("127.0.0.1", ports[SHARDS])
        env = dict(os.environ, PYTHONPATH=str(src))
        cli = [sys.executable, "-m", "repro.cli"]
        commands = [
            cli + [
                "serve-shard", "--role", "provider", "--shard", str(k),
                "--root", str(root), "--port", str(ports[k]),
            ]
            for k in range(SHARDS)
        ]
        commands.append(
            cli + [
                "serve-keymanager", "--port", str(ports[SHARDS]),
                "--shards", str(SHARDS), "--ring-seed", str(RING_SEED),
                "--secret", KM_SECRET.decode(),
                "--batch-size", str(KM_TUNING_BATCH),
            ]
        )
        try:
            for number, command in enumerate(commands):
                with open(root / f"server-{number}.log", "ab") as log:
                    self.procs.append(
                        subprocess.Popen(
                            command, stdout=log, stderr=subprocess.STDOUT,
                            env=env,
                        )
                    )
            self._wait_ready(ports)
            self.km_stats = self._keep(RemoteKeyManager(self.km_address))
            self.stats_provider = self._keep(MultiShardProvider(self.ring))
            self._add_clients(
                tenants,
                lambda thread: self._keep(RemoteKeyManager(self.km_address)),
                lambda tenant: self._keep(
                    MultiShardProvider(self.ring, tenant=tenant)
                ),
            )
            self._recipe_transports = {
                tenant: self._keep(
                    MultiShardProvider(self.ring, tenant=tenant)
                )
                for tenant in tenants
            }
        except BaseException:
            self.close()
            raise

    def _keep(self, transport):
        self._transports.append(transport)
        return transport

    def _wait_ready(self, ports: List[int]) -> None:
        from repro.tedstore.network import probe_endpoint

        deadline = time.monotonic() + self.READY_TIMEOUT
        for number, port in enumerate(ports):
            while True:
                try:
                    probe_endpoint(("127.0.0.1", port), timeout=1.0)
                    break
                except OSError:
                    proc = self.procs[number]
                    if proc.poll() is not None:
                        raise RuntimeError(
                            f"server {number} exited rc={proc.returncode}; "
                            f"see {self.root}/server-{number}.log"
                        )
                    if time.monotonic() > deadline:
                        raise RuntimeError(f"server {number} not ready")
                    time.sleep(0.05)

    def _remote_pairs(self) -> Dict[str, float]:
        """The servers' own stats replies (registries included).

        The provider shards' replies are summed by ``MultiShardProvider``
        and carry the ``srv:`` prefix; the key manager's carry ``km:``.
        """
        out: Dict[str, float] = defaultdict(float)
        _add_pairs(out, self.km_stats.stats(), "km:")
        _add_pairs(out, self.stats_provider.stats(), "srv:")
        return out

    def provider_pairs(self) -> Dict[str, float]:
        return {}  # the provider's pairs arrive as srv:* in _remote_pairs

    def recipe_transport(self, tenant: str):
        return self._recipe_transports[tenant]

    def close(self) -> None:
        for transport in self._transports:
            try:
                transport.close()
            except OSError:
                pass  # the server side may already be gone
        self._transports = []
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=self.STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
