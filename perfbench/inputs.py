"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed: the program
under test only ever sees the bytes these produce. String seeds go
through ``random.Random``'s SHA-512 seeding, so streams are identical
across processes and independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

UNIT = 8 << 10  # bytes per payload unit (load-smoke's unit_kb = 8)


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# -- backup: a chain of versions of one dataset -------------------------------


@dataclass(frozen=True)
class BackupShape:
    """Size of the backed-up dataset and of its version chain."""

    files: int = 32  # files per version
    units_per_file: int = 16  # 16 x 8 KiB = 128 KiB files
    copies: int = 4  # files that duplicate another file of the version
    versions: int = 8
    churn: float = 0.10  # share of units rewritten per version


def backup_chain(seed: int, shape: BackupShape) -> List[List[bytes]]:
    """``versions`` lists of file payloads, oldest first.

    Version 0 is random apart from ``copies`` whole-file duplicates
    (the copy sources are fixed per seed). Each later version rewrites
    ``churn`` of the original files' units with fresh bytes, and the
    copies follow their sources, so every version shares ~90% of its
    content with the previous one.
    """
    rng = random.Random(f"perfbench-backup:{seed}")
    originals = shape.files - shape.copies
    sources = [rng.randrange(originals) for _ in range(shape.copies)]
    units = [
        [rng.randbytes(UNIT) for _ in range(shape.units_per_file)]
        for _ in range(originals)
    ]
    total_units = originals * shape.units_per_file
    rewrites = max(1, round(shape.churn * total_units))
    chain: List[List[bytes]] = []
    for version in range(shape.versions):
        if version:
            for slot in rng.sample(range(total_units), rewrites):
                row, col = divmod(slot, shape.units_per_file)
                units[row][col] = rng.randbytes(UNIT)
        files = [b"".join(row) for row in units]
        files.extend(files[source] for source in sources)
        chain.append(files)
    return chain


# -- small files: per-thread closed-loop op scripts ---------------------------


@dataclass(frozen=True)
class SmallFileShape:
    """The load-smoke traffic shape (examples/load_smoke.toml)."""

    tenants: Tuple[str, ...] = ("tenant-a", "tenant-b")
    tenant_skew: float = 1.0  # Zipf-ish: tenant 0 is the hottest
    min_kb: int = 8
    max_kb: int = 48
    upload_share: float = 0.7
    dup_file_prob: float = 0.2
    dup_chunk_prob: float = 0.3
    shared_prob: float = 0.5
    pool_units: int = 256
    pool_files: int = 64
    ops: int = 2000  # closed-loop ops per build (per traffic stream)


@dataclass
class Op:
    """One closed-loop operation; ``data`` is set for uploads only."""

    kind: str  # "upload" | "restore"
    tenant: str
    name: str
    data: bytes = b""
    expected: bytes = b""  # SHA-256 of the payload a restore must return


class SmallFileTraffic:
    """Pools shared by every client thread of one stream (read-only).

    ``stream`` selects one of several independent traffic streams of
    the same seed, so a run can spread over more distinct data.
    """

    def __init__(
        self, seed: int, shape: SmallFileShape, stream: int = 0
    ) -> None:
        self.seed = f"{seed}:{stream}"
        self.shape = shape
        rng = random.Random(f"perfbench-pools:{self.seed}")
        # Cross-tenant pool (the cross-user dedup source) and one pool
        # per tenant (within-tenant partial dedup).
        self.shared_units = [
            rng.randbytes(UNIT) for _ in range(shape.pool_units)
        ]
        self.tenant_units: Dict[str, List[bytes]] = {
            tenant: [rng.randbytes(UNIT) for _ in range(shape.pool_units)]
            for tenant in shape.tenants
        }

    def script(self, thread: int) -> "ThreadScript":
        return ThreadScript(self, thread)


class ThreadScript:
    """An endless, deterministic op stream for one client thread.

    Restores only target files this thread uploaded, and whole-file
    duplicates only repeat this thread's own payloads, so the stream
    depends on the seed and the thread index alone, never on how the
    threads interleave.
    """

    def __init__(self, traffic: SmallFileTraffic, thread: int) -> None:
        self._traffic = traffic
        self._shape = traffic.shape
        self._thread = thread
        self._rng = random.Random(f"perfbench-thread:{traffic.seed}:{thread}")
        self._weights = [
            1.0 / (rank + 1) ** self._shape.tenant_skew
            for rank in range(len(self._shape.tenants))
        ]
        self._count = 0
        self._uploaded: Dict[str, List[Tuple[str, bytes]]] = {
            t: [] for t in self._shape.tenants
        }
        self._payloads: Dict[str, List[bytes]] = {
            t: [] for t in self._shape.tenants
        }

    def _payload(self, tenant: str) -> bytes:
        shape, rng = self._shape, self._rng
        history = self._payloads[tenant]
        if history and rng.random() < shape.dup_file_prob:
            return rng.choice(history)
        units = rng.randint(shape.min_kb, shape.max_kb) * 1024 // UNIT
        parts = []
        for _ in range(max(1, units)):
            if rng.random() < shape.dup_chunk_prob:
                pool = (
                    self._traffic.shared_units
                    if rng.random() < shape.shared_prob
                    else self._traffic.tenant_units[tenant]
                )
                parts.append(rng.choice(pool))
            else:
                parts.append(rng.randbytes(UNIT))
        payload = b"".join(parts)
        if len(history) < shape.pool_files:
            history.append(payload)
        else:
            history[rng.randrange(len(history))] = payload
        return payload

    def next_op(self) -> Op:
        shape, rng = self._shape, self._rng
        tenant = rng.choices(shape.tenants, weights=self._weights)[0]
        uploaded = self._uploaded[tenant]
        if uploaded and rng.random() >= shape.upload_share:
            name, expected = rng.choice(uploaded)
            return Op("restore", tenant, name, expected=expected)
        self._count += 1
        name = f"t{self._thread}/f{self._count:06d}"
        data = self._payload(tenant)
        return Op("upload", tenant, name, data=data, expected=digest(data))

    def acknowledge(self, op: Op) -> None:
        """Make an acked upload a restore candidate."""
        self._uploaded[op.tenant].append((op.name, op.expected))
