"""The measured passes: backup rounds and closed-loop small-file loops.

A *pass* builds its deployment (timed as set-up), warms it up, runs the
measured phase, and then — outside the measured phase — computes the
space and confidentiality metrics and verifies durability. A traced
pass wraps every layer entry point (:mod:`layers`); its recorder and
counter deltas feed the per-layer book (:mod:`book`).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.kld import kld_from_observations
from repro.storage.recipe import FileRecipe, unseal
from repro.tedstore.messages import GetRecipes
from repro.tedstore.provider import DEFAULT_TENANT

import deploy
import inputs
import layers

MIB = float(1 << 20)
WARMUP_BYTES = 48 << 10
#: Fewest small-file builds per full pass, so set-up time is a median.
MIN_BUILDS = 3


@dataclass
class Sample:
    kind: str  # "upload" | "restore"
    start: float
    end: float
    nbytes: int
    ok: bool
    covered: float = 0.0  # wall time covered by wrapped calls (traced)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    """What a pass needs besides its length: seed, scratch root, sizes."""

    seed: int
    workdir: Path
    src: Path
    backup: inputs.BackupShape = field(default_factory=inputs.BackupShape)
    smallfile: inputs.SmallFileShape = field(
        default_factory=inputs.SmallFileShape
    )
    _chain: Optional[List[List[bytes]]] = None
    _passes: int = 0

    def chain(self) -> List[List[bytes]]:
        if self._chain is None:
            self._chain = inputs.backup_chain(self.seed, self.backup)
        return self._chain

    def fresh_dir(self, label: str) -> Path:
        self._passes += 1
        path = self.workdir / f"{label}-{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class PassResult:
    """Everything one pass measured; rates are per repeat (round or loop)."""

    samples: List[Sample] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    upload_rates: List[float] = field(default_factory=list)  # MiB/s
    restore_rates: List[float] = field(default_factory=list)
    upload_bytes: int = 0
    upload_seconds: float = 0.0
    restore_bytes: int = 0
    restore_seconds: float = 0.0
    stored_ratios: List[float] = field(default_factory=list)
    klds: List[float] = field(default_factory=list)
    disk_ratios: List[float] = field(default_factory=list)
    kld_references: int = 0
    store_digest: str = ""
    restored_digest: str = ""
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    delta: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[layers.Recorder] = None
    measured_s: float = 0.0
    notes: Dict[str, object] = field(default_factory=dict)

    def note_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add_repeat(self, up_bytes, up_s, rs_bytes, rs_s) -> None:
        self.upload_rates.append(up_bytes / MIB / up_s)
        self.restore_rates.append(rs_bytes / MIB / rs_s)
        self.upload_bytes += up_bytes
        self.upload_seconds += up_s
        self.restore_bytes += rs_bytes
        self.restore_seconds += rs_s

    @property
    def upload_mib_s(self) -> float:
        return self.upload_bytes / MIB / self.upload_seconds

    @property
    def restore_mib_s(self) -> float:
        return self.restore_bytes / MIB / self.restore_seconds

    def add_space(self, before, after, logical: int) -> None:
        """Space cost of one repeat's measured uploads."""
        self.stored_ratios.append(
            (after["srv:unique_bytes"] - before["srv:unique_bytes"]) / logical
        )
        self.disk_ratios.append(
            (after["disk_bytes"] - before["disk_bytes"]) / logical
        )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _add_delta(total: Dict[str, float], before, after) -> None:
    for name, value in after.items():
        total[name] = total.get(name, 0.0) + value - before.get(name, 0.0)


def _recipe_kld(dep, names: Dict[str, List[str]]) -> Tuple[float, int]:
    """KLD of every ciphertext-fingerprint reference in the recipes."""
    references: List[bytes] = []
    for tenant, tenant_names in names.items():
        transport = dep.recipe_transport(tenant)
        key = deploy.tenant_master_key(tenant)
        for name in tenant_names:
            sealed = transport.get_recipes(GetRecipes(file_name=name))
            recipe = FileRecipe.deserialize(
                unseal(key, sealed.sealed_file_recipe)
            )
            references.extend(fp for fp, _ in recipe.entries)
    return kld_from_observations(references), len(references)


def _chunk_store_digest(root: Path) -> str:
    """SHA-256 over the containers' and the index's files.

    Recipes are left out: ``seal`` draws a fresh nonce per upload, so
    their stored bytes differ between two runs of the same inputs.
    """
    h = hashlib.sha256()
    files = [
        p
        for sub in ("containers", "index")
        for p in (root / sub).rglob("*")
        if p.is_file()
    ]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _timed_op(result, recorder, shared, kind, nbytes, fn) -> bool:
    """Run one op, record its sample; returns whether it succeeded."""
    if recorder is not None:
        recorder.begin_op(shared)
    start = time.perf_counter()
    try:
        ok = fn()
        error = None if ok else "restored bytes differ from the payload"
    except Exception as exc:  # an op failure is a result, not a crash
        ok, error = False, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    covered = recorder.end_op(start, end) if recorder is not None else 0.0
    result.samples.append(Sample(kind, start, end, nbytes, ok, covered))
    result.attempted += 1
    if not ok:
        result.note_failure(f"{kind}: {error}")
    return ok


# -- backup -------------------------------------------------------------------


def _warm_up(client, name: str, seed: int) -> None:
    data = random.Random(f"perfbench-warmup:{seed}:{name}").randbytes(
        WARMUP_BYTES
    )
    client.upload(name, data)
    if client.download(name) != data:
        raise RuntimeError("warm-up restore differs from its payload")


def run_backup(
    ctx: Context,
    seconds: float,
    traced: bool,
    rounds: Optional[int] = None,
) -> PassResult:
    """Rounds of: fresh store, upload the version chain, restore it all.

    Rounds repeat until ``seconds`` of upload+restore time are measured,
    or exactly ``rounds`` times. Every round stores the same bytes (one
    client, seeded key manager), so the last round's store also serves
    the reopen check.
    """
    chain = ctx.chain()
    expected = [[inputs.digest(f) for f in version] for version in chain]
    names = [
        [f"v{v:02d}/f{i:03d}" for i in range(len(version))]
        for v, version in enumerate(chain)
    ]
    flat = [name for version in names for name in version]
    logical = sum(len(data) for version in chain for data in version)
    result = PassResult()
    recorder = layers.Recorder() if traced else None
    result.recorder = recorder
    while True:
        start = time.perf_counter()
        dep = deploy.BackupDeployment(
            ctx.fresh_dir("backup"), ctx.seed, recorder
        )
        try:
            _warm_up(dep.client, "warmup", ctx.seed)
            result.setups.append(time.perf_counter() - start)
            before = dep.counters()
            restored = _backup_round(result, dep, chain, names, expected)
            after = dep.counters()
            _add_delta(result.delta, before, after)
            result.add_space(before, after, logical)
            kld, result.kld_references = _recipe_kld(
                dep, {DEFAULT_TENANT: flat}
            )
            result.klds.append(kld)
            last = (
                len(result.upload_rates) >= rounds
                if rounds is not None
                else result.measured_s >= seconds
            )
            if last:
                result.restored_digest = hashlib.sha256(
                    b"".join(restored)
                ).hexdigest()
                _reopen_check(ctx, dep, result, names, expected)
        finally:
            dep.close()
            shutil.rmtree(dep.root, ignore_errors=True)
        if last:
            return result


def _backup_round(result, dep, chain, names, expected) -> List[bytes]:
    """One measured round; returns the restored files' digests."""
    client, recorder = dep.client, dep.recorder
    if recorder is not None:
        recorder.paused = False
    logical = 0
    up_start = time.perf_counter()
    for version, files in enumerate(chain):
        for name, data in zip(names[version], files):
            _timed_op(
                result, recorder, True, "upload", len(data),
                lambda n=name, d=data: client.upload(n, d) is not None,
            )
            logical += len(data)
    dep.flush()
    up_s = time.perf_counter() - up_start
    restored: List[bytes] = []
    rs_start = time.perf_counter()
    for version, files in enumerate(chain):
        for name, want, data in zip(names[version], expected[version], files):
            def restore(n=name, w=want):
                digest = inputs.digest(client.download(n))
                restored.append(digest)
                return digest == w

            _timed_op(result, recorder, True, "restore", len(data), restore)
    rs_s = time.perf_counter() - rs_start
    if recorder is not None:
        recorder.paused = True
    result.add_repeat(logical, up_s, logical, rs_s)
    result.measured_s += up_s + rs_s
    return restored


def _reopen_check(ctx, dep, result, names, expected) -> None:
    """Acked data must survive a provider restart: close, reopen, restore
    a seeded quarter of the files and verify them."""
    client = dep.reopen()
    result.store_digest = _chunk_store_digest(dep.root)
    rng = random.Random(f"perfbench-reopen:{ctx.seed}")
    pairs = [
        (name, want)
        for version_names, version_digests in zip(names, expected)
        for name, want in zip(version_names, version_digests)
    ]
    checked = rng.sample(pairs, max(1, len(pairs) // 4))
    for name, want in checked:
        result.attempted += 1
        try:
            ok = inputs.digest(client.download(name)) == want
            error = f"reopen: restore of {name} differs from its payload"
        except Exception as exc:  # counted, reported, never fatal
            ok, error = False, f"reopen: {type(exc).__name__}: {exc}"
        if not ok:
            result.note_failure(error)
    result.notes["reopen_checked"] = len(checked)


# -- small files --------------------------------------------------------------


def _build_smallfile(ctx, fleet: bool, recorder):
    tenants = ctx.smallfile.tenants
    if fleet:
        root = ctx.fresh_dir("fleet")
        return deploy.FleetDeployment(root, recorder, tenants, ctx.src)
    root = ctx.fresh_dir("shard3")
    return deploy.ShardDeployment(root, ctx.seed, recorder, tenants)


def run_smallfile(
    ctx: Context,
    seconds: float,
    traced: bool,
    fleet: bool,
    builds: Optional[int] = None,
) -> PassResult:
    """Closed-loop small-file traffic, a fixed number of ops per build.

    Each build of the deployment is timed as a set-up and serves
    ``ctx.smallfile.ops`` ops of its own traffic stream of the seed
    (stream 0, 1, 2, ...). Builds repeat until ``seconds`` of loop time
    are measured and at least ``MIN_BUILDS`` ran, or exactly ``builds``
    times. A build's work is fixed, so its stored bytes and KLD depend
    on the seed and stream alone, never on how fast the host ran.
    """
    result = PassResult()
    recorder = layers.Recorder() if traced else None
    result.recorder = recorder
    stream = 0
    while True:
        start = time.perf_counter()
        dep = _build_smallfile(ctx, fleet, recorder)
        try:
            for thread, clients in enumerate(dep.by_thread):
                for tenant, client in clients.items():
                    _warm_up(client, f"warmup/{thread}/{tenant}", ctx.seed)
            result.setups.append(time.perf_counter() - start)
            _loop(ctx, dep, result, recorder, stream)
        finally:
            dep.close()
            shutil.rmtree(dep.root, ignore_errors=True)
        stream += 1
        if builds is not None:
            if stream >= builds:
                return result
        elif stream >= MIN_BUILDS and result.measured_s >= seconds:
            return result


def _loop(ctx, dep, result, recorder, stream) -> None:
    traffic = inputs.SmallFileTraffic(ctx.seed, ctx.smallfile, stream)
    scripts = [traffic.script(t) for t in range(len(dep.by_thread))]
    ops_per_thread = ctx.smallfile.ops // len(scripts)
    uploaded: Dict[str, List[str]] = defaultdict(list)
    lock = threading.Lock()
    before = dep.counters()
    if recorder is not None:
        recorder.paused = False
    start = time.perf_counter()
    loop = PassResult()

    def worker(thread: int) -> None:
        script, clients = scripts[thread], dep.by_thread[thread]
        local = PassResult()
        for _ in range(ops_per_thread):
            op = script.next_op()
            client = clients[op.tenant]
            if op.kind == "upload":
                ok = _timed_op(
                    local, recorder, False, "upload", len(op.data),
                    lambda: client.upload(op.name, op.data) is not None,
                )
                if ok:
                    script.acknowledge(op)
                    with lock:
                        uploaded[op.tenant].append(op.name)
            else:
                restored = []

                def restore():
                    data = client.download(op.name)
                    restored.append(len(data))
                    return inputs.digest(data) == op.expected

                _timed_op(local, recorder, False, "restore", 0, restore)
                local.samples[-1].nbytes = restored[0] if restored else 0
        with lock:
            loop.samples.extend(local.samples)
            loop.attempted += local.attempted
            loop.failed += local.failed
            loop.errors.extend(local.errors)

    threads = [
        threading.Thread(target=worker, args=(t,), name=f"bench-client-{t}")
        for t in range(len(scripts))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.paused = True
    after = dep.counters()
    _add_delta(result.delta, before, after)

    def moved(kind: str) -> int:
        return sum(s.nbytes for s in loop.samples if s.kind == kind and s.ok)

    result.add_repeat(moved("upload"), elapsed, moved("restore"), elapsed)
    result.measured_s += elapsed
    result.add_space(before, after, moved("upload"))
    kld, result.kld_references = _recipe_kld(dep, uploaded)
    result.klds.append(kld)
    result.samples.extend(loop.samples)
    result.attempted += loop.attempted
    result.failed += loop.failed
    result.errors.extend(loop.errors[: 5 - len(result.errors)])
