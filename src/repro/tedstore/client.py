"""TEDStore client: chunk, fingerprint, hash, key-gen, encrypt, upload.

The client implements the full upload/download pipeline of Figure 1:

1. **Chunking** — content-defined chunking of the file data (§4).
2. **Fingerprinting** — cryptographic hash of each plaintext chunk.
3. **Hashing** — one MurmurHash3 per chunk, split into ``r`` short hashes.
4. **Key seeding** — short hashes go to the key manager in batches
   (default 48,000 per batch, §3.5); seeds come back.
5. **Key derivation** — ``K = H(seed || P)`` (Eq. 4), client-side.
6. **Encryption** — deterministic symmetric encryption of each chunk.
7. **Write** — ciphertext chunks (keyed by *ciphertext* fingerprint) are
   uploaded in batches; the provider deduplicates.

The client also builds the file recipe (ciphertext fingerprints + sizes)
and the key recipe (per-chunk keys), seals both under its master key, and
uploads them (§2.2). Every step is attributed to a
:class:`~repro.utils.timer.StageTimer` using the paper's step names so
Experiments B.1/B.4 can report the same breakdown tables.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.core.keygen import derive_key
from repro.crypto.cipher import SECURE, CipherProfile, get_profile
from repro.crypto.hashes import digest
from repro.crypto.murmur3 import short_hashes
from repro.obs import metrics as obs_metrics, tracing
from repro.storage.dedup import FingerprintCache
from repro.storage.recipe import FileRecipe, KeyRecipe, seal, unseal
from repro.tedstore.messages import (
    GetChunks,
    GetRecipes,
    KeyGenRequest,
    PutChunks,
    PutRecipes,
)
from repro.tedstore.transports import KeyManagerTransport, ProviderTransport
from repro.utils.timer import StageTimer

DEFAULT_BATCH_SIZE = 48_000

_REGISTRY = obs_metrics.get_registry()
_CLIENT_OPS = _REGISTRY.counter(
    "ted_client_operations_total",
    "Completed client file operations",
    labelnames=("op",),
)
_CLIENT_BYTES = _REGISTRY.counter(
    "ted_client_bytes_total",
    "Logical bytes moved by the client",
    labelnames=("op",),
)
_CLIENT_CHUNKS = _REGISTRY.counter(
    "ted_client_chunks_total",
    "Chunks moved by the client",
    labelnames=("op",),
)
_PIPELINE_CHUNKS = _REGISTRY.counter(
    "ted_pipeline_chunks_total",
    "Chunks through the client's batch loop, by path taken",
    labelnames=("path",),
)


def _encrypt_pairs(
    profile: CipherProfile, jobs: Sequence[Tuple[bytes, bytes]]
) -> List[Tuple[bytes, bytes]]:
    """``(cipher_fp, ciphertext)`` per ``(key, chunk)``, in order."""
    algorithm = profile.hash_algorithm
    out = []
    for key, chunk in jobs:
        ciphertext = profile.encrypt(key, chunk)
        out.append((digest(ciphertext, algorithm), ciphertext))
    return out


def _mp_encrypt_job(
    profile_name: str, jobs: Sequence[Tuple[bytes, bytes]]
) -> List[Tuple[bytes, bytes]]:
    """:func:`_encrypt_pairs` in a pool process.

    Module-level so it pickles; resolves the profile by name in the
    child. Encryption is deterministic in (profile, key, chunk), so the
    result is byte-identical to in-process encryption.
    """
    return _encrypt_pairs(get_profile(profile_name), jobs)


@dataclass
class UploadResult:
    """Outcome of one file upload.

    ``duplicate_chunks`` counts every chunk that did not create new
    physical storage, whether the provider detected the duplicate or the
    client's fingerprint cache short-circuited the upload entirely;
    ``cache_hits`` is the subset resolved client-side, so
    ``stored_chunks + duplicate_chunks == chunk_count`` holds with or
    without the cache.
    """

    file_name: str
    logical_bytes: int
    chunk_count: int
    stored_chunks: int
    duplicate_chunks: int
    cache_hits: int = 0


class TedStoreClient:
    """One TEDStore client (one user of the organization).

    Uploads and downloads run one batch loop (DESIGN.md §§10–11): each
    ``batch_size`` slice of chunks goes through every step of Figure 1
    before the next slice starts, so keygen requests reach the key
    manager in chunk order and PUT batches land in the same order on
    every run.

    Args:
        key_manager: transport to the key manager.
        provider: transport to the provider.
        master_key: per-client master key protecting recipes.
        profile: cipher/hash profile ("secure", "fast", or "shactr").
        sketch_rows / sketch_width: must match the key manager's sketch
            geometry — the client computes the short hashes (§3.3).
        batch_size: chunks per key-generation round trip and per PUT
            batch (§3.5).
        chunker: content-defined chunker (paper defaults 4/8/16 KB).
        timer: optional stage timer; a fresh one is created if omitted.
        workers: encrypt processes. With ``workers > 1`` each batch's
            chunks are encrypted in a pool of this many OS processes,
            sidestepping the GIL for CPU-bound profiles; stored bytes
            are identical because encryption is a pure function of
            (profile, key, chunk) (DESIGN.md §16). ``1`` encrypts in
            the calling thread.
        fingerprint_cache: optional client-side
            :class:`~repro.storage.dedup.FingerprintCache`; hits, and
            repeats of a (fingerprint, seed) pair already seen in the
            same upload, skip encryption and upload (DESIGN.md §10).
    """

    def __init__(
        self,
        key_manager: KeyManagerTransport,
        provider: ProviderTransport,
        master_key: bytes = b"\x01" * 32,
        profile: CipherProfile = SECURE,
        sketch_rows: int = 4,
        sketch_width: int = 2**21,
        batch_size: int = DEFAULT_BATCH_SIZE,
        chunker: Optional[ContentDefinedChunker] = None,
        timer: Optional[StageTimer] = None,
        metadata_dedup: bool = False,
        metadata_entries_per_chunk: int = 128,
        workers: int = 1,
        fingerprint_cache: Optional[FingerprintCache] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.key_manager = key_manager
        self.provider = provider
        self.master_key = master_key
        self.profile = profile
        self.sketch_rows = sketch_rows
        self.sketch_width = sketch_width
        self.batch_size = batch_size
        self.chunker = chunker or ContentDefinedChunker(ChunkerParams())
        self.timer = timer or StageTimer()
        # Metadata deduplication (Metadedup-style, DESIGN.md §6): recipes
        # are split into content-keyed metadata chunks that ride the normal
        # chunk path and deduplicate across snapshots; only a compact meta
        # recipe stays sealed per file.
        self.metadata_dedup = metadata_dedup
        self.metadata_entries_per_chunk = metadata_entries_per_chunk
        self.workers = workers
        self.fingerprint_cache = fingerprint_cache

    # -- upload ---------------------------------------------------------------

    def upload(self, file_name: str, data: bytes) -> UploadResult:
        """Chunk and upload a file's raw bytes."""
        with self.timer.stage("chunking"):
            chunks = list(self.chunker.chunk(data))
        return self._upload_chunks(file_name, chunks)

    def upload_chunks(
        self, file_name: str, chunks: Sequence[bytes]
    ) -> UploadResult:
        """Upload pre-chunked data (the trace-replay path, §5.3.2)."""
        return self._upload_chunks(file_name, chunks)

    def _upload_chunks(
        self, file_name: str, chunks: Sequence[bytes]
    ) -> UploadResult:
        with tracing.get_tracer().span(
            "client.upload",
            attributes={"file": file_name, "chunks": len(chunks)},
        ):
            if self.workers > 1:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    result = self._upload_chunks_inner(
                        file_name, chunks, pool
                    )
            else:
                result = self._upload_chunks_inner(file_name, chunks)
        _CLIENT_OPS.labels(op="upload").inc()
        _CLIENT_BYTES.labels(op="upload").inc(result.logical_bytes)
        _CLIENT_CHUNKS.labels(op="upload").inc(result.chunk_count)
        return result

    def _upload_chunks_inner(
        self,
        file_name: str,
        chunks: Sequence[bytes],
        pool: Optional[ProcessPoolExecutor] = None,
    ) -> UploadResult:
        algorithm = self.profile.hash_algorithm
        cache = self.fingerprint_cache
        if cache is not None:
            # A reshard moves fingerprint ownership between provider
            # shards; cached "duplicate" verdicts from the old placement
            # must not suppress uploads under the new one. The provider
            # advertises its ring epoch; any advance drops the cache.
            ring_epoch = getattr(self.provider, "ring_epoch", None)
            if callable(ring_epoch):
                cache.advance_epoch(ring_epoch())
        file_recipe = FileRecipe(file_name=file_name)
        key_recipe = KeyRecipe()
        stored = 0
        duplicates = 0
        cache_hits = 0
        logical = 0
        # Ciphertext fingerprint of every chunk so far, and (cache on
        # only) the position of each (fingerprint, seed) pair's first
        # occurrence: a repeat copies the first one's ciphertext
        # fingerprint instead of being encrypted and PUT again.
        cipher_fps: List[Optional[bytes]] = []
        first_seen: Dict[bytes, int] = {}

        for start in range(0, len(chunks), self.batch_size):
            batch = chunks[start : start + self.batch_size]

            with self.timer.stage("fingerprinting"):
                fingerprints = [digest(c, algorithm) for c in batch]

            # Short hashes are computed over the chunk *fingerprint* rather
            # than the raw chunk: the client has just computed the
            # fingerprint anyway, the counter mapping is statistically
            # identical, and it keeps the MurmurHash pass off the
            # full-data path (the C++ prototype murmurs whole chunks
            # because Murmur is nearly free there; in Python it is not).
            with self.timer.stage("hashing"):
                hash_vectors = [
                    short_hashes(fp, self.sketch_rows, self.sketch_width)
                    for fp in fingerprints
                ]

            with self.timer.stage("key seeding"):
                seeds = self.key_manager.keygen(
                    KeyGenRequest(hash_vectors=hash_vectors)
                ).seeds
            if len(seeds) != len(batch):
                raise RuntimeError(
                    "key manager returned a mismatched seed batch"
                )

            with self.timer.stage("key derivation"):
                keys = [
                    derive_key(seed, fp, algorithm)
                    for seed, fp in zip(seeds, fingerprints)
                ]

            misses: List[int] = []  # batch offsets to encrypt and PUT
            aliases: List[Tuple[int, int]] = []  # (position, first)
            for offset, (fp, seed) in enumerate(zip(fingerprints, seeds)):
                cipher_fps.append(None)
                if cache is None:
                    misses.append(offset)
                    continue
                cached = cache.lookup(fp, seed)
                if cached is not None:
                    cipher_fps[-1] = cached
                    cache_hits += 1
                    continue
                position = start + offset
                first = first_seen.setdefault(
                    FingerprintCache.key(fp, seed), position
                )
                if first == position:
                    misses.append(offset)
                else:
                    aliases.append((position, first))
            if cache is not None:
                _PIPELINE_CHUNKS.labels(path="cache_hit").inc(
                    len(batch) - len(misses) - len(aliases)
                )
                _PIPELINE_CHUNKS.labels(path="inflight_dup").inc(
                    len(aliases)
                )

            with self.timer.stage("encryption"):
                encrypted = self._encrypt(
                    [(keys[i], batch[i]) for i in misses], pool
                )
            _PIPELINE_CHUNKS.labels(path="encrypted").inc(len(misses))
            for offset, (cipher_fp, _) in zip(misses, encrypted):
                cipher_fps[start + offset] = cipher_fp
            # A pair's first occurrence always precedes its repeats.
            for position, first in aliases:
                cipher_fps[position] = cipher_fps[first]

            if encrypted:
                with self.timer.stage("write"):
                    result = self.provider.put_chunks(
                        PutChunks(chunks=encrypted)
                    )
                stored += result.stored
                duplicates += result.duplicates
            if cache is not None:
                # Coherence rule: insert only after the provider
                # acknowledged the batch (DESIGN.md §10).
                for offset, (cipher_fp, _) in zip(misses, encrypted):
                    cache.insert(
                        fingerprints[offset], seeds[offset], cipher_fp
                    )
            # Cache hits and repeats create no physical storage.
            duplicates += len(batch) - len(misses)

            for offset, (chunk, key) in enumerate(zip(batch, keys)):
                file_recipe.add(cipher_fps[start + offset], len(chunk))
                key_recipe.add(key)
                logical += len(chunk)

        with self.timer.stage("write"):
            self._put_recipes(file_name, file_recipe, key_recipe)
        return UploadResult(
            file_name=file_name,
            logical_bytes=logical,
            chunk_count=len(chunks),
            stored_chunks=stored,
            duplicate_chunks=duplicates,
            cache_hits=cache_hits,
        )

    def _encrypt(
        self,
        jobs: List[Tuple[bytes, bytes]],
        pool: Optional[ProcessPoolExecutor],
    ) -> List[Tuple[bytes, bytes]]:
        """:func:`_encrypt_pairs`, in ``pool`` when one is given."""
        if pool is None:
            return _encrypt_pairs(self.profile, jobs)
        # Contiguous slices, one per process; ``map`` keeps their order.
        size = max(32, -(-len(jobs) // self.workers))
        slices = [jobs[i : i + size] for i in range(0, len(jobs), size)]
        return [
            pair
            for part in pool.map(
                _mp_encrypt_job, [self.profile.name] * len(slices), slices
            )
            for pair in part
        ]

    def _put_recipes(
        self,
        file_name: str,
        file_recipe: FileRecipe,
        key_recipe: KeyRecipe,
    ) -> None:
        """Seal and upload a file's recipes (either storage layout)."""
        if self.metadata_dedup:
            from repro.storage.metadedup import pack_metadata_chunks

            meta_chunks, meta_plain = pack_metadata_chunks(
                file_recipe,
                key_recipe,
                self.metadata_entries_per_chunk,
            )
            if meta_chunks:
                self.provider.put_chunks(PutChunks(chunks=meta_chunks))
            # An empty sealed key recipe marks the metadata-dedup
            # layout; the file slot carries the sealed meta recipe.
            self.provider.put_recipes(
                PutRecipes(
                    file_name=file_name,
                    sealed_file_recipe=seal(self.master_key, meta_plain),
                    sealed_key_recipe=b"",
                )
            )
        else:
            self.provider.put_recipes(
                PutRecipes(
                    file_name=file_name,
                    sealed_file_recipe=seal(
                        self.master_key, file_recipe.serialize()
                    ),
                    sealed_key_recipe=seal(
                        self.master_key, key_recipe.serialize()
                    ),
                )
            )

    # -- observability ----------------------------------------------------------

    def transport_stats(self) -> dict:
        """Counters from both transports, keyed by entity.

        Over TCP this includes the wire-robustness counters — client-side
        ``client_retries`` / ``client_reconnects`` / ``client_timeouts``
        and the server-side ``server_*`` guards — so tests and operators
        can see recoveries that the request/response API papers over.

        Transports without their own ``stats()`` (e.g. in-process local
        transports) fall back to a snapshot of the process-global metrics
        registry, tagged with the transport class name — never a silent
        empty dict, so misconfigured wiring stays visible.
        """
        stats = {}
        for name, transport in (
            ("key_manager", self.key_manager),
            ("provider", self.provider),
        ):
            getter = getattr(transport, "stats", None)
            if getter is not None:
                entry = dict(getter())
            else:
                entry = dict(_REGISTRY.snapshot_pairs())
            entry["transport"] = type(transport).__name__
            stats[name] = entry
        return stats

    # -- download ----------------------------------------------------------------

    def download(self, file_name: str) -> bytes:
        """Fetch, decrypt, and reassemble a file.

        Raises:
            FileNotFoundError: no such file in this tenant's namespace
                (typed ``MSG_NOT_FOUND`` reply over the wire; never
                retried).
            KeyError: a recipe names a chunk the provider does not hold.
            ValueError: recipe authentication failure (wrong master key or
                tampering), or a chunk that decrypts to the wrong size.
        """
        with tracing.get_tracer().span(
            "client.download", attributes={"file": file_name}
        ):
            data = self._download_inner(file_name)
        _CLIENT_OPS.labels(op="download").inc()
        _CLIENT_BYTES.labels(op="download").inc(len(data))
        return data

    def _get_chunks_checked(
        self, fingerprints: Sequence[bytes]
    ) -> List[bytes]:
        """One ``GetChunks`` round trip, reply length verified.

        A short reply would otherwise be silently swallowed by ``zip``
        downstream, truncating the restored file with no error.
        """
        chunks = self.provider.get_chunks(
            GetChunks(fingerprints=list(fingerprints))
        ).chunks
        if len(chunks) != len(fingerprints):
            raise ValueError(
                f"provider returned {len(chunks)} chunks for a request "
                f"of {len(fingerprints)}"
            )
        return chunks

    def _fetch_recipes(
        self, file_name: str
    ) -> Tuple[FileRecipe, KeyRecipe]:
        """Fetch and unseal a file's recipes (either storage layout)."""
        recipes = self.provider.get_recipes(
            GetRecipes(file_name=file_name)
        )
        if not recipes.sealed_key_recipe:
            # Metadata-dedup layout: the file slot holds a meta recipe
            # whose metadata chunks live on the normal chunk path.
            from repro.storage.metadedup import unpack_metadata_chunks

            meta_plain = unseal(
                self.master_key, recipes.sealed_file_recipe
            )
            file_recipe, key_recipe = unpack_metadata_chunks(
                meta_plain, fetch=self._get_chunks_checked
            )
        else:
            file_recipe = FileRecipe.deserialize(
                unseal(self.master_key, recipes.sealed_file_recipe)
            )
            key_recipe = KeyRecipe.deserialize(
                unseal(self.master_key, recipes.sealed_key_recipe)
            )
        if len(file_recipe.entries) != len(key_recipe.keys):
            raise ValueError(
                "file and key recipes disagree on chunk count"
            )
        return file_recipe, key_recipe

    def _download_inner(self, file_name: str) -> bytes:
        with self.timer.stage("recipe fetch"):
            file_recipe, key_recipe = self._fetch_recipes(file_name)

        pieces: List[bytes] = []
        # Plaintext per (ciphertext fingerprint, key) pair restored so
        # far: deduplicated data repeats chunks, and each repeat is
        # copied instead of fetched and decrypted again. Keying on the
        # pair, not the fingerprint alone, means a repeat can never
        # change output.
        plaintexts: Dict[bytes, bytes] = {}
        entries = file_recipe.entries
        keys = key_recipe.keys
        for start in range(0, len(entries), self.batch_size):
            batch_entries = entries[start : start + self.batch_size]
            batch_keys = keys[start : start + self.batch_size]
            pairs = [
                fp + b"\x00" + key
                for (fp, _), key in zip(batch_entries, batch_keys)
            ]
            want = list(
                dict.fromkeys(
                    fp
                    for (fp, _), pair in zip(batch_entries, pairs)
                    if pair not in plaintexts
                )
            )
            fetched: Dict[bytes, bytes] = {}
            if want:
                with self.timer.stage("chunk fetch"):
                    fetched = dict(
                        zip(want, self._get_chunks_checked(want))
                    )
            _CLIENT_CHUNKS.labels(op="download").inc(len(batch_entries))
            _PIPELINE_CHUNKS.labels(path="fetched").inc(len(want))
            decrypted = 0
            with self.timer.stage("decryption"):
                for (fp, size), key, pair in zip(
                    batch_entries, batch_keys, pairs
                ):
                    plaintext = plaintexts.get(pair)
                    if plaintext is None:
                        plaintext = self.profile.decrypt(key, fetched[fp])
                        plaintexts[pair] = plaintext
                        decrypted += 1
                    if len(plaintext) != size:
                        raise ValueError(
                            f"chunk {fp.hex()} decrypted to {len(plaintext)} "
                            f"bytes, expected {size}"
                        )
                    pieces.append(plaintext)
            _PIPELINE_CHUNKS.labels(path="decrypted").inc(decrypted)
            _PIPELINE_CHUNKS.labels(path="restore_alias").inc(
                len(batch_entries) - decrypted
            )
        return b"".join(pieces)

    # -- key generation only (Experiment B.2) -------------------------------------

    def generate_keys_only(
        self, chunks: Iterable[bytes]
    ) -> List[Tuple[bytes, bytes]]:
        """Run only the key-generation pipeline: hash → seed → derive.

        Returns per-chunk ``(fingerprint, key)`` pairs. This isolates the
        steps Experiment B.2 measures (hashing + key seeding + key
        derivation) from chunk encryption and upload.
        """
        algorithm = self.profile.hash_algorithm
        chunk_list = list(chunks)
        output: List[Tuple[bytes, bytes]] = []
        for start in range(0, len(chunk_list), self.batch_size):
            batch = chunk_list[start : start + self.batch_size]
            fingerprints = [digest(c, algorithm) for c in batch]
            hash_vectors = [
                short_hashes(fp, self.sketch_rows, self.sketch_width)
                for fp in fingerprints
            ]
            response = self.key_manager.keygen(
                KeyGenRequest(hash_vectors=hash_vectors)
            )
            output.extend(
                (fp, derive_key(seed, fp, algorithm))
                for seed, fp in zip(response.seeds, fingerprints)
            )
        return output
