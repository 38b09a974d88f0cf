"""Container store: packing, sealing, reads, cache."""

import pytest

from repro.storage.container import ChunkLocation, ContainerStore


@pytest.fixture
def store(tmp_path):
    return ContainerStore(tmp_path, container_bytes=256, cache_containers=2)


class TestChunkLocation:
    def test_roundtrip(self):
        loc = ChunkLocation(container_id=7, offset=123456, length=8192)
        assert ChunkLocation.from_bytes(loc.to_bytes()) == loc

    def test_fixed_width(self):
        assert len(ChunkLocation(0, 0, 0).to_bytes()) == 16

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ChunkLocation.from_bytes(b"\x00" * 15)


class TestAppendRead:
    def test_roundtrip_open_container(self, store):
        loc = store.append(b"chunk-data")
        assert store.read(loc) == b"chunk-data"

    def test_open_container_read_after_later_appends(self, store):
        first = store.append(b"first")
        second = store.append(b"second")
        assert first.container_id == store.open_container_id
        assert store.read(first) == b"first"
        assert store.read(second) == b"second"
        with pytest.raises(ValueError):
            store.read(ChunkLocation(first.container_id, 0, 500))

    def test_roundtrip_after_seal(self, store):
        loc = store.append(b"chunk-data")
        store.seal()
        assert store.read(loc) == b"chunk-data"

    def test_sealing_on_capacity(self, store):
        locations = [store.append(b"x" * 100) for _ in range(5)]
        # 256-byte containers hold two 100-byte chunks each.
        assert locations[0].container_id == locations[1].container_id
        assert locations[2].container_id == locations[0].container_id + 1
        assert store.container_count() >= 2

    def test_chunk_never_spans_containers(self, store):
        store.append(b"a" * 200)
        loc = store.append(b"b" * 200)
        assert loc.offset == 0  # forced into a fresh container

    def test_rejects_oversized_chunk(self, store):
        with pytest.raises(ValueError):
            store.append(b"x" * 257)

    def test_rejects_empty_chunk(self, store):
        with pytest.raises(ValueError):
            store.append(b"")

    def test_read_unknown_container(self, store):
        with pytest.raises(KeyError):
            store.read(ChunkLocation(99, 0, 4))

    def test_read_out_of_bounds(self, store):
        store.append(b"tiny")
        store.seal()
        with pytest.raises(ValueError):
            store.read(ChunkLocation(0, 0, 500))

    def test_seal_empty_returns_none(self, store):
        assert store.seal() is None


class TestAccounting:
    def test_physical_bytes(self, store):
        store.append(b"x" * 100)
        assert store.physical_bytes() == 100
        store.seal()
        store.append(b"y" * 50)
        assert store.physical_bytes() == 150

    def test_cache_hits_counted(self, store):
        loc = store.append(b"data")
        store.seal()
        store.read(loc)
        store.read(loc)
        assert store.stats["cache_hits"] >= 1
        assert store.stats["container_reads"] == 1

    def test_cache_eviction(self, store):
        locs = []
        for i in range(6):  # 3 sealed containers with cache size 2
            locs.append(store.append(bytes([i]) * 100))
        store.seal()
        for loc in locs:
            assert store.read(loc) is not None

    def test_reopen_continues_ids(self, tmp_path):
        store = ContainerStore(tmp_path, container_bytes=64)
        store.append(b"x" * 60)
        store.seal()
        reopened = ContainerStore(tmp_path, container_bytes=64)
        loc = reopened.append(b"y" * 10)
        assert loc.container_id == 1

    def test_invalid_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            ContainerStore(tmp_path, container_bytes=0)
