"""Seeded consistent-hash ring properties (DESIGN.md §15).

The ring is the correctness foundation of sharded TED, so its contract
is property-tested directly: placement must be a pure function of the
``(seed, vnodes, shards)`` config (cross-process determinism), adding a
shard may only move keys *onto* the new shard (monotonicity — what
bounds ``repro reshard`` migrations at ~1/N of the data), balance at
64 vnodes must stay within a 1.25 max/mean bound, and the serialized
``ring.json`` form must round-trip exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.tedstore.ring import (
    DEFAULT_VNODES,
    HashRing,
    load_ring,
    partition,
    scatter,
    store_ring,
)


def _keys(count: int, prefix: bytes = b"fp") -> list:
    return [prefix + str(i).encode() for i in range(count)]


# -- determinism --------------------------------------------------------------


def test_same_config_places_identically():
    a = HashRing.build(5, seed=7)
    b = HashRing(range(5), vnodes=DEFAULT_VNODES, seed=7)
    for key in _keys(500):
        assert a.shard_for_key(key) == b.shard_for_key(key)


def test_placement_is_deterministic_across_processes():
    """PYTHONHASHSEED must not affect placement (sha256, not hash())."""
    code = (
        "from repro.tedstore.ring import HashRing\n"
        "ring = HashRing.build(4, seed=3)\n"
        "print([ring.shard_for_key(b'fp%d' % i) for i in range(64)])\n"
    )
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    runs = set()
    for hashseed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src_dir, "PYTHONHASHSEED": hashseed},
        )
        runs.add(out.stdout.strip())
    assert len(runs) == 1
    local = HashRing.build(4, seed=3)
    assert runs.pop() == str(
        [local.shard_for_key(b"fp%d" % i) for i in range(64)]
    )


def test_different_seeds_place_differently():
    a, b = HashRing.build(4, seed=0), HashRing.build(4, seed=1)
    placements_a = [a.shard_for_key(k) for k in _keys(200)]
    placements_b = [b.shard_for_key(k) for k in _keys(200)]
    assert placements_a != placements_b


def test_hash_vector_routing_is_deterministic():
    ring = HashRing.build(3, seed=9)
    vector = [17, 4242, 99999, 3]
    assert ring.shard_for_hashes(vector) == ring.shard_for_hashes(
        list(vector)
    )
    assert ring.shard_for_hashes(vector) in ring.shards


# -- monotonicity -------------------------------------------------------------


@pytest.mark.parametrize("base", [2, 3, 5])
def test_adding_a_shard_moves_keys_only_onto_it(base):
    old = HashRing.build(base, seed=13)
    new = old.add_shard()
    new_id = max(new.shards)
    moved = 0
    for key in _keys(3000):
        before, after = old.shard_for_key(key), new.shard_for_key(key)
        if before != after:
            assert after == new_id, (
                f"key moved {before}->{after}, not onto new shard {new_id}"
            )
            moved += 1
    # The new shard takes roughly its fair 1/(base+1) slice.
    assert 0 < moved < 3000


def test_removing_a_shard_only_scatters_its_keys():
    old = HashRing.build(4, seed=13)
    new = old.remove_shard(2)
    for key in _keys(2000):
        before, after = old.shard_for_key(key), new.shard_for_key(key)
        if before != 2:
            assert after == before
        else:
            assert after != 2
    assert new.epoch == old.epoch + 1


def test_membership_changes_bump_epoch_and_copy():
    ring = HashRing.build(2, seed=1)
    grown = ring.add_shard()
    assert ring.epoch == 0 and grown.epoch == 1
    assert len(ring) == 2 and len(grown) == 3  # original untouched
    with pytest.raises(ValueError):
        ring.add_shard(0)
    with pytest.raises(ValueError):
        ring.remove_shard(9)
    with pytest.raises(ValueError):
        HashRing.build(1).remove_shard(0)


# -- balance ------------------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 3, 5, 8])
def test_balance_within_bound_at_10k_keys(shards):
    """max/mean <= 1.25 at 10k keys with the default 64 vnodes."""
    ring = HashRing.build(shards, seed=0)
    counts = Counter(ring.shard_for_key(k) for k in _keys(10_000))
    assert set(counts) == set(ring.shards), "a shard received no keys"
    mean = 10_000 / shards
    imbalance = max(counts.values()) / mean
    assert imbalance <= 1.25, f"imbalance {imbalance:.3f} > 1.25 bound"


# -- batch routing ------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 3, 5])
def test_partition_covers_every_position_in_shard_then_arrival_order(shards):
    ring = HashRing.build(shards, seed=3)
    keys = _keys(200)
    groups = ring.partition(keys)
    assert groups == partition([ring.shard_for_key(k) for k in keys])
    # Shards come in shard-id order, each exactly once.
    assert [shard for shard, _ in groups] == sorted(
        {ring.shard_for_key(k) for k in keys}
    )
    positions = [p for _, group in groups for p in group]
    assert sorted(positions) == list(range(len(keys)))
    for shard, group in groups:
        assert group == sorted(group)  # arrival order within a shard
        assert all(ring.shard_for_key(keys[p]) == shard for p in group)


@pytest.mark.parametrize("shards", [1, 3, 5])
def test_scatter_restores_request_order(shards):
    ring = HashRing.build(shards, seed=3)
    keys = _keys(200)
    results = [None] * len(keys)
    for _, group in ring.partition(keys):
        scatter(results, group, [keys[p].upper() for p in group])
    assert results == [k.upper() for k in keys]


def test_partition_of_an_empty_batch_is_empty():
    assert partition([]) == []
    assert HashRing.build(3).partition([]) == []


@pytest.mark.parametrize("reply_length", [2, 4])
def test_scatter_rejects_a_reply_of_the_wrong_length(reply_length):
    results = [b""] * 5
    with pytest.raises(ValueError, match="sub-batch of 3"):
        scatter(results, [0, 2, 4], [b"x"] * reply_length)
    assert results == [b""] * 5  # nothing written on a bad reply


# -- config round-trip --------------------------------------------------------


def test_json_round_trip_preserves_placement():
    ring = HashRing((0, 1, 3), vnodes=32, seed=11, epoch=4)
    clone = HashRing.from_json(ring.to_json())
    assert clone == ring
    assert clone.to_dict() == ring.to_dict()
    for key in _keys(300):
        assert clone.shard_for_key(key) == ring.shard_for_key(key)


def test_store_and_load_ring(tmp_path):
    ring = HashRing.build(3, seed=5).add_shard()
    path = tmp_path / "ring.json"
    store_ring(path, ring)
    loaded = load_ring(path)
    assert loaded == ring
    assert loaded.epoch == 1
    # Plain JSON on disk — operators can read it.
    data = json.loads(path.read_text())
    assert data["shards"] == [0, 1, 2, 3]


def test_unsupported_version_rejected():
    with pytest.raises(ValueError, match="version"):
        HashRing.from_dict(
            {"version": 99, "seed": 0, "vnodes": 64, "epoch": 0, "shards": [0]}
        )


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing([0, 0])
    with pytest.raises(ValueError):
        HashRing([0], vnodes=0)
    with pytest.raises(ValueError):
        HashRing.build(0)


# -- per-shard endpoints (multi-process deployments, DESIGN.md §17) -----------


def test_endpoints_round_trip_through_json():
    ring = HashRing.build(3).with_endpoints(
        {0: "10.0.0.1:7000", 1: "10.0.0.2:7000", 2: "10.0.0.3:7000"}
    )
    loaded = HashRing.from_json(ring.to_json())
    assert loaded.endpoints == ring.endpoints
    assert loaded.endpoint_for(1) == "10.0.0.2:7000"
    assert loaded.endpoint_for(9) is None


def test_endpointless_ring_serializes_byte_identically():
    """N=1-style in-process rings keep the PR 8 on-disk format."""
    ring = HashRing.build(3)
    assert "endpoints" not in json.loads(ring.to_json())
    with_eps = ring.with_endpoints({0: "h:1", 1: "h:2", 2: "h:3"})
    stripped = with_eps.with_endpoints({})
    assert stripped.to_json() == ring.to_json()


def test_equality_is_placement_only():
    """Endpoints say where shards live, never what they own."""
    bare = HashRing.build(3)
    mapped = bare.with_endpoints({0: "a:1", 1: "b:2", 2: "c:3"})
    assert bare == mapped
    assert mapped == HashRing.from_json(bare.to_json())


def test_with_endpoints_preserves_epoch_and_placement():
    ring = HashRing.build(3).add_shard()  # epoch 1
    mapped = ring.with_endpoints({s: f"h:{s}" for s in ring.shards})
    assert mapped.epoch == ring.epoch
    keys = _keys(200)
    assert [mapped.shard_for_key(k) for k in keys] == [
        ring.shard_for_key(k) for k in keys
    ]


def test_endpoints_for_unknown_shards_rejected():
    with pytest.raises(ValueError, match="not in the ring"):
        HashRing([0, 1], endpoints={5: "h:9"})


def test_membership_changes_carry_endpoints():
    ring = HashRing.build(2).with_endpoints({0: "h:1", 1: "h:2"})
    grown = ring.add_shard()
    # The new shard has no endpoint yet (the operator publishes one
    # when its process starts); the existing maps survive.
    assert grown.endpoint_for(0) == "h:1"
    assert grown.endpoint_for(2) is None
    shrunk = grown.remove_shard(1)
    assert 1 not in shrunk.endpoints
    assert shrunk.endpoint_for(0) == "h:1"


def test_store_and_load_ring_with_endpoints(tmp_path):
    path = tmp_path / "ring.json"
    ring = HashRing.build(2).with_endpoints(
        {0: "127.0.0.1:7100", 1: "127.0.0.1:7101"}
    )
    store_ring(path, ring)
    loaded = load_ring(path)
    assert loaded == ring
    assert loaded.endpoints == ring.endpoints
