"""The per-layer book: metrics of single layers from one traced pass.

Sources, in order of preference: the wrapper spans (:mod:`layers`),
the metrics registry and ``KVStore``/container ``stats`` the program
already keeps (deltas over the measured phase), and for the fleet the
servers' own ``stats()`` replies (``srv:``/``km:`` prefixed deltas).
A metric a deployment cannot observe is reported as 0 and named in the
report's ``unavailable`` list, so 0 never silently means "not measured".
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import deploy
import layers

MIB = float(1 << 20)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _total(delta: Dict[str, float], name: str, *labels: str) -> float:
    """Delta of registry counter ``name`` (children whose labels contain
    every string in ``labels``), summed over the local registry and the
    servers' ``srv:``/``km:`` replies."""
    out = 0.0
    for key, value in delta.items():
        for prefix in ("srv:", "km:"):
            if key.startswith(prefix):
                key = key[len(prefix):]
        base, _, rest = key.partition("{")
        if base == name and all(label in rest for label in labels):
            out += value
    return out


def per_layer(result, workload: str) -> Tuple[Dict[str, float], List[str]]:
    """``(metrics, unavailable)`` for one traced pass of ``workload``."""
    rec: layers.Recorder = result.recorder
    d = result.delta

    def c(name: str, *labels: str) -> float:
        return _total(d, name, *labels)

    busy, calls, items, nbytes = rec.busy, rec.calls, rec.items, rec.bytes
    uploads = [s for s in result.samples if s.kind == "upload"]
    restores = [s for s in result.samples if s.kind == "restore"]
    ops = len(result.samples)
    in_process = workload != "smallfile-fleet"
    unavailable: List[str] = []
    m: Dict[str, float] = {}

    m["chunking.busy_s"] = busy["chunking"]
    m["chunking.mib_s"] = _ratio(nbytes["chunking"] / MIB, busy["chunking"])
    m["chunking.chunks"] = items["chunking"]

    for op, step in (("encrypt", "encryption"), ("decrypt", "decryption")):
        m[f"crypto.{op}_busy_s"] = busy[step]
        m[f"crypto.{op}_mib_s"] = _ratio(nbytes[step] / MIB, busy[step])

    hits, misses = d.get("fp_cache:hits", 0.0), d.get("fp_cache:misses", 0.0)
    m["pipeline.fp_cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["pipeline.fp_cache_evictions"] = d.get("fp_cache:evictions", 0.0)

    km_calls = calls["key seeding"]
    if in_process:
        km_busy = busy["km.service"]
    else:
        km_busy = c(
            "ted_wire_server_request_seconds_sum", 'entity="keymanager"'
        )
    m["keymanager.calls"] = km_calls
    m["keymanager.busy_s"] = km_busy
    m["keymanager.wait_s"] = busy["key seeding"] - km_busy
    m["keymanager.hashes_per_call"] = _ratio(items["key seeding"], km_calls)

    provider_steps = {
        "put_chunks": "write.chunks",
        "get_chunks": "chunk fetch",
        "put_recipes": "write.recipes",
        "get_recipes": "recipe fetch",
    }
    for op, step in provider_steps.items():
        m[f"provider.{op}_busy_s"] = busy[step]
    m["provider.service_busy_s"] = (
        busy["provider.service"]
        if in_process
        else c(
            "ted_wire_server_request_seconds_sum", 'entity="provider"'
        )
    )
    provider_calls = sum(calls[step] for step in provider_steps.values())
    m["provider.calls_per_op"] = _ratio(provider_calls, ops)
    m["provider.chunks_per_put"] = _ratio(
        items["write.chunks"], calls["write.chunks"]
    )

    m["storage.store_busy_s"] = busy["storage.store"]
    m["storage.load_busy_s"] = busy["storage.load"]
    m["storage.flush_busy_s"] = busy["storage.flush"]
    if workload != "backup":
        unavailable += [
            "storage.store_busy_s",
            "storage.load_busy_s",
            "storage.flush_busy_s",
        ]
    m["storage.duplicate_share"] = _ratio(
        c("ted_dedup_duplicate_chunks_total"),
        c("ted_dedup_logical_chunks_total"),
    )
    m["storage.disk_bytes_per_logical_byte"] = statistics.median(
        result.disk_ratios
    )
    m["storage.containers_sealed"] = c(
        "ted_container_events_total", 'event="sealed"'
    )
    m["storage.wal_fsyncs"] = c("ted_wal_fsyncs_total")
    m["storage.index_flushes"] = d.get("kv:flushes", 0.0)
    m["storage.index_compactions"] = d.get("kv:compactions", 0.0)
    lookups = items["write.chunks"] + items["chunk fetch"]
    m["storage.index_table_reads_per_lookup"] = _ratio(
        d.get("kv:table_reads", 0.0), lookups
    )
    if not in_process:
        unavailable += [
            "storage.index_flushes",
            "storage.index_compactions",
            "storage.index_table_reads_per_lookup",
        ]
    m["storage.container_reads_per_restored_chunk"] = _ratio(
        c("ted_container_events_total", 'event="read"'),
        items["chunk fetch"],
    )

    km_batches = c("ted_shard_routed_batches_total", 'side="km"')
    if km_batches:
        m["routing.subbatches_per_call"] = _ratio(km_batches, km_calls)
        keys = [
            c(
                "ted_shard_routed_keys_total", 'side="km"', f'shard="{k}"'
            )
            for k in range(deploy.SHARDS)
        ]
        m["routing.shard_imbalance"] = _ratio(
            max(keys), sum(keys) / deploy.SHARDS
        )
    else:  # one key manager: every call is one unsplit batch
        m["routing.subbatches_per_call"] = 1.0 if km_calls else 0.0
        m["routing.shard_imbalance"] = 1.0

    client_s = c("ted_wire_client_call_seconds_sum")
    server_s = c("ted_wire_server_request_seconds_sum")
    m["network.client_call_s"] = client_s
    m["network.server_request_s"] = server_s
    m["network.wire_s"] = client_s - server_s
    m["network.round_trips_per_op"] = _ratio(
        c("ted_wire_client_events_total", 'event="calls"'), ops
    )
    m["network.retries"] = c(
        "ted_wire_client_events_total", 'event="retries"'
    )
    m["network.reconnects"] = c(
        "ted_wire_client_events_total", 'event="reconnects"'
    )

    wall = sum(s.seconds for s in result.samples)
    unattributed = {
        kind: sum(s.seconds - s.covered for s in samples)
        for kind, samples in (("upload", uploads), ("restore", restores))
    }
    m["client.unattributed_s"] = sum(unattributed.values())
    m["client.unattributed_share"] = _ratio(m["client.unattributed_s"], wall)
    m["client.upload_unattributed_s"] = unattributed["upload"]
    m["client.restore_unattributed_s"] = unattributed["restore"]
    return m, unavailable


def reconciliation(result) -> Dict[str, Dict[str, float]]:
    """Wrapper busy time vs the client's own StageTimer, per paper step."""
    wrappers = layers.step_totals(result.recorder)
    return {
        step: {
            "wrapper_s": wrappers[step],
            "client_stage_timer_s": result.delta.get(f"timer:{step}", 0.0),
        }
        for step in layers.PAPER_STEPS
    }
