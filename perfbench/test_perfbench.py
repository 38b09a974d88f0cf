"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import deploy  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_BACKUP = inputs.BackupShape(
    files=4, units_per_file=4, copies=1, versions=3
)


def _ctx(tmp_path: Path, seed: int = 5) -> workloads.Context:
    return workloads.Context(
        seed=seed, workdir=tmp_path, src=ROOT / "src", backup=TINY_BACKUP
    )


SPEC = run.load_spec(ROOT / "BENCHMARK.json")


def _first_ops(seed: int, thread: int, stream: int = 0, count=60) -> str:
    """Hash of the first ``count`` ops one thread's script yields."""
    traffic = inputs.SmallFileTraffic(seed, inputs.SmallFileShape(), stream)
    script = traffic.script(thread)
    h = hashlib.sha256()
    for _ in range(count):
        op = script.next_op()
        if op.kind == "upload":
            script.acknowledge(op)
        h.update(f"{op.kind}|{op.tenant}|{op.name}|".encode() + op.expected)
    return h.hexdigest()


def test_generators_are_deterministic_per_seed_and_differ_across_seeds():
    assert inputs.backup_chain(1, TINY_BACKUP) == inputs.backup_chain(
        1, TINY_BACKUP
    )
    assert inputs.backup_chain(1, TINY_BACKUP) != inputs.backup_chain(
        2, TINY_BACKUP
    )
    assert _first_ops(1, 0) == _first_ops(1, 0)
    assert _first_ops(1, 0) != _first_ops(2, 0)
    assert _first_ops(1, 0) != _first_ops(1, 1)
    assert _first_ops(1, 0, stream=0) != _first_ops(1, 0, stream=1)


def test_backup_versions_share_most_content():
    chain = inputs.backup_chain(3, inputs.BackupShape())
    first, second = b"".join(chain[0]), b"".join(chain[1])
    same = sum(
        first[i : i + inputs.UNIT] == second[i : i + inputs.UNIT]
        for i in range(0, len(first), inputs.UNIT)
    )
    share = same / (len(first) // inputs.UNIT)
    assert 0.85 <= share <= 0.95


def test_wrappers_are_pass_through(tmp_path):
    plain = workloads.run_backup(_ctx(tmp_path), 0.1, False, rounds=1)
    traced = workloads.run_backup(_ctx(tmp_path), 0.1, True, rounds=1)
    assert plain.failed == traced.failed == 0
    assert plain.restored_digest == traced.restored_digest
    assert plain.store_digest == traced.store_digest
    assert plain.stored_ratios == traced.stored_ratios
    assert plain.klds == traced.klds
    assert traced.recorder.calls["encryption"] > 0


def test_corrupted_restore_is_counted_as_a_failure(tmp_path, monkeypatch):
    class CorruptingProvider(deploy.LocalProvider):
        corrupted = 0

        def get_chunks(self, request):
            reply = super().get_chunks(request)
            if not CorruptingProvider.corrupted and reply.chunks:
                CorruptingProvider.corrupted += 1
                first = bytearray(reply.chunks[0])
                first[0] ^= 0xFF
                reply.chunks[0] = bytes(first)
            return reply

    monkeypatch.setattr(deploy, "LocalProvider", CorruptingProvider)
    # The warm-up restore must not be the corrupted one: it would abort
    # the pass instead of counting a failed op.
    monkeypatch.setattr(workloads, "_warm_up", lambda *args: None)
    result = workloads.run_backup(_ctx(tmp_path), 0.1, False, rounds=1)
    assert CorruptingProvider.corrupted == 1
    assert result.failed == 1
    assert "differ" in result.errors[0]


def test_smallfile_traced_pass_reports_every_layer_metric(tmp_path):
    import book

    ctx = _ctx(tmp_path)
    ctx.smallfile = inputs.SmallFileShape(ops=60)
    result = workloads.run_smallfile(
        ctx, 0.5, traced=True, fleet=False, builds=1
    )
    assert result.failed == 0 and result.attempted > 0
    metrics, unavailable = book.per_layer(result, "smallfile-3shard")
    missing = set(SPEC["per_layer"]) - set(metrics) - {"trace.overhead_ratio"}
    assert not missing
    assert metrics["keymanager.calls"] > 0
    assert metrics["routing.subbatches_per_call"] >= 1.0
    assert set(unavailable) <= set(SPEC["per_layer"])


def test_backup_reports_every_end_to_end_metric(tmp_path):
    result = workloads.run_backup(_ctx(tmp_path), 0.1, False, rounds=2)
    assert not set(SPEC["end_to_end"]) - set(run.end_to_end(result))
    assert [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "backup",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("q,expected", [(50, 5), (99, 10), (100, 10)])
def test_percentile_is_nearest_rank(q, expected):
    assert workloads.percentile(list(range(1, 11)), q) == expected
