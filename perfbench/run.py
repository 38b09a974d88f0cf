"""TEDStore benchmark: run one workload once and print one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload backup --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and reports every end-to-end
metric; ``--trace 1`` runs one repeat of it twice — untraced, then
with every layer entry point wrapped — and reports the per-layer book
plus the tracing overhead. The second-to-last stdout line is a JSON report (provenance,
within-run median and quartiles of every metric, sample counts,
reconciliation rows); the last line is the result object.

Exit status: 0 when every op succeeded and every restored byte matched,
1 when any op failed or mismatched (the result still prints), 2 when
the working directory holds no TEDStore source tree (nothing prints).
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("backup", "smallfile-3shard", "smallfile-fleet")

FLUSH_POLICY = (
    "program default: KVStore sync_writes=False (WAL not fsynced per put); "
    "container seals, idalloc commits and recipe-store flushes fsynced"
)


def load_spec(path: Path) -> Dict[str, Dict[str, Dict]]:
    """``BENCHMARK.json``'s metrics, by kind and then by name."""
    spec = json.loads(path.read_text())
    return {
        kind: {entry["name"]: entry for entry in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "repeats": len(values),
    }


def _latency(samples, kind: str, q: float) -> Dict:
    """Nearest-rank percentile of one op kind, with its sample counts.

    A percentile counts as supported when at least ten samples lie
    beyond it.
    """
    import workloads

    times = [s.seconds * 1000.0 for s in samples if s.kind == kind and s.ok]
    value = workloads.percentile(times, q)
    beyond = sum(1 for t in times if t > value)
    return {
        "value": value,
        "samples": len(times),
        "samples_beyond": beyond,
        "supported": beyond >= 10,
    }


def end_to_end(result) -> Dict[str, Dict]:
    """Every end-to-end value with its within-run detail.

    Throughputs are total bytes over total measured time; their
    per-repeat (backup round, small-file loop) median and quartiles ride
    along. p90 and p99 are reported with their sample counts but are not
    gated in ``BENCHMARK.json``: see README.md.
    """
    rows: Dict[str, Dict] = {
        "upload_mib_s": {
            "value": result.upload_mib_s,
            **_quartiles(result.upload_rates),
        },
        "restore_mib_s": {
            "value": result.restore_mib_s,
            **_quartiles(result.restore_rates),
        },
    }
    for kind in ("upload", "restore"):
        for tag, q in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
            rows[f"{kind}_{tag}_ms"] = _latency(result.samples, kind, q)
    for name, values in (
        ("stored_bytes_per_logical_byte", result.stored_ratios),
        ("cipher_kld", result.klds),
        ("setup_s", result.setups),
    ):
        detail = _quartiles(values)
        rows[name] = {"value": detail["median"], **detail}
    rows["cipher_kld"]["references"] = result.kld_references
    rows["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    return rows


def _command(args: List[str], cwd: Path) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(cwd.parent))
    try:
        out = subprocess.run(
            args, cwd=cwd, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, workdir: Path, args, measured_s: float) -> Dict:
    import numpy

    tree = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        tree.update(str(path.relative_to(src)).encode() + b"\0")
        tree.update(path.read_bytes())
    return {
        "git_sha": _command(["git", "rev-parse", "HEAD"], root),
        "src_tree_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "seconds_measured": measured_s,
        "store_filesystem": _command(["stat", "-f", "-c", "%T", "."], workdir),
        "flush_policy": FLUSH_POLICY,
    }


def run_pass(ctx, workload: str, seconds: float, traced: bool, full: bool):
    """One pass; ``full`` passes repeat (rounds, builds) for medians,
    the trace-mode passes run one repeat each."""
    import workloads

    if workload == "backup":
        return workloads.run_backup(
            ctx, seconds, traced, rounds=None if full else 1
        )
    return workloads.run_smallfile(
        ctx,
        seconds,
        traced,
        fleet=workload == "smallfile-fleet",
        builds=None if full else 1,
    )


def measure(root: Path, workdir: Path, args, spec: Dict) -> tuple:
    """``(correct, attempted, failed, metrics, report)`` for one run.

    ``metrics`` holds exactly the names ``BENCHMARK.json`` lists for the
    mode: its end-to-end metrics untraced, its per-layer ones traced.
    """
    import book
    import workloads

    ctx = workloads.Context(seed=args.seed, workdir=workdir, src=root / "src")
    report: Dict = {}
    if not args.trace:
        result = run_pass(ctx, args.workload, args.seconds, False, True)
        rows = end_to_end(result)
        for name, row in rows.items():
            gated = spec["end_to_end"].get(name)
            row["unit"], row["better"] = (
                (gated["unit"], gated["better"]) if gated else ("ms", "lower")
            )
            row["gated"] = gated is not None
        metrics = {name: rows[name]["value"] for name in spec["end_to_end"]}
        report["end_to_end"] = rows
        passes = [result]
        correct = result.failed == 0
    else:
        plain = run_pass(ctx, args.workload, args.seconds, False, False)
        traced = run_pass(ctx, args.workload, args.seconds, True, False)
        metrics, unavailable = book.per_layer(traced, args.workload)
        metrics["trace.overhead_ratio"] = (
            plain.upload_mib_s / traced.upload_mib_s
        )
        passes = [plain, traced]
        correct = plain.failed == 0 and traced.failed == 0
        if args.workload == "backup":
            # Wrappers are pass-through: a traced backup must store
            # exactly what an untraced one stores.
            correct = correct and (
                plain.stored_ratios == traced.stored_ratios
                and plain.klds == traced.klds
            )
        report["traced_vs_untraced"] = {
            "stored_bytes_per_logical_byte": [
                plain.stored_ratios, traced.stored_ratios
            ],
            "cipher_kld": [plain.klds, traced.klds],
            "store_digest": [plain.store_digest, traced.store_digest],
        }
        report["per_layer_unavailable"] = unavailable
        report["reconciliation"] = book.reconciliation(traced)
        report["unattributed_by_op"] = {
            "upload": metrics["client.upload_unattributed_s"],
            "restore": metrics["client.restore_unattributed_s"],
        }
        metrics = {name: metrics[name] for name in spec["per_layer"]}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report["failed_op_ratio"] = failed / attempted if attempted else 1.0
    report["errors"] = [e for p in passes for e in p.errors][:10]
    report["notes"] = [p.notes for p in passes]
    report["provenance"] = provenance(
        root, workdir, args, sum(p.measured_s for p in passes)
    )
    report["provenance"]["repeats"] = {
        "rounds_or_builds": [len(p.upload_rates) for p in passes],
        "setups": [len(p.setups) for p in passes],
    }
    return correct, attempted, failed, metrics, report


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a TEDStore checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    spec = load_spec(root / "BENCHMARK.json")
    sys.path.insert(0, str(root / "src"))
    # A SIGTERM unwinds like an exception, so every deployment's
    # ``finally`` still stops the server processes it started.
    signal.signal(signal.SIGTERM, _terminate)
    base = root / ".perfbench_work"
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics, report = measure(
            root, workdir, args, spec
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory
    units = {
        name: entry["unit"]
        for kind in ("end_to_end", "per_layer")
        for name, entry in spec[kind].items()
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
