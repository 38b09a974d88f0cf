"""Multiprocessing encrypt pool: byte-identical stored state.

``workers > 1`` moves encryption into a pool of OS processes
(DESIGN.md §16). Encryption is a pure function of (profile, key, chunk)
and the pool returns each batch's slices in submission order, so the
provider's on-disk state, the recipes, and the upload results must be
byte-identical to the single-process client's.
"""

import pytest

from tests.harness import differential as diff

from repro.tedstore.client import _mp_encrypt_job


@pytest.mark.parametrize("mode", ["mle", "bted", "fted"])
def test_pool_workers_match_serial(mode, tmp_path):
    files = diff.make_workload(seed=3, files=5, chunks_per_file=80)
    names = [name for name, _ in files]
    serial = diff.make_deployment(mode, tmp_path / "serial")
    pooled = diff.make_deployment(mode, tmp_path / "pooled", workers=2)
    results_serial = diff.run_workload(serial, files)
    results_pooled = diff.run_workload(pooled, files)
    serial.close()
    pooled.close()
    diff.assert_equivalent(serial, pooled, names)
    assert [r.__dict__ for r in results_serial] == [
        r.__dict__ for r in results_pooled
    ]


def test_pool_workers_with_cache(tmp_path):
    # The pool composes with the fingerprint cache (repeats + cache hits).
    files = diff.make_workload(seed=9, files=4, chunks_per_file=60)
    names = [name for name, _ in files]
    serial = diff.make_deployment("bted", tmp_path / "serial")
    combined = diff.make_deployment(
        "bted", tmp_path / "combined", workers=2, cache_capacity=4096
    )
    diff.run_workload(serial, files)
    diff.run_workload(combined, files)
    serial.close()
    combined.close()
    diff.assert_equivalent(
        serial, combined, names, ignore_offered_counters=True
    )


def test_mp_encrypt_job_matches_inline():
    # The pool entrypoint itself (callable in-process too) must produce
    # what in-process encryption produces.
    from repro.crypto.cipher import get_profile
    from repro.crypto.hashes import digest

    profile = get_profile("shactr")
    chunk = b"plaintext-chunk" * 10
    [(cipher_fp, ciphertext)] = _mp_encrypt_job(
        "shactr", [(b"k" * 32, chunk)]
    )
    expected = profile.encrypt(b"k" * 32, chunk)
    assert ciphertext == expected
    assert cipher_fp == digest(expected, profile.hash_algorithm)
