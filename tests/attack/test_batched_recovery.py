"""Batched post-hit recovery equals its per-window oracle.

Per-group recovery expands every ballot of an escalation step in one
word-level :func:`batch_expand_from_window` call, ranks masters without
per-row dicts, region-confirms each master once per group, and builds
every repair candidate of :func:`repair_observed_table` with numpy.
None of that may change a decision: the code it replaced is frozen in
:mod:`benchmarks.legacy_scan` (:class:`PerWindowAesKeySearch`,
:func:`legacy_repair_observed_table`,
:func:`legacy_batch_expand_from_window`), and every ``RecoveredAesKey``
field and every abstain must match it.
"""

import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import (  # noqa: E402
    PerWindowAesKeySearch,
    legacy_batch_expand_from_window,
    legacy_repair_observed_table,
)

from repro.attack.adaptive import decode_stage_for_rate  # noqa: E402
from repro.attack.aes_search import (  # noqa: E402
    AesKeySearch,
    reconstruct_schedule,
    repair_observed_table,
)
from repro.attack.keymine import keys_matrix, mine_scrambler_keys  # noqa: E402
from repro.attack.sweep import synthetic_dump  # noqa: E402
from repro.crypto.aes import batch_expand_from_window, expand_key  # noqa: E402
from repro.dram.image import MemoryImage  # noqa: E402
from repro.util.blocks import BLOCK_SIZE  # noqa: E402

#: Where ``synthetic_dump`` plants its XTS table (primary, then tweak).
PLANTED_BASE = 700 * BLOCK_SIZE + 11
#: A shifted alias of the planted primary in ``synthetic_dump(0.04,
#: seed=5)``: plausible enough to pass the decode gate, BP abstains,
#: and the ballots (vote, repair, rescue) then run on it.
DECODE_FALLBACK_BASE = PLANTED_BASE - 128


# ------------------------------------------------------- schedule expansion


@settings(max_examples=60, deadline=None)
@given(
    nk=st.sampled_from((4, 6, 8)),
    data=st.data(),
)
def test_word_level_expansion_matches_scalar_reconstruction(nk, data):
    total = {4: 44, 6: 52, 8: 60}[nk]
    n = data.draw(st.integers(0, 12))
    windows = np.frombuffer(
        data.draw(st.binary(min_size=4 * nk * n, max_size=4 * nk * n)), dtype=np.uint8
    ).reshape(n, 4 * nk)
    # Mixed per-row starts, always including word 0 and the last valid start.
    starts = np.array(
        [data.draw(st.integers(0, total - nk)) for _ in range(n)], dtype=np.int64
    )
    if n >= 2:
        starts[:2] = (0, total - nk)
    out = batch_expand_from_window(windows, starts, nk)
    assert out.shape == (n, 4 * total) and out.dtype == np.uint8
    for row in range(n):
        words = [int.from_bytes(bytes(windows[row, 4 * w : 4 * w + 4]), "big") for w in range(nk)]
        assert out[row].tobytes() == reconstruct_schedule(words, int(starts[row]), 32 * nk)
    for start in {0, total - nk, *starts.tolist()}:
        assert np.array_equal(
            batch_expand_from_window(windows, start, nk),
            legacy_batch_expand_from_window(windows, start, nk),
        )


@pytest.mark.parametrize("nk,total", [(4, 44), (6, 52), (8, 60)])
def test_expansion_edges(nk, total):
    empty = np.zeros((0, 4 * nk), dtype=np.uint8)
    assert batch_expand_from_window(empty, 0, nk).shape == (0, 4 * total)
    assert batch_expand_from_window(empty, np.zeros(0, dtype=np.int64), nk).shape == (
        0,
        4 * total,
    )
    window = np.frombuffer(expand_key(bytes(range(4 * nk)))[: 4 * nk], dtype=np.uint8)
    assert batch_expand_from_window(window[None, :], 0, nk)[0].tobytes() == expand_key(
        bytes(range(4 * nk))
    )
    for bad in (-1, total - nk + 1, np.array([0, total - nk + 1])):
        with pytest.raises(ValueError):
            batch_expand_from_window(np.vstack([window, window]), bad, nk)
    with pytest.raises(ValueError):
        batch_expand_from_window(empty, total, nk)


# ------------------------------------------------------------------ repair


def _decayed_table(rng, key_bits: int, rate: float) -> np.ndarray:
    table = np.frombuffer(expand_key(rng.bytes(key_bits // 8)), dtype=np.uint8).copy()
    flips = np.flatnonzero(rng.random(8 * table.size) < rate)
    np.bitwise_xor.at(table, flips // 8, (0x80 >> (flips % 8)).astype(np.uint8))
    return table


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    rate=st.sampled_from((0.0, 0.002, 0.01, 0.03, 0.08)),
    known=st.sampled_from(("all", "none", "random", "omitted")),
)
def test_vectorised_repair_matches_per_equation_oracle(seed, key_bits, rate, known):
    rng = np.random.default_rng(seed)
    table = _decayed_table(rng, key_bits, rate)
    known_bytes = {
        "all": np.ones(table.size, dtype=bool),
        "none": np.zeros(table.size, dtype=bool),
        "random": rng.random(table.size) < 0.9,
        "omitted": None,
    }[known]
    assert np.array_equal(
        repair_observed_table(table.copy(), key_bits, known_bytes=known_bytes),
        legacy_repair_observed_table(table.copy(), key_bits, known_bytes=known_bytes),
    )


def test_repair_oracle_cases_are_not_vacuous():
    """Decayed tables do get repaired: the trials above are exercised."""
    rng = np.random.default_rng(7)
    clean = np.frombuffer(expand_key(rng.bytes(32)), dtype=np.uint8)
    noisy = clean.copy()
    noisy[[37, 150]] ^= np.uint8(0x10)
    repaired = repair_observed_table(noisy, 256)
    assert not np.array_equal(repaired, noisy)
    assert np.array_equal(repaired, legacy_repair_observed_table(noisy, 256))


# ---------------------------------------------------------- group recovery


def _groups(search: AesKeySearch, image: MemoryImage) -> tuple[np.ndarray, dict]:
    """``recover_keys``' hit groups: scan, extend, group by table base."""
    blocks = image.blocks_matrix()
    hits = search.find_hits(image)
    if hits and search.extension_radius_blocks:
        merged = {(h.block_index, h.key_index, h.offset, h.round_index): h for h in hits}
        for hit in search._extend_hits(blocks, hits):
            merged.setdefault((hit.block_index, hit.key_index, hit.offset, hit.round_index), hit)
        hits = list(merged.values())
    groups: dict[int, list] = {}
    for hit in hits:
        if hit.table_base >= 0:
            groups.setdefault(hit.table_base, []).append(hit)
    return blocks, groups


@cache
def _dump_case(ber: float, seed: int):
    dump, master, _ = synthetic_dump(ber, seed=seed)
    keys = keys_matrix(mine_scrambler_keys(dump))
    blocks, groups = _groups(AesKeySearch(keys), dump)
    return dump, master, keys, blocks, groups


def _assert_groups_match(fast, oracle, blocks, groups) -> list:
    results = []
    for base in sorted(groups):
        got = fast._recover_from_group(blocks, base, groups[base])
        assert got == oracle._recover_from_group(blocks, base, groups[base]), hex(base)
        results.append(got)
    return results


@pytest.mark.parametrize("ber", (0.002, 0.01, 0.02))
@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_every_group_matches_the_per_window_oracle(ber, seed):
    _, master, keys, blocks, groups = _dump_case(ber, seed)
    results = _assert_groups_match(
        AesKeySearch(keys), PerWindowAesKeySearch(keys), blocks, groups
    )
    if ber == 0.002:
        recovered = {r.master_key for r in results if r is not None}
        assert {master[:32], master[32:]} <= recovered


def test_aes128_groups_match_the_per_window_oracle():
    rng = np.random.default_rng(128)
    n_keys, n_blocks = 6, 96
    keys = rng.integers(0, 256, size=(n_keys, BLOCK_SIZE), dtype=np.uint8)
    plain = rng.integers(0, 256, size=n_blocks * BLOCK_SIZE, dtype=np.uint8)
    master = rng.bytes(16)
    table = np.frombuffer(expand_key(master), dtype=np.uint8)
    base = 40 * BLOCK_SIZE + 5
    plain[base : base + table.size] = table
    blocks = plain.reshape(n_blocks, BLOCK_SIZE) ^ keys[np.arange(n_blocks) % n_keys]
    decayed = blocks.reshape(-1).copy()
    flips = np.flatnonzero(rng.random(8 * decayed.size) < 0.006)
    np.bitwise_xor.at(decayed, flips // 8, (0x80 >> (flips % 8)).astype(np.uint8))
    image = MemoryImage(decayed.tobytes())
    fast = AesKeySearch(keys, key_bits=128)
    blocks, groups = _groups(fast, image)
    assert base in groups
    results = _assert_groups_match(
        fast, PerWindowAesKeySearch(keys, key_bits=128), blocks, groups
    )
    assert master in {r.master_key for r in results if r is not None}


def test_pinned_recovery_matches_the_per_window_oracle():
    dump, master, keys, _, _ = _dump_case(0.01, 1)
    fast, oracle = AesKeySearch(keys), PerWindowAesKeySearch(keys)
    for base in (PLANTED_BASE, PLANTED_BASE + 240, PLANTED_BASE + 16, 64 * 300):
        assert fast.recover_at_base(dump, base) == oracle.recover_at_base(dump, base)
    assert fast.recover_at_base(dump, PLANTED_BASE + 240).master_key == master[32:]


def test_schedule_decode_group_matches_the_per_window_oracle():
    """At BER 0.04 the decoded rung's search falls back to the ballots
    (vote, repair, rescue) on bases BP abstains on."""
    dump, _, _ = synthetic_dump(0.04, seed=5)
    stage = decode_stage_for_rate(0.04)
    keys = keys_matrix(
        mine_scrambler_keys(
            dump,
            tolerance_bits=stage.litmus_tolerance_bits,
            merge_radius_bits=stage.merge_radius_bits,
        )
    )
    options = dict(
        verify_tolerance_bits=stage.verify_tolerance_bits,
        accept_mismatch_fraction=stage.accept_mismatch_fraction,
        repair_bits=stage.repair_bits,
        schedule_vote=stage.schedule_vote,
        schedule_decode=True,
        join_radius_bits=stage.join_radius_bits,
        extension_radius_blocks=stage.extension_radius_blocks,
        decay_rate=0.04,
    )
    fast = AesKeySearch(keys, **options)
    oracle = PerWindowAesKeySearch(keys, **options)
    blocks, groups = _groups(fast, dump)
    base = DECODE_FALLBACK_BASE
    assert fast._recover_from_group(blocks, base, groups[base]) == (
        oracle._recover_from_group(blocks, base, groups[base])
    )
    assert fast.decode_stats == oracle.decode_stats


# ------------------------------------------------------- memoised confirmation


def test_no_group_region_scores_a_master_twice():
    _, _, keys, blocks, groups = _dump_case(0.002, 1)

    def scored_masters(search):
        per_group: list[list[bytes]] = []
        score = search._region_mismatches

        def counting(blocks, base, expansions):
            per_group[-1].extend(row[:32].tobytes() for row in expansions)
            return score(blocks, base, expansions)

        search._region_mismatches = counting
        for base in sorted(groups):
            per_group.append([])
            search._recover_from_group(blocks, base, groups[base])
        return per_group

    batched = scored_masters(AesKeySearch(keys))
    per_window = scored_masters(PerWindowAesKeySearch(keys))
    assert all(len(masters) == len(set(masters)) for masters in batched)
    # Same masters, each once: the oracle re-scores some of them.
    assert [set(m) for m in batched] == [set(m) for m in per_window]
    assert sum(map(len, batched)) < sum(map(len, per_window))
