"""The batched miner merge equals the per-row greedy walk, byte for byte.

:func:`mine_scrambler_keys` joins whole chunks of distinct passing rows
against the representatives at once; the per-row greedy loop it
replaced is frozen in :mod:`benchmarks.legacy_scan` as
:func:`greedy_mine_scrambler_keys`.  Hypothesis drives both over
near-duplicate clusters at every merge regime (no merge, banded radii
up to 63, the dense walk from 64 on), with the batching constants
shrunk so a few rows already span several merge chunks, pair batches
and vote chunks.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import greedy_mine_scrambler_keys  # noqa: E402

import repro.attack.keymine as keymine  # noqa: E402
from repro.attack.keymine import mine_scrambler_keys  # noqa: E402
from repro.dram.image import MemoryImage  # noqa: E402

RADII = (0, 1, 2, 16, 40, 63, 64, 70)
#: Passes every block, so the inputs reach the merge unfiltered.
ALL_PASS = 8 * 64


def _canonical(candidates) -> list[tuple]:
    return [(c.key, c.count, c.litmus_mismatch_bits, c.support_bits) for c in candidates]


@contextmanager
def _small_batches(merge_rows: int, pair_budget: int, vote_rows: int):
    saved = (
        keymine._MERGE_CHUNK_ROWS,
        keymine._MERGE_PAIR_BUDGET,
        keymine._VOTE_CHUNK_ROWS,
    )
    keymine._MERGE_CHUNK_ROWS = merge_rows
    keymine._MERGE_PAIR_BUDGET = pair_budget
    keymine._VOTE_CHUNK_ROWS = vote_rows
    try:
        yield
    finally:
        (
            keymine._MERGE_CHUNK_ROWS,
            keymine._MERGE_PAIR_BUDGET,
            keymine._VOTE_CHUNK_ROWS,
        ) = saved


def _clustered_rows(seed: int, n_centers: int, n_rows: int, max_flips: int) -> bytes:
    """Noisy copies of a few centres; some copies chain off the last one."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 256, size=(n_centers, 64), dtype=np.uint8)
    rows = []
    for _ in range(n_rows):
        if len(rows) > 1 and rng.random() < 0.2:
            # Crossovers sit between two earlier rows, often within the
            # radius of both: the rows whose nearest representative
            # depends on which of the two exists first.
            i, j = rng.integers(len(rows), size=2)
            row = np.where(rng.random(64) < 0.5, rows[i], rows[j])
        elif rows and rng.random() < 0.3:
            row = rows[-1].copy()  # chains: distances between members vary
        else:
            row = centers[rng.integers(n_centers)].copy()
        for bit in rng.integers(0, 512, size=int(rng.integers(0, max_flips + 1))):
            row[bit // 8] ^= np.uint8(0x80 >> (bit % 8))
        rows.append(row)
        if rng.random() < 0.3:
            rows.append(row.copy())  # exact duplicates raise counts
    return b"".join(row.tobytes() for row in rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_centers=st.integers(1, 6),
    n_rows=st.integers(0, 70),
    max_flips=st.sampled_from((2, 12, 40, 90)),
    radius=st.sampled_from(RADII),
    min_count=st.sampled_from((1, 2)),
    batches=st.sampled_from(((4096, 1 << 16, 2048), (7, 13, 5), (1, 1, 1))),
)
def test_batched_merge_matches_greedy_oracle(
    seed, n_centers, n_rows, max_flips, radius, min_count, batches
):
    image = MemoryImage(_clustered_rows(seed, n_centers, n_rows, max_flips))
    options = dict(tolerance_bits=ALL_PASS, merge_radius_bits=radius, min_count=min_count)
    expected = greedy_mine_scrambler_keys(image, **options)
    with _small_batches(*batches):
        assert _canonical(mine_scrambler_keys(image, **options)) == _canonical(expected)


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("min_count", (1, 2))
@pytest.mark.parametrize("data", (b"", bytes(range(64))), ids=("empty", "one-row"))
def test_trivial_inputs_match_greedy_oracle(radius, min_count, data):
    image = MemoryImage(data)
    options = dict(tolerance_bits=ALL_PASS, merge_radius_bits=radius, min_count=min_count)
    assert _canonical(mine_scrambler_keys(image, **options)) == _canonical(
        greedy_mine_scrambler_keys(image, **options)
    )


def test_decayed_dump_matches_greedy_oracle():
    """A scrambled dump with real litmus filtering and decay."""
    from repro.attack.sweep import synthetic_dump

    dump, _, _ = synthetic_dump(0.01, seed=3)
    for radius in (16, 40):
        assert _canonical(mine_scrambler_keys(dump, merge_radius_bits=radius)) == _canonical(
            greedy_mine_scrambler_keys(dump, merge_radius_bits=radius)
        )


def _flipped(row: np.ndarray, bits) -> np.ndarray:
    out = row.copy()
    for bit in bits:
        out[bit // 8] ^= np.uint8(0x80 >> (bit % 8))
    return out


@pytest.mark.parametrize("merge_rows", (1, 2, 4096))
@pytest.mark.parametrize(
    "shared_flips, counts",
    ((14, [4, 3, 3]), (12, [5, 3, 2])),
    ids=("closer", "tie"),
)
def test_same_chunk_representative_against_earlier_one(merge_rows, shared_flips, counts):
    """A row an earlier chunk's representative claims moves to an
    earlier representative of its own chunk only when that one is
    strictly closer; on a tie the older representative keeps it."""
    rng = np.random.default_rng(7)
    anchor = rng.integers(0, 256, size=64, dtype=np.uint8)
    filler = rng.integers(0, 256, size=64, dtype=np.uint8)
    bits = rng.choice(512, size=24, replace=False)
    far = _flipped(anchor, bits)  # 24 bits from the anchor: its own cluster
    between = _flipped(anchor, bits[:shared_flips])
    rows = [anchor] * 4 + [filler] * 3 + [far] * 2 + [between]
    image = MemoryImage(b"".join(row.tobytes() for row in rows))
    options = dict(tolerance_bits=ALL_PASS, merge_radius_bits=16)
    expected = greedy_mine_scrambler_keys(image, **options)
    assert [c.count for c in expected] == counts
    with _small_batches(merge_rows, 1 << 16, 2048):
        assert _canonical(mine_scrambler_keys(image, **options)) == _canonical(expected)
