"""Post-hit recovery layers equal their unfiltered, per-block references.

* :meth:`AesKeySearch._extend_hits` and :meth:`AesKeySearch._region_hits`
  send every (block, key) pair through the fused scan's exact mismatch
  lower bound before the S-box verification.  The bound never exceeds
  a round's true mismatch, so their hits — values and order — must
  equal verifying every pair directly: the neighbour walk frozen in
  :class:`benchmarks.legacy_scan.SeedAesKeySearch`, and the pinned-base
  verification written out below.
* :meth:`AesKeySearch._region_mismatch` and
  :meth:`AesKeySearch._observed_table` score from one cached, masked,
  descrambled region per base; they must equal the seed's per-block
  popcount-table versions, including regions that run off the image,
  blocks whose best key sits above the 35 % cut, and regions with less
  than half of their bits scoreable.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import SeedAesKeySearch  # noqa: E402

from repro.attack.aes_search import AesKeySearch, ScheduleHit, _all_pairs  # noqa: E402
from repro.crypto.aes import expand_key  # noqa: E402
from repro.util.blocks import BLOCK_SIZE  # noqa: E402


def _planted(seed: int, key_bits: int, n_keys: int, n_blocks: int, decay_bits: int):
    """Random keys and blocks with one scrambled schedule planted.

    Returns ``(keys, blocks, base, schedule)``: the schedule starts at
    image byte ``base``, and each block it covers is scrambled with a
    random pool key.
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_keys, BLOCK_SIZE), dtype=np.uint8)
    blocks = rng.integers(0, 256, size=(n_blocks, BLOCK_SIZE), dtype=np.uint8)
    schedule = np.frombuffer(expand_key(rng.bytes(key_bits // 8)), dtype=np.uint8)
    span_blocks = -(-len(schedule) // BLOCK_SIZE) + 1
    first = int(rng.integers(0, max(1, n_blocks - span_blocks)))
    base = first * BLOCK_SIZE + int(rng.integers(0, BLOCK_SIZE))
    plain = blocks.reshape(-1).copy()
    end = min(len(plain), base + len(schedule))
    plain[base:end] = schedule[: end - base]
    pool_key = rng.integers(0, n_keys, size=n_blocks)
    blocks = plain.reshape(n_blocks, BLOCK_SIZE) ^ keys[pool_key]
    for _ in range(decay_bits):
        blocks[rng.integers(n_blocks), rng.integers(BLOCK_SIZE)] ^= np.uint8(
            1 << int(rng.integers(8))
        )
    return keys, blocks, base, schedule


def _unfiltered_region_hits(search, blocks, base, tolerance_bits):
    """Pinned-base verification of every (region block, key) pair."""
    length = 4 * search.variant.total_words
    first, last = base // BLOCK_SIZE, (base + length - 1) // BLOCK_SIZE
    if first < 0 or last >= blocks.shape[0]:
        return []
    pairs = _all_pairs(np.arange(first, last + 1, dtype=np.int64), search.keys.shape[0])
    return [
        hit
        for offset in search.offsets
        for phase in search.variant.phases()
        for hit in search._verify_pairs(blocks, pairs, offset, phase, tolerance_bits)
        if hit.table_base == base
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    n_keys=st.integers(1, 6),
    n_blocks=st.integers(6, 24),
    decay_bits=st.integers(0, 64),
    tolerance_bits=st.sampled_from((16, 24, 40)),
    loose_bits=st.sampled_from((16, 24, 40)),
    join_radius_bits=st.sampled_from((0, 1)),
    extension_radius=st.integers(0, 6),
)
def test_prefiltered_verification_matches_unfiltered(
    seed, key_bits, n_keys, n_blocks, decay_bits, tolerance_bits, loose_bits,
    join_radius_bits, extension_radius,
):
    keys, blocks, base, _ = _planted(seed, key_bits, n_keys, n_blocks, decay_bits)
    options = dict(
        key_bits=key_bits,
        verify_tolerance_bits=tolerance_bits,
        join_radius_bits=join_radius_bits,
        extension_radius_blocks=extension_radius,
    )
    fast = AesKeySearch(keys, **options)
    reference = SeedAesKeySearch(keys, **options)

    rng = np.random.default_rng(seed + 1)
    seeds = [
        ScheduleHit(int(block), 0, 0, 1, 0, key_bits)
        for block in rng.integers(0, n_blocks, size=3)
    ]
    assert fast._extend_hits(blocks, seeds) == reference._extend_hits(blocks, seeds)

    for pinned in (base, base + 16, base - BLOCK_SIZE):
        assert fast._region_hits(blocks, pinned, loose_bits) == (
            _unfiltered_region_hits(reference, blocks, pinned, loose_bits)
        )


def test_extension_finds_the_planted_schedule():
    """The equivalence above is not vacuous: a planted table's
    neighbourhood yields hits at the planted base (and, through the
    Rcon-free rounds' ambiguity, at shifted bases too)."""
    keys, blocks, base, _ = _planted(3, 256, 4, 16, 0)
    search = AesKeySearch(keys, key_bits=256)
    seeds = [ScheduleHit(base // BLOCK_SIZE, 0, 0, 1, 0, 256)]
    hits = search._extend_hits(blocks, seeds)
    assert base in {h.table_base for h in hits}
    assert search._region_hits(blocks, base, 40)


def test_pinned_verification_uses_its_loose_budget():
    """Windows decayed past the verify budget but within the pinned
    one survive the prefilter of :meth:`_region_hits`."""
    keys, blocks, base, _ = _planted(8, 256, 3, 12, 0)
    first, last = base // BLOCK_SIZE, (base + 239) // BLOCK_SIZE
    rng = np.random.default_rng(8)
    for block in range(first, last + 1):
        for bit in rng.choice(512, size=10, replace=False):
            blocks[block, bit // 8] ^= np.uint8(0x80 >> (bit % 8))
    search = AesKeySearch(keys, key_bits=256, verify_tolerance_bits=16)
    strict = search._region_hits(blocks, base, 16)
    loose = search._region_hits(blocks, base, 40)
    assert len(loose) > len(strict)
    reference = SeedAesKeySearch(keys, key_bits=256, verify_tolerance_bits=16)
    assert loose == _unfiltered_region_hits(reference, blocks, base, 40)


def _region_cases(seed: int, n_keys: int):
    """(search, reference, blocks, base, expansion) over every scoring regime."""
    keys, blocks, base, schedule = _planted(seed, 256, n_keys, 12, 40)
    rng = np.random.default_rng(seed)
    noisy = schedule.copy()
    for _ in range(int(rng.integers(0, 400))):
        noisy[rng.integers(len(noisy))] ^= np.uint8(1 << int(rng.integers(8)))
    expansions = (
        schedule,  # the truth: every block scoreable
        noisy,  # decayed guesses, some blocks past the 35 % cut
        rng.integers(0, 256, size=len(schedule), dtype=np.uint8),  # junk
    )
    bases = (base, base + int(rng.integers(-80, 80)), -16, len(blocks) * BLOCK_SIZE - 100)
    # Dropping the pool key of some region blocks leaves them with no
    # close key: skipped, and with enough of them under half scoreable.
    dropped = np.delete(keys, rng.integers(0, n_keys, size=int(rng.integers(0, 3))), axis=0)
    for pool in (keys, dropped if len(dropped) else keys):
        search = AesKeySearch(pool, key_bits=256)
        reference = SeedAesKeySearch(pool, key_bits=256)
        for pinned in bases:
            for expansion in expansions:
                yield search, reference, blocks, pinned, expansion


@pytest.mark.parametrize("seed", range(12))
def test_region_scoring_matches_popcount_tables(seed):
    for search, reference, blocks, base, expansion in _region_cases(seed, 1 + seed % 5):
        assert search._region_mismatch(blocks, base, expansion) == (
            reference._region_mismatch(blocks, base, expansion)
        )
        observed = search._observed_table(blocks, base, expansion)
        expected = reference._observed_table(blocks, base, expansion)
        if expected is None:
            assert observed is None
        else:
            assert observed[0].dtype == expected[0].dtype
            assert np.array_equal(observed[0], expected[0])
            assert np.array_equal(observed[1], expected[1])


def test_region_scoring_covers_every_regime():
    """The cases above reach each branch of the region score."""
    length = 240
    rejected = (8 * length, 8 * length)
    outcomes = {"off_image": 0, "rejected": 0, "partial": 0, "full": 0}
    for seed in range(12):
        for search, _, blocks, base, expansion in _region_cases(seed, 1 + seed % 5):
            first, last = base // BLOCK_SIZE, (base + length - 1) // BLOCK_SIZE
            score = search._region_mismatch(blocks, base, expansion)
            if first < 0 or last >= blocks.shape[0]:
                outcomes["off_image"] += 1
            elif score == rejected:
                outcomes["rejected"] += 1
            elif score[1] < 8 * length:
                outcomes["partial"] += 1  # some block past the 35 % cut
            else:
                outcomes["full"] += 1
    assert all(outcomes.values()), outcomes


def test_batched_region_scores_match_single_calls():
    keys, blocks, base, schedule = _planted(5, 256, 4, 12, 20)
    search = AesKeySearch(keys, key_bits=256)
    rng = np.random.default_rng(5)
    batch = np.stack([schedule] + [
        schedule ^ (rng.random(len(schedule)) < 0.02).astype(np.uint8) for _ in range(7)
    ])
    singles = [SeedAesKeySearch(keys, key_bits=256)._region_mismatch(blocks, base, row)
               for row in batch]
    assert search._region_mismatches(blocks, base, batch) == singles


def _clean_region(lead: int, n_keys: int = 3, seed: int = 0):
    """A decay-free schedule starting ``lead`` bytes into block 2."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_keys, BLOCK_SIZE), dtype=np.uint8)
    schedule = np.frombuffer(expand_key(rng.bytes(32)), dtype=np.uint8)
    plain = rng.integers(0, 256, size=10 * BLOCK_SIZE, dtype=np.uint8)
    base = 2 * BLOCK_SIZE + lead
    plain[base : base + len(schedule)] = schedule
    blocks = plain.reshape(10, BLOCK_SIZE) ^ keys[rng.integers(0, n_keys, size=10)]
    return keys, blocks, base, schedule


@pytest.mark.parametrize("flips", (111, 112, 113))
def test_block_exactly_at_the_35_percent_cut(flips):
    """A 40-byte first slice (320 bits) has its cut at exactly 112 bits:
    a best key 112 bits off is still scored, 113 is skipped."""
    keys, blocks, base, schedule = _clean_region(lead=BLOCK_SIZE - 40)
    expansion = schedule.copy()
    for bit in np.random.default_rng(flips).choice(320, size=flips, replace=False):
        expansion[bit // 8] ^= np.uint8(0x80 >> (bit % 8))
    search = AesKeySearch(keys, key_bits=256)
    reference = SeedAesKeySearch(keys, key_bits=256)
    score = search._region_mismatch(blocks, base, expansion)
    assert score == reference._region_mismatch(blocks, base, expansion)
    assert score[1] == (8 * 240 if flips <= 112 else 8 * 200)
    observed = search._observed_table(blocks, base, expansion)
    expected = reference._observed_table(blocks, base, expansion)
    assert np.array_equal(observed[0], expected[0])
    assert np.array_equal(observed[1], expected[1])


def test_observed_table_ties_go_to_the_lowest_key():
    """Two keys equally close to a block descramble it differently; the
    observed table takes the lower-indexed one, as the seed does."""
    keys, blocks, base, schedule = _clean_region(lead=8, n_keys=2)
    first = base // BLOCK_SIZE
    guess = schedule.copy()
    guess[0] ^= 0x01  # the block's true key is now 1 bit off
    true_key = next(
        k for k in range(len(keys))
        if np.array_equal((blocks[first] ^ keys[k])[8:], schedule[:56])
    )
    # A rival key, also 1 bit off, that descrambles byte 1 differently.
    rival = keys[true_key].copy()
    rival[8] ^= 0x01
    rival[9] ^= 0x80
    pool = np.vstack([rival, keys]) if true_key else np.vstack([keys, rival])
    search = AesKeySearch(pool, key_bits=256)
    observed = search._observed_table(blocks, base, guess)
    expected = SeedAesKeySearch(pool, key_bits=256)._observed_table(blocks, base, guess)
    assert np.array_equal(observed[0], expected[0])
    assert np.array_equal(observed[1], expected[1])
