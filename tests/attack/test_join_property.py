"""Hypothesis pins the direct-address fused scan to the frozen seed scan.

The fused scan replaces the seed's per-(offset, phase) Python hash join
with cache-blocked direct-address tables, a linear-relation prefilter,
and an S-box-anchored mismatch bound.  Its contract is *byte identity*:
for any dump and any key set it must emit exactly the hits — same
blocks, same keys, same order — as :class:`SeedAesKeySearch` (the
frozen reference in ``benchmarks/legacy_scan.py``), under arbitrary
decay, at join radius 0 and 1 and at the fixed and the ``decoded``
stage's verify budgets.  Hypothesis sweeps the geometry (variant, table
placement, alignment), the decay channel, and those two knobs.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import SeedAesKeySearch  # noqa: E402

from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.crypto.aes import expand_key  # noqa: E402
from repro.dram.image import MemoryImage  # noqa: E402
from repro.scrambler.ddr4 import Ddr4Scrambler  # noqa: E402
from repro.util.rng import SplitMix64  # noqa: E402

N_BLOCKS = 48


def _planted_image(
    scrambler: Ddr4Scrambler, key_bits: int, table_offset: int, seed: int
) -> tuple[MemoryImage, bytes]:
    """Random plaintext + one planted schedule, scrambled."""
    rng = SplitMix64(seed)
    master = rng.next_bytes(key_bits // 8)
    plain = bytearray(rng.next_bytes(N_BLOCKS * 64))
    schedule = expand_key(master)
    plain[table_offset : table_offset + len(schedule)] = schedule
    return MemoryImage(scrambler.scramble_range(0, bytes(plain))), master


def _decay(image: MemoryImage, n_flips: int, seed: int) -> MemoryImage:
    data = bytearray(image.data)
    rng = SplitMix64(seed)
    for _ in range(n_flips):
        bit = rng.next_below(len(data) * 8)
        data[bit // 8] ^= 0x80 >> (bit % 8)
    return MemoryImage(bytes(data))


@settings(max_examples=25, deadline=None)
@given(
    key_bits=st.sampled_from([128, 192, 256]),
    boot_seed=st.integers(0, 2**16),
    table_block=st.integers(0, 40),
    byte_skew=st.integers(0, 16),
    n_flips=st.integers(0, 24),
    flip_seed=st.integers(0, 2**16),
    join_radius_bits=st.sampled_from([0, 1]),
    # 40 bits is the decoded stage's verify-budget cap.
    verify_tolerance_bits=st.sampled_from([16, 40]),
)
def test_fused_join_matches_dict_reference(
    key_bits,
    boot_seed,
    table_block,
    byte_skew,
    n_flips,
    flip_seed,
    join_radius_bits,
    verify_tolerance_bits,
):
    scrambler = Ddr4Scrambler(boot_seed=boot_seed)
    image, _ = _planted_image(
        scrambler, key_bits, table_offset=table_block * 64 + byte_skew, seed=flip_seed
    )
    decayed = _decay(image, n_flips, seed=flip_seed ^ 0x5A5A)
    # Key pool: every other block's true scrambler key — includes the
    # table region's keys, so genuine hits occur alongside noise.
    keys = [scrambler.key_for_address(b * 64) for b in range(0, N_BLOCKS, 2)]
    knobs = {
        "key_bits": key_bits,
        "join_radius_bits": join_radius_bits,
        "verify_tolerance_bits": verify_tolerance_bits,
    }
    fused = AesKeySearch(keys, **knobs)
    reference = SeedAesKeySearch(keys, **knobs)
    assert fused.find_hits(decayed) == reference.find_hits(decayed)
    assert fused.recover_keys(decayed) == reference.recover_keys(decayed)


def test_zero_page_dump_self_join_equivalence():
    """An all-zero dump is the prefilter's worst case: every scrambled
    block *is* its own keystream, so every (block, key=own) pair passes
    the linear bound at all offsets and only the S-box anchor rejects.
    The fused path must still emit exactly the reference's hits."""
    scrambler = Ddr4Scrambler(boot_seed=9)
    image = MemoryImage(scrambler.scramble_range(0, bytes(N_BLOCKS * 64)))
    keys = [scrambler.key_for_address(b * 64) for b in range(N_BLOCKS)]
    fused = AesKeySearch(keys, key_bits=256)
    reference = SeedAesKeySearch(keys, key_bits=256)
    assert fused.find_hits(image) == reference.find_hits(image)
