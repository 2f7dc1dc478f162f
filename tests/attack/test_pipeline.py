"""Tests for the end-to-end attack pipeline plumbing."""

import pytest

from repro.attack.pipeline import AttackConfig, AttackReport, Ddr4ColdBootAttack
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


def scrambled_dump_with_volume(
    boot_seed: int = 100, n_blocks: int = 3 * 4096, table_block: int = 700, zero_every: int = 3
) -> tuple[MemoryImage, bytes]:
    """A synthetic dump: zeros + noise + a two-schedule XTS key table.

    Key indices cycle every 4096 blocks and gcd(3, 4096) = 1, so with
    three full index periods and a zero block every third block, every
    key index is exposed exactly once — including the table blocks'.
    """
    rng = SplitMix64(boot_seed)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for b in range(0, n_blocks, zero_every):
        plain[b * 64 : (b + 1) * 64] = bytes(64)
    master = rng.next_bytes(64)
    table = expand_key(master[:32]) + expand_key(master[32:])
    offset = table_block * 64 + 11
    plain[offset : offset + len(table)] = table
    scrambler = Ddr4Scrambler(boot_seed=boot_seed)
    return MemoryImage(scrambler.scramble_range(0, bytes(plain))), master


class TestPipeline:
    def test_recovers_both_schedules(self):
        dump, master = scrambled_dump_with_volume()
        report = Ddr4ColdBootAttack().run(dump)
        assert len(report.recovered_keys) >= 2
        recovered = {r.master_key for r in report.recovered_keys}
        assert master[:32] in recovered and master[32:] in recovered

    def test_xts_join(self):
        dump, master = scrambled_dump_with_volume(boot_seed=555)
        assert Ddr4ColdBootAttack().recover_xts_master_key(dump) == master

    def test_report_bookkeeping(self):
        dump, _ = scrambled_dump_with_volume(boot_seed=7)
        report = Ddr4ColdBootAttack().run(dump)
        assert report.dump_bytes == len(dump)
        assert report.mine_seconds > 0 and report.search_seconds > 0
        assert report.scan_rate_mb_per_hour > 0
        assert "recovered" in report.summary()

    def test_candidate_cap(self):
        dump, _ = scrambled_dump_with_volume(boot_seed=8)
        config = AttackConfig(max_candidate_keys=10)
        report = Ddr4ColdBootAttack(config).run(dump)
        # The cap only limits the search stage, not mining.
        assert len(report.candidate_keys) > 10

    def test_sharded_run_mines_with_the_whole_config(self):
        """``run_sharded`` honours every mining budget ``run`` does."""
        dump, _ = scrambled_dump_with_volume(boot_seed=12, zero_every=2)
        config = AttackConfig(
            litmus_tolerance_bits=24,
            merge_radius_bits=8,
            min_key_count=2,
            key_scan_limit_bytes=2 * 4096 * 64,
        )
        attack = Ddr4ColdBootAttack(config)
        monolithic = attack.run(dump).candidate_keys
        sharded = attack.run_sharded(dump, workers=1, n_shards=2).candidate_keys
        assert monolithic and sharded == monolithic

    def test_empty_dump(self):
        report = Ddr4ColdBootAttack().run(MemoryImage(SplitMix64(1).next_bytes(64 * 64)))
        assert report.recovered_keys == []
        assert report.master_keys == []

    def test_xts_returns_none_without_volume(self):
        scrambler = Ddr4Scrambler(boot_seed=9)
        plain = bytearray(SplitMix64(2).next_bytes(512 * 64))
        for b in range(0, 512, 3):
            plain[b * 64 : (b + 1) * 64] = bytes(64)
        dump = MemoryImage(scrambler.scramble_range(0, bytes(plain)))
        assert Ddr4ColdBootAttack().recover_xts_master_key(dump) is None

    def test_fresh_report_defaults(self):
        report = AttackReport()
        assert report.scan_rate_mb_per_hour == float("inf")
