"""One attack driver: every path runs the same rung loop.

Monolithic, sharded, resumed and served runs of one dump must report
the same findings; the XTS sibling rescue runs on all of them; each
distinct mining budget is mined once per run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

import repro.attack.adaptive as adaptive
from repro.attack.adaptive import STRICT_STAGE, _MiningMemo
from repro.attack.aes_search import AesKeySearch
from repro.attack.pipeline import AttackConfig, Ddr4ColdBootAttack, xts_master_key
from repro.attack.report import canonical_report_bytes, report_to_dict
from repro.attack.sweep import synthetic_dump
from repro.cli import main
from repro.dram.image import MemoryImage
from repro.resilience.deadline import Deadline
from repro.resilience.shutdown import GracefulShutdown
from repro.service.jobstore import Job, JobSpec
from repro.service.server import ServiceDirs, execute_attack_job


class CountdownDeadline(Deadline):
    """Expires after a fixed number of ``.expired`` polls."""

    def __init__(self, checks: int) -> None:
        object.__setattr__(self, "expires_at", float("inf"))
        object.__setattr__(self, "total_seconds", 3600.0)
        object.__setattr__(self, "checks_left", checks)

    @property
    def expired(self) -> bool:
        left = self.checks_left
        object.__setattr__(self, "checks_left", left - 1)
        return left <= 0


def findings(payload: dict) -> bytes:
    """A report's canonical bytes without the path-specific blocks."""
    payload = dict(payload)
    payload.pop("resilience", None)
    payload.pop("service", None)
    return canonical_report_bytes(payload)


def key_rows(report) -> list[tuple]:
    return [
        (r.hits[0].table_base, r.master_key, r.votes, r.match_fraction, r.confidence)
        for r in report.recovered_keys
    ]


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to a function under every module name that binds it."""

    def install(owner, name: str) -> list:
        original = getattr(owner, name)
        calls: list = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, name, None) is original
            ):
                monkeypatch.setattr(loaded, name, counting)
        return calls

    return install


@pytest.mark.parametrize("seed", [1, 372])
def test_every_path_reports_the_same_findings(seed, tmp_path):
    dump, master, _ = synthetic_dump(0.002, seed=seed)
    attack = Ddr4ColdBootAttack()
    monolithic = attack.run(dump)
    expected = findings(report_to_dict(monolithic))
    assert xts_master_key(monolithic.recovered_keys) == master

    sharded = attack.run(dump, workers=2, n_shards=3)
    assert sharded.n_shards == 3
    assert findings(report_to_dict(sharded)) == expected

    journal = tmp_path / "scan.jsonl"
    stopped = attack.run(dump, n_shards=3, checkpoint=journal, deadline=CountdownDeadline(2))
    assert stopped.resumable and 0 < len(stopped.unscanned_shards) < 3
    resumed = attack.run(dump, n_shards=3, checkpoint=journal)
    assert resumed.resumed_shards == 3 - len(stopped.unscanned_shards)
    assert xts_master_key(resumed.recovered_keys) == master
    assert findings(report_to_dict(resumed)) == expected

    path = tmp_path / "dump.bin"
    dump.save(path)
    job = Job(spec=JobSpec(job_id=f"job-{seed}", dump=str(path)))
    outcome = execute_attack_job(job, ServiceDirs.at(tmp_path / "svc").ensure(),
                                 GracefulShutdown())
    served = json.loads(open(outcome.report_path, encoding="utf-8").read())
    assert served["service"]["terminal_state"] == "DONE"
    assert findings(served) == expected


@pytest.mark.parametrize(
    "config", [AttackConfig(max_candidate_keys=10), AttackConfig(verify_tolerance_bits=0)]
)
def test_sharded_runs_honour_the_search_budgets(config):
    dump, _, _ = synthetic_dump(0.002, seed=1)
    attack = Ddr4ColdBootAttack(config)
    assert key_rows(attack.run(dump, workers=2, n_shards=3)) == key_rows(attack.run(dump))


def test_adaptive_ladder_shards_identically():
    dump, _, _ = synthetic_dump(0.02, seed=1)
    attack = Ddr4ColdBootAttack(AttackConfig(adaptive=True))
    monolithic = attack.run(dump)
    sharded = attack.run(dump, workers=2, n_shards=2)
    assert monolithic.recovered_keys
    assert sharded.n_shards == 2
    assert key_rows(sharded) == key_rows(monolithic)
    for field in ("stages_run", "decode"):
        assert sharded.adaptive[field] == monolithic.adaptive[field]


def test_decoded_rescue_probes_once_and_mines_each_budget_once(count_calls):
    """Seed 5 at BER 0.04 decodes only the primary: one ``+stride``
    probe finds the tweak, and the strict and decoded pools are each
    mined once (triage reuses them)."""
    probes = count_calls(AesKeySearch, "recover_at_base")
    mined = count_calls(adaptive, "mine_scrambler_keys")
    dump, master, _ = synthetic_dump(0.040, seed=5)
    config = AttackConfig(adaptive=True, adaptive_total_work=10, decode_workers=2)
    report = Ddr4ColdBootAttack(config).run(dump)
    assert report.adaptive["stages_run"] == ["strict", "decoded"]
    assert report.master_keys == [master[:32], master[32:]]
    assert len(probes) == 1
    assert len(mined) == 2


def test_plain_cli_attack_mines_once(count_calls, tmp_path, capsys):
    mined = count_calls(adaptive, "mine_scrambler_keys")
    dump, master, _ = synthetic_dump(0.002, seed=1)
    path = tmp_path / "dump.bin"
    dump.save(path)
    assert main(["attack", str(path)]) == 0
    assert master.hex() in capsys.readouterr().out
    assert len(mined) == 1


def test_mining_memo_keys_on_image_and_budgets(count_calls):
    mined = count_calls(adaptive, "mine_scrambler_keys")
    image = synthetic_dump(0.0, n_blocks=1024, table_block=100, seed=3)[0]
    memo = _MiningMemo(scan_limit_bytes=None)
    first = memo(image, STRICT_STAGE)
    assert memo(image, STRICT_STAGE) is first
    assert len(mined) == 1
    memo(MemoryImage(bytes(image.data)), STRICT_STAGE)  # another image
    memo(image, replace(STRICT_STAGE, min_key_count=2))
    memo(image, replace(STRICT_STAGE, merge_radius_bits=8))
    assert len(mined) == 4
