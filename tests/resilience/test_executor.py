"""ResilientShardRunner behaviour under crashes, hangs, and dead workers.

Worker functions live at module level so the process pool can pickle
them by reference (fork start method).  Pool tests use short timeouts
and tiny payloads — each asserts policy behaviour, not throughput.
"""

import os
import time

from repro.resilience.errors import DeadlineExceededError
from repro.resilience.executor import (
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_QUARANTINED,
    ResilientShardRunner,
    RunLedger,
    ShardOutcome,
)
from repro.resilience.retry import RetryPolicy

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.001, shard_timeout_s=5.0, seed=1)


def worker_double(payload, shard_offset, attempt, in_subprocess):
    return payload * 2


def worker_crash_first_attempts(payload, shard_offset, attempt, in_subprocess):
    # payload = (value, crash_below): crash on attempts < crash_below.
    value, crash_below = payload
    if attempt < crash_below:
        raise RuntimeError(f"scripted crash on attempt {attempt}")
    return value


def worker_always_crash(payload, shard_offset, attempt, in_subprocess):
    raise RuntimeError("this shard never succeeds")


def worker_die_once(payload, shard_offset, attempt, in_subprocess):
    # Abrupt process death (not an exception) on the first attempt only
    # — and only in a real subprocess, never in the orchestrator.
    if attempt == 1 and in_subprocess:
        os._exit(17)
    return payload


def worker_always_die(payload, shard_offset, attempt, in_subprocess):
    if in_subprocess:
        os._exit(17)
    return payload


def worker_hang_once(payload, shard_offset, attempt, in_subprocess):
    if attempt == 1 and in_subprocess:
        time.sleep(60.0)
    return payload


def worker_deadline_at_one(payload, shard_offset, attempt, in_subprocess):
    # A decode cut off by the run's deadline inside shard 1.
    if shard_offset == 1:
        raise DeadlineExceededError(2.0, "decode")
    return payload


class TestDeadlineInsideAShard:
    """A DeadlineExceededError ends the run resumably: no crash, no
    retry, no quarantine — every unfinished shard is left expired."""

    def check(self, ledger):
        expired = ledger.outcomes[1]
        assert expired.status == STATUS_EXPIRED and expired.attempts == 1
        assert "deadline of 2s exceeded during decode" in expired.errors[-1]
        assert not ledger.quarantined
        assert ledger.deadline_expired and ledger.stop_cause == "deadline"
        assert {o.shard_offset for o in ledger.unfinished} >= {1}

    def test_serial(self):
        runner = ResilientShardRunner(worker_deadline_at_one, policy=FAST, workers=1)
        ledger = runner.run({0: "a", 1: "b", 2: "c"})
        self.check(ledger)
        assert ledger.outcomes[0].status == STATUS_OK
        assert ledger.outcomes[2].status == STATUS_EXPIRED

    def test_process_pool(self):
        runner = ResilientShardRunner(worker_deadline_at_one, policy=FAST, workers=2)
        self.check(runner.run({0: "a", 1: "b", 2: "c", 3: "d"}))


class TestSerialMode:
    def test_all_ok(self):
        runner = ResilientShardRunner(worker_double, policy=FAST, workers=1)
        ledger = runner.run({0: 3, 64: 4})
        assert [o.status for o in ledger.outcomes.values()] == [STATUS_OK, STATUS_OK]
        assert ledger.outcomes[0].result == 6
        assert ledger.outcomes[64].result == 8

    def test_transient_crash_is_retried(self):
        runner = ResilientShardRunner(
            worker_crash_first_attempts, policy=FAST, workers=1, sleep=lambda s: None
        )
        ledger = runner.run({0: ("fine", 3)})
        outcome = ledger.outcomes[0]
        assert outcome.status == STATUS_OK
        assert outcome.result == "fine"
        assert outcome.attempts == 3
        assert len(outcome.errors) == 2  # two failed attempts on record

    def test_persistent_crash_quarantines(self):
        events = []
        runner = ResilientShardRunner(
            worker_always_crash, policy=FAST, workers=1,
            on_event=events.append, sleep=lambda s: None,
        )
        ledger = runner.run({0: None, 64: None})
        assert all(o.status == STATUS_QUARANTINED for o in ledger.outcomes.values())
        assert all(o.attempts == FAST.max_attempts for o in ledger.outcomes.values())
        assert any("quarantined" in e for e in events)

    def test_on_result_fires_per_shard(self):
        seen = []
        runner = ResilientShardRunner(
            worker_double, policy=FAST, workers=1,
            on_result=lambda offset, result: seen.append((offset, result)),
        )
        runner.run({0: 1, 64: 2, 128: 3})
        assert sorted(seen) == [(0, 2), (64, 4), (128, 6)]


class TestPoolMode:
    def test_all_ok_across_processes(self):
        runner = ResilientShardRunner(worker_double, policy=FAST, workers=2)
        ledger = runner.run({offset: offset for offset in (0, 64, 128, 192)})
        assert len(ledger.completed) == 4
        assert ledger.outcomes[128].result == 256
        assert ledger.pool_rebuilds == 0

    def test_crash_retries_in_pool(self):
        runner = ResilientShardRunner(
            worker_crash_first_attempts, policy=FAST, workers=2, sleep=lambda s: None
        )
        ledger = runner.run({0: ("a", 2), 64: ("b", 1)})
        assert ledger.outcomes[0].status == STATUS_OK
        assert ledger.outcomes[0].attempts == 2
        assert ledger.outcomes[64].attempts == 1

    def test_persistent_crash_quarantines_in_pool(self):
        ledger = ResilientShardRunner(
            worker_always_crash, policy=FAST, workers=2, sleep=lambda s: None
        ).run({0: None})
        assert ledger.outcomes[0].status == STATUS_QUARANTINED
        assert ledger.outcomes[0].attempts == FAST.max_attempts

    def test_dead_worker_triggers_rebuild_then_succeeds(self):
        events = []
        runner = ResilientShardRunner(
            worker_die_once, policy=FAST, workers=2,
            on_event=events.append, sleep=lambda s: None,
        )
        ledger = runner.run({0: "alpha", 64: "beta"})
        assert ledger.pool_rebuilds >= 1
        assert {o.result for o in ledger.completed} == {"alpha", "beta"}
        assert any("rebuilding" in e for e in events)

    def test_dead_worker_does_not_quarantine_innocents(self):
        # The killer takes the pool down with it; sibling shards must
        # not be charged attempts for the collateral BrokenProcessPool.
        runner = ResilientShardRunner(
            worker_die_once, policy=RetryPolicy(max_attempts=2, base_delay_s=0.001, seed=1),
            workers=2, sleep=lambda s: None,
        )
        ledger = runner.run({offset: offset for offset in range(0, 64 * 6, 64)})
        assert not ledger.quarantined
        assert len(ledger.completed) == 6

    def test_unkillable_worker_degrades_to_serial(self):
        # Every subprocess attempt dies; after max_pool_rebuilds the
        # runner falls back to in-process execution, where the worker
        # behaves (in_subprocess=False) and the scan still finishes.
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_pool_rebuilds=1, seed=1
        )
        runner = ResilientShardRunner(
            worker_always_die, policy=policy, workers=2, sleep=lambda s: None
        )
        ledger = runner.run({0: "x", 64: "y"})
        assert ledger.degraded_to_serial
        assert {o.result for o in ledger.completed} == {"x", "y"}

    def test_hung_worker_times_out_and_retries(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.001, shard_timeout_s=3.0, seed=1
        )
        events = []
        runner = ResilientShardRunner(
            worker_hang_once, policy=policy, workers=2,
            on_event=events.append, sleep=lambda s: None,
        )
        start = time.monotonic()
        ledger = runner.run({0: "slow", 64: "quick"})
        elapsed = time.monotonic() - start
        assert ledger.outcomes[0].status == STATUS_OK  # retry succeeded
        assert any("ShardTimeoutError" in e for o in ledger.outcomes.values()
                   for e in o.errors)
        assert elapsed < 30.0  # nobody waited for the 60 s sleeper


class TestLedger:
    def test_summary_mentions_everything(self):
        ledger = RunLedger(
            outcomes={
                0: ShardOutcome(0, STATUS_OK, attempts=1),
                64: ShardOutcome(64, STATUS_QUARANTINED, attempts=3),
            },
            pool_rebuilds=2,
            degraded_to_serial=True,
        )
        text = ledger.summary()
        assert "1/2 shards ok" in text
        assert "1 quarantined" in text
        assert "2 pool rebuilds" in text
        assert "serial" in text
