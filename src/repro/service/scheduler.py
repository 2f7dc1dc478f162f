"""Supervised job scheduling over a bounded worker fleet.

The scheduler multiplexes many concurrent attack jobs over ``workers``
threads, each job running the resilient sharded pipeline underneath
(:class:`~repro.resilience.executor.ResilientShardRunner` via
:meth:`~repro.attack.pipeline.Ddr4ColdBootAttack.run`).  Three
policies stack on top:

* **admission control** — the waiting queue is bounded; a submission
  past ``max_queued`` raises the typed
  :class:`~repro.resilience.errors.AdmissionRejectedError`
  synchronously (backpressure, not unbounded memory);
* **fair-share priority** — within a priority class, submitters share
  the fleet round-robin (the k-th job of a busy submitter queues behind
  every other submitter's k-1st), so one user spooling a thousand dumps
  cannot starve everyone else;
* **supervision** — a failed attempt moves the job to ``RETRYING`` with
  :class:`~repro.resilience.retry.RetryPolicy` backoff and re-admits it
  after the delay; exhausting the failure budget quarantines the job as
  ``FAILED``.  Drain interrupts and server-crash recovery also pass
  through ``RETRYING`` but do not count against the failure budget.

Every transition is durable in the :class:`~repro.service.jobstore.JobStore`
*before* the scheduler acts on it, which is what makes the whole engine
crash-safe: a SIGKILL at any instant leaves a WAL that replays to a
consistent state, and ``RUNNING`` jobs resume from their shard
checkpoint journals byte-identically.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field

from repro.resilience.errors import AdmissionRejectedError
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import GracefulShutdown
from repro.service.jobstore import (
    ADMITTED,
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    Job,
    JobSpec,
    JobStore,
)

#: Executor verdicts a job attempt can return (see ``JobOutcome``).
VERDICT_DONE = "done"
VERDICT_EXPIRED = "expired"
VERDICT_INTERRUPTED = "interrupted"
VERDICT_CANCELLED = "cancelled"
VERDICT_FAILED = "failed"


@dataclass
class JobOutcome:
    """What one attempt at a job produced."""

    verdict: str
    report_path: str | None = None
    checkpoint_path: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class SchedulerConfig:
    """Fleet sizing and queue bounds for one server."""

    workers: int = 2
    #: Bound on jobs waiting for a worker (QUEUED + ADMITTED + RETRYING).
    #: Running jobs hold worker slots and do not count.
    max_queued: int = 16
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay_s=0.2,
                                            max_delay_s=5.0)
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.max_queued < 1:
            raise ValueError("the admission queue must hold at least one job")


class Scheduler:
    """Admission, dispatch, and supervision for the job engine.

    ``executor`` is the attempt function: ``executor(job, stop) ->
    JobOutcome`` where ``stop`` is a per-attempt
    :class:`~repro.resilience.shutdown.GracefulShutdown` flag holder the
    scheduler trips on drain or cancel.  The server supplies the real
    attack-pipeline executor; tests supply stubs.
    """

    def __init__(self, store: JobStore, executor, config: SchedulerConfig | None = None,
                 on_event=None) -> None:
        self.store = store
        self.executor = executor
        self.config = config or SchedulerConfig()
        self.on_event = on_event or (lambda message: None)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: Ready heap: (priority, fair-share sequence, tiebreak, job_id).
        self._ready: list[tuple[int, int, int, str]] = []
        #: Per-submitter fair-share counters (monotonic per admission).
        self._share_seq: dict[str, int] = {}
        self._seq = 0
        #: RETRYING jobs gated behind their backoff, job_id -> not_before.
        self._backoff: dict[str, float] = {}
        #: Per-running-attempt stop flags, job_id -> GracefulShutdown.
        self._active: dict[str, GracefulShutdown] = {}
        #: Jobs cancelled while waiting (lazy removal from the heap).
        self._cancelled: set[str] = set()
        self._draining = False
        self._shutdown = False
        self._threads: list[threading.Thread] = []

        # Crash recovery: anything the WAL says was mid-flight when the
        # previous server died re-enters the queue through RETRYING —
        # its checkpoint journal makes the rerun a resume, not a redo.
        for job in self.store.live_jobs():
            if job.state == RUNNING:
                self.store.append_event(job.job_id, RETRYING,
                                        cause="server restart", not_before=0.0)
            if job.state in (QUEUED, RETRYING):
                self._admit_locked_free(job)
            elif job.state == ADMITTED:
                self._push_ready(job)

    # ---------------------------------------------------------------- fleet

    def start(self) -> None:
        """Spin up the worker fleet (idempotent)."""
        if self._threads:
            return
        for index in range(self.config.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-job-worker-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------ admission

    def submit(self, spec: JobSpec) -> Job:
        """Accept a job into the bounded queue, or reject it typed.

        The queue bound is checked and the QUEUED record written under
        one lock, so concurrent submitters cannot oversubscribe the
        queue between check and append.
        """
        with self._lock:
            pending = self.store.pending_count()
            if self._draining:
                raise AdmissionRejectedError(spec.job_id, pending,
                                             self.config.max_queued)
            if pending >= self.config.max_queued:
                raise AdmissionRejectedError(spec.job_id, pending,
                                             self.config.max_queued)
            job = self.store.append_event(spec.job_id, QUEUED, spec=spec)
            self._admit_locked_free(job)
            self._wake.notify_all()
        self.on_event(f"job {spec.job_id} queued by {spec.submitter} "
                      f"(priority {spec.priority}, {pending + 1} pending)")
        return job

    def _admit_locked_free(self, job: Job) -> None:
        """QUEUED/RETRYING → ADMITTED (or backoff-gated) bookkeeping.

        Named for what it expects: callers hold no store invariants —
        the method takes the transitions it needs.  RETRYING jobs whose
        backoff has not elapsed go to the backoff gate instead.
        """
        if job.state == RETRYING and job.not_before > time.time():
            self._backoff[job.job_id] = job.not_before
            return
        admitted = self.store.append_event(job.job_id, ADMITTED)
        self._push_ready(admitted)

    def _push_ready(self, job: Job) -> None:
        submitter = job.spec.submitter
        share = self._share_seq.get(submitter, 0)
        self._share_seq[submitter] = share + 1
        self._seq += 1
        heapq.heappush(self._ready,
                       (job.spec.priority, share, self._seq, job.job_id))

    def _poll_backoffs_locked(self) -> None:
        now = time.time()
        due = [job_id for job_id, when in self._backoff.items() if when <= now]
        for job_id in due:
            del self._backoff[job_id]
            job = self.store.get(job_id)
            if job.state == RETRYING:
                admitted = self.store.append_event(job_id, ADMITTED)
                self._push_ready(admitted)

    # -------------------------------------------------------------- workers

    def _next_ready_locked(self) -> Job | None:
        while self._ready:
            _, _, _, job_id = heapq.heappop(self._ready)
            if job_id in self._cancelled:
                continue
            job = self.store.get(job_id)
            if job.state == ADMITTED:
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job = None
                while job is None:
                    if self._shutdown:
                        return
                    self._poll_backoffs_locked()
                    if not self._draining:
                        job = self._next_ready_locked()
                    if job is None:
                        # Wake early enough to release due backoffs.
                        waits = [0.25]
                        if self._backoff:
                            waits.append(max(0.01, min(self._backoff.values())
                                             - time.time()))
                        self._wake.wait(timeout=min(waits))
                stop = GracefulShutdown()
                self._active[job.job_id] = stop
                if self._draining:
                    stop.request("drain")
            self._run_attempt(job, stop)

    def _run_attempt(self, job: Job, stop: GracefulShutdown) -> None:
        job_id = job.job_id
        self.store.append_event(job_id, RUNNING, checkpoint=job.spec.checkpoint)
        self.on_event(f"job {job_id} running (attempt {job.attempts})")
        try:
            outcome = self.executor(job, stop)
        except Exception as exc:  # supervisor boundary: nothing may escape
            outcome = JobOutcome(verdict=VERDICT_FAILED, error=repr(exc))
        finally:
            with self._lock:
                self._active.pop(job_id, None)
        self._apply_outcome(job_id, outcome)

    def _apply_outcome(self, job_id: str, outcome: JobOutcome) -> None:
        policy = self.config.retry_policy
        job = self.store.get(job_id)
        if outcome.verdict == VERDICT_DONE:
            self.store.append_event(job_id, DONE, report=outcome.report_path,
                                    checkpoint=outcome.checkpoint_path)
            self.on_event(f"job {job_id} done")
        elif outcome.verdict == VERDICT_EXPIRED:
            self.store.append_event(job_id, EXPIRED, report=outcome.report_path,
                                    checkpoint=outcome.checkpoint_path,
                                    error=outcome.error or "deadline expired")
            self.on_event(f"job {job_id} expired (partial report, resumable)")
        elif outcome.verdict == VERDICT_CANCELLED:
            self.store.append_event(job_id, CANCELLED,
                                    checkpoint=outcome.checkpoint_path,
                                    error=outcome.error)
            self.on_event(f"job {job_id} cancelled")
        elif outcome.verdict == VERDICT_INTERRUPTED:
            # Drain or restart — resumable, not the job's fault.
            self.store.append_event(job_id, RETRYING, cause="drain",
                                    not_before=0.0,
                                    checkpoint=outcome.checkpoint_path)
            with self._wake:
                if not self._draining:
                    # Interrupted outside a server drain (e.g. a stop
                    # flag tripped spuriously): requeue immediately.
                    self._backoff[job_id] = time.time()
                    self._wake.notify_all()
            self.on_event(f"job {job_id} drained (resumable)")
        else:
            failures = job.failures + 1
            if policy.should_retry(failures):
                delay = policy.delay_s(hash(job_id) & 0x7FFFFFFF, failures)
                not_before = time.time() + delay
                self.store.append_event(job_id, RETRYING, cause=outcome.error,
                                        error=outcome.error, failure=True,
                                        not_before=not_before)
                with self._wake:
                    self._backoff[job_id] = not_before
                    self._wake.notify_all()
                self.on_event(f"job {job_id} failed (attempt {failures}/"
                              f"{policy.max_attempts}), retrying in {delay:.2f}s: "
                              f"{outcome.error}")
            else:
                self.store.append_event(job_id, FAILED, error=outcome.error)
                self.on_event(f"job {job_id} quarantined after {failures} "
                              f"failures: {outcome.error}")

    # --------------------------------------------------------------- cancel

    def cancel(self, job_id: str) -> str:
        """Cancel a job wherever it is; returns the state it reached.

        Waiting jobs cancel immediately; a running job gets its stop
        flag tripped and cancels once the pipeline drains (its shard
        journal is kept, like any drained run).
        """
        with self._lock:
            job = self.store.get(job_id)
            if job.terminal:
                return job.state
            # An attempt is live (or about to write its RUNNING record —
            # workers register their stop flag under this lock before
            # releasing it): trip the flag instead of racing the record.
            stop = self._active.get(job_id)
            if stop is not None:
                stop.request("cancel")
                return RUNNING  # will land CANCELLED when it drains
            if job.state == RUNNING:
                # Crash-recovered RUNNING with no live attempt exists
                # only transiently; the requeue will see the flag below.
                return RUNNING
            self._cancelled.add(job_id)
            self._backoff.pop(job_id, None)
            self.store.append_event(job_id, CANCELLED, error="cancelled while queued")
        self.on_event(f"job {job_id} cancelled while queued")
        return CANCELLED

    # ---------------------------------------------------------------- drain

    def drain(self, stop: GracefulShutdown, timeout_s: float = 30.0) -> bool:
        """Two-stage graceful drain, lifted to whole jobs.

        Stage one (``stop`` requested): admission closes, waiting jobs
        stay durably queued, and every running job's per-attempt flag is
        tripped so the underlying sharded scans drain in-flight shards
        to their journals and return resumable.  Stage two (``stop``
        forced, or ``timeout_s`` elapsing): stop waiting — running
        attempts are abandoned to their daemon threads; their WAL state
        stays ``RUNNING`` and the next server start recovers them
        exactly like a crash.  Returns True when every attempt finished
        cleanly.
        """
        with self._lock:
            self._draining = True
            for flag in self._active.values():
                flag.request(stop.cause or "drain")
            self._wake.notify_all()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and not stop.forced:
            with self._lock:
                if not self._active:
                    break
            time.sleep(0.02)
        with self._lock:
            clean = not self._active
            self._shutdown = True
            self._wake.notify_all()
        return clean

    # -------------------------------------------------------------- queries

    def running_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._active)

    def idle(self) -> bool:
        """True when no job is waiting, backed off, or running."""
        with self._lock:
            if self._active or self._backoff:
                return False
        return not self.store.live_jobs()

    def wait_idle(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.idle():
                return True
            time.sleep(0.02)
        return self.idle()

    def kick(self) -> None:
        """Wake the fleet (after external queue edits, e.g. spool pickup)."""
        with self._wake:
            self._wake.notify_all()
