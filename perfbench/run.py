"""Time-to-keys benchmark of the cold boot attack stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-bulk --seed 1 --seconds 20 --trace 0

This process generates the workload's dumps from ``--seed`` and keeps
the planted master keys to itself.  The program runs in child
processes that receive only dump paths: ``perfbench/child_attack.py``
for one attack op per process, or ``repro serve`` for the service.
Every recovered key is checked against the planted ones; a key that
matches nothing planted fails the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced ops, runs the same ops again with every public function of
the attack layers wrapped in a span, and prints the per-layer metrics.
The last line of standard output is the result object; the line
before it holds the details behind the numbers (samples, the tail
percentile and its sample count, per-op latencies).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from analysis import SpanTree, layer_metrics, median, tail
from tracer import read_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics (``--trace 0``), name → unit.
E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "keys_exact_frac": "frac",
    "op_p50_s": "s",
    "scan_mib_per_s": "MiB/s",
}

#: Per-layer metrics (``--trace 1``), name → unit.  Times and counts
#: are per op: per attack, or per job on the service.
LAYER_METRICS = {
    "keymine.calls": "count",
    "keymine.busy_s": "s",
    "keymine.busy_frac": "frac",
    "keymine.candidates": "count",
    "aes_search.fingerprint_s": "s",
    "aes_search.find_hits_s": "s",
    "aes_search.join_s": "s",
    "aes_search.verify_s": "s",
    "aes_search.hits": "count",
    "aes_search.recover_self_s": "s",
    "aes_search.keys_per_hit": "ratio",
    "decode.busy_s": "s",
    "decode.tables": "count",
    "decode.sweeps": "count",
    "decode.converged": "count",
    "decode.abstained": "count",
    "decode.converged_frac": "frac",
    "adaptive.estimate_s": "s",
    "adaptive.triage_s": "s",
    "adaptive.mine_calls": "count",
    "adaptive.stages_run": "count",
    "adaptive.estimate_rel_error": "frac",
    "parallel.wall_s": "s",
    "parallel.shards": "count",
    "parallel.pre_shard_s": "s",
    "parallel.serial_wall_s": "s",
    "parallel.workers": "count",
    "parallel.cpu_count": "count",
    "parallel.efficiency": "frac",
    "resilience.journal_records": "count",
    "resilience.journal_s": "s",
    "service.wal_appends": "count",
    "service.wal_s": "s",
    "service.pickup_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "dram.load_s": "s",
    "oracle.keys_wrong": "count",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: A single op or job that takes longer than this counts as failed.
OP_TIMEOUT_S = 120.0
#: Scan and decode workers of the attack workloads, one per core of the
#: 2-vCPU machine the workloads are sized for.
WORKERS = 2
#: How often the service client looks for finished jobs.
POLL_S = 0.02
MIB = 1024 * 1024


# ------------------------------------------------------------- processes


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


#: Program processes not yet waited for.
LIVE: set = set()


class Child:
    """A program process whose stdout lines are timestamped on arrival."""

    def __init__(self, argv: list[str], log_path: Path) -> None:
        self.log = open(log_path, "w", encoding="utf-8")
        self.log_path = log_path
        self.started = time.perf_counter()
        # Its own process group, so helpers the program forks (such as
        # the shared-memory resource tracker) are stopped with it.
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=program_env(), cwd=ROOT, start_new_session=True,
        )
        LIVE.add(self)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.maxrss_mib = 0.0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def next_line(self, timeout: float) -> tuple[float, str | None]:
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no output from {self.proc.args[1]} in {timeout:g}s") from None

    def finish(self, timeout: float, sig: int | None = None) -> int:
        """Wait for exit (signalling first if asked); kill past ``timeout``."""
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mib = usage.ru_maxrss / 1024.0  # KiB on Linux
        self._stop_group(deadline=time.monotonic() + 5.0)
        LIVE.discard(self)
        self.reader.join(timeout=5)
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode

    def _stop_group(self, deadline: float) -> None:
        """Wait for the process group to empty; kill what is left."""
        while True:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL if time.monotonic() > deadline else 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def kill(self) -> None:
        """Stop the process and its group now (used on the way out)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.finish(timeout=5.0)

    def log_tail(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]


# ------------------------------------------------------------ attack ops


@dataclass
class Op:
    """One attack op: a fresh program process on one dump."""

    dump: object
    setup_s: float
    latency_s: float | None = None
    keys: list[bytes] = field(default_factory=list)
    rss_mib: float = 0.0
    estimated_ber: float | None = None
    spans: list[dict] | None = None
    error: str | None = None


class Run:
    """What one benchmark run measured, and where it keeps its files."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.keys_exact = 0
        self.keys_planted = 0
        self.keys_wrong = 0
        self.detail: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
        self._launches = 0

    def log_path(self, tag: str) -> Path:
        self._launches += 1
        return self.work / f"{self._launches:03d}-{tag}.log"

    def score(self, keys: list[bytes], dump) -> None:
        exact, wrong = gen.score_keys(keys, dump)
        self.keys_exact += exact
        self.keys_planted += len(dump.halves)
        self.keys_wrong += wrong


def attack_op(run: Run, mode: str, dump, workers: int = WORKERS,
              traced: bool = False, setup_only: bool = False) -> Op:
    argv = [sys.executable, str(HERE / "child_attack.py"), "--mode", mode,
            "--dump", str(dump.path), "--workers", str(workers)]
    spans_path = None
    if traced:
        spans_path = run.log_path("spans").with_suffix(".jsonl")
        argv += ["--trace", str(spans_path)]
    if setup_only:
        argv.append("--setup-only")
    child = Child(argv, run.log_path(mode))
    op = Op(dump=dump, setup_s=float("nan"))
    try:
        ready_at, line = child.next_line(OP_TIMEOUT_S)
        if line != "READY":
            raise RuntimeError(f"child did not become ready: {line!r}")
        op.setup_s = ready_at - child.started
        if not setup_only:
            done_at, line = child.next_line(OP_TIMEOUT_S)
            if line is None:
                raise RuntimeError("child exited without a result")
            result = json.loads(line)
            op.latency_s = done_at - ready_at
            op.keys = [bytes.fromhex(key) for key in result["keys"]]
            op.estimated_ber = result.get("estimated_ber")
    except (TimeoutError, RuntimeError, ValueError, KeyError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
        op.latency_s = None
    code = child.finish(timeout=10.0)
    op.rss_mib = child.maxrss_mib
    if code != 0 and op.error is None:
        op.error = f"exit code {code}"
        op.latency_s = None
    if op.error is not None:
        print(f"[perfbench] {mode} op on {dump.path.name} failed: {op.error}\n"
              f"{child.log_tail()}", file=sys.stderr)
    if traced and spans_path.exists():
        op.spans = read_jsonl(spans_path)
    return op


def run_ops(run: Run, mode: str, dumps: list, seconds: float) -> list[Op]:
    """Attack every dump once per pass, for ``seconds``.

    Whole passes keep the mix of dumps the same in every run.  The
    first pass always runs; another starts only if the last one would
    still fit in ``seconds``.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for dump in dumps:
            op = attack_op(run, mode, dump)
            record_op(run, op)
            ops.append(op)
            if op.latency_s is None:
                return ops  # a failing program is not timed further
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return ops


def record_op(run: Run, op: Op) -> None:
    run.attempted += 1
    if op.latency_s is None:
        run.failed += 1
        run.keys_planted += len(op.dump.halves)
        return
    run.score(op.keys, op.dump)


def setup_samples(run: Run, mode: str, dumps: list, ops: list[Op]) -> list[float]:
    """Set-up times of the run's ops, topped up with set-up-only launches."""
    samples = [op.setup_s for op in ops if op.latency_s is not None]
    index = 0
    while len(samples) < SETUP_SAMPLES:
        op = attack_op(run, mode, dumps[index % len(dumps)], setup_only=True)
        if op.error is not None:
            break
        samples.append(op.setup_s)
        index += 1
    return samples


def attack_workload(run: Run, mode: str, dumps: list) -> dict:
    ops = run_ops(run, mode, dumps, run.seconds)
    good = [op for op in ops if op.latency_s is not None]
    latencies = [op.latency_s for op in good]
    run.detail["ops"] = [
        {"dump": op.dump.path.name, "latency_s": op.latency_s, "setup_s": op.setup_s,
         "rss_mib": op.rss_mib, "keys": len(op.keys)}
        for op in ops
    ]
    if not run.trace:
        setups = setup_samples(run, mode, dumps, ops)
        run.detail["setup_samples"] = setups
        return end_to_end(
            run, setups, latencies,
            peak_rss=max((op.rss_mib for op in ops), default=0.0),
            mib_done=sum(op.dump.n_bytes for op in good) / MIB,
            busy_s=sum(latencies),
        )

    traced = []
    for op in ops:
        again = attack_op(run, mode, op.dump, traced=True)
        record_op(run, again)
        traced.append(again)
    metrics = traced_metrics(run, [op.spans for op in traced if op.spans])
    metrics["trace.overhead_frac"] = overhead(
        latencies, [op.latency_s for op in traced if op.latency_s is not None])
    metrics["adaptive.estimate_rel_error"] = median([
        abs(op.estimated_ber - op.dump.bit_error_rate) / op.dump.bit_error_rate
        for op in traced if op.estimated_ber is not None
    ])
    if mode == "bulk":
        # The same dump scanned with one worker and with WORKERS, both
        # traced, so serial and parallel wall time share every cost.
        serial = attack_op(run, mode, dumps[0], workers=1, traced=True)
        record_op(run, serial)
        serial_wall = layer_metrics(SpanTree([serial.spans or []]))["parallel.wall_s"]
        parallel_wall = layer_metrics(SpanTree([traced[0].spans or []]))["parallel.wall_s"]
        metrics.update({
            "parallel.serial_wall_s": serial_wall,
            "parallel.workers": WORKERS,
            "parallel.efficiency": serial_wall / (WORKERS * parallel_wall)
            if parallel_wall else 0.0,
        })
        run.detail["parallel"] = {"serial_wall_s": serial_wall,
                                  "parallel_wall_s": parallel_wall,
                                  "workers": WORKERS, "cpu_count": os.cpu_count()}
    run.detail["traced_latencies"] = [op.latency_s for op in traced]
    return metrics


def traced_metrics(run: Run, processes: list[list[dict]]) -> dict:
    """Every per-layer metric: zero unless the spans or the run set it."""
    save_trace(run, processes)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(layer_metrics(SpanTree(processes)))
    metrics["parallel.cpu_count"] = os.cpu_count() or 0
    metrics["oracle.keys_wrong"] = run.keys_wrong
    return metrics


def save_trace(run: Run, processes: list[list[dict]]) -> None:
    """Keep the run's spans, one JSON object per line, tagged by process."""
    path = OUT / f"trace-{run.workload}-{run.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, spans in enumerate(processes):
            for span in spans:
                handle.write(json.dumps(dict(span, process=index)) + "\n")
    run.detail["trace_file"] = str(path.relative_to(ROOT))


def overhead(untraced: list[float], traced: list[float]) -> float:
    if not untraced or not traced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def end_to_end(run: Run, setups, latencies, peak_rss: float, mib_done: float,
               busy_s: float) -> dict:
    # A run holds 2 to 20 ops: too few for a percentile with ten samples
    # beyond it to be a tail, and the slowest of them moves more between
    # runs than any bound allows.  The detail line keeps both.
    guide_tail = tail(latencies)
    run.detail["tail"] = {
        "slowest_s": max(latencies, default=0.0),
        "samples": len(latencies),
        "p_with_10_beyond": None if guide_tail is None else
        {"value_s": guide_tail[0], "percentile": guide_tail[1]},
    }
    return {
        "setup_s": median(setups),
        "peak_rss_mib": peak_rss,
        "keys_exact_frac": run.keys_exact / run.keys_planted if run.keys_planted else 0.0,
        "op_p50_s": median(latencies),
        "scan_mib_per_s": mib_done / busy_s if busy_s else 0.0,
    }


# -------------------------------------------------------------- service


@dataclass
class Server:
    child: Child
    directory: Path
    setup_s: float
    spans_path: Path | None = None


def start_server(run: Run, directory: Path, traced: bool = False) -> Server:
    """Launch ``repro serve --workers 2``; ready once ``board.json`` exists."""
    serve = ["serve", str(directory), "--workers", "2"]
    spans_path = None
    if traced:
        spans_path = run.log_path("server-spans").with_suffix(".jsonl")
        argv = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_path), *serve]
    else:
        argv = [sys.executable, "-m", "repro.cli", *serve]
    child = Child(argv, run.log_path("serve"))
    board = directory / "board.json"
    deadline = time.monotonic() + OP_TIMEOUT_S
    while not board.exists():
        if child.proc.poll() is not None or time.monotonic() > deadline:
            child.finish(timeout=5.0)
            raise RuntimeError(f"repro serve did not start:\n{child.log_tail()}")
        time.sleep(0.002)
    return Server(child, directory, time.perf_counter() - child.started, spans_path)


def stop_server(server: Server) -> None:
    code = server.child.finish(timeout=60.0, sig=signal.SIGTERM)
    if code not in (0, 3):
        print(f"[perfbench] repro serve exited with {code}:\n{server.child.log_tail()}",
              file=sys.stderr)


@dataclass
class Job:
    job_id: str
    dump: object
    submitted: float
    spooled_wall: float
    latency_s: float | None = None
    state: str = ""
    keys: list[bytes] = field(default_factory=list)


def closed_loop(run: Run, server: Server, dumps: list, seconds: float,
                outstanding: int = 2) -> list[Job]:
    """Keep ``outstanding`` jobs in flight for ``seconds``; one thread.

    A job's latency runs from spooling its submission to seeing it
    DONE in the write-ahead log.  One warm-up job per server worker
    runs first and is scored but not timed: the server imports the
    attack stack lazily on its first job, once per server lifetime.
    """
    from repro.service.client import submit_job
    from repro.service.jobstore import DONE, TERMINAL_STATES, JobSpec, replay_jobs

    wal = server.directory / "jobs.wal"
    jobs: list[Job] = []
    inflight: dict[str, Job] = {}

    def submit(tag: str) -> None:
        dump = dumps[len(jobs) % len(dumps)]
        job = Job(f"{tag}-{len(jobs):04d}", dump, time.perf_counter(), time.time())
        submit_job(server.directory, JobSpec(job_id=job.job_id, dump=str(dump.path),
                                             scan_workers=1))
        jobs.append(job)
        inflight[job.job_id] = job

    def drain(refill) -> None:
        while inflight:
            time.sleep(POLL_S)
            now = time.perf_counter()
            states = replay_jobs(wal)
            for job_id, job in list(inflight.items()):
                folded = states.get(job_id)
                timed_out = now - job.submitted > OP_TIMEOUT_S
                if not timed_out and (folded is None or folded.state not in TERMINAL_STATES):
                    continue
                del inflight[job_id]
                job.state = "TIMEOUT" if timed_out else folded.state
                run.attempted += 1
                if job.state == DONE:
                    job.latency_s = now - job.submitted
                    report = json.loads(Path(folded.report_path).read_text(encoding="utf-8"))
                    job.keys = [bytes.fromhex(key["master_key"])
                                for key in report["recovered_keys"]]
                    run.score(job.keys, job.dump)
                else:
                    run.failed += 1
                    run.keys_planted += len(job.dump.halves)
                    print(f"[perfbench] job {job_id} ended {job.state}", file=sys.stderr)
                refill()

    for _ in range(outstanding):
        submit("warmup")
    drain(lambda: None)
    warmup = len(jobs)
    start = time.perf_counter()
    for _ in range(outstanding):
        submit("job")
    drain(lambda: submit("job") if time.perf_counter() - start < seconds else None)
    return jobs[warmup:]


def service_workload(run: Run, dumps: list) -> dict:
    setups = []
    for index in range(SETUP_SAMPLES - 1 if not run.trace else 0):
        server = start_server(run, run.work / f"svc-setup-{index}")
        setups.append(server.setup_s)
        stop_server(server)
    server = start_server(run, run.work / "svc")
    setups.append(server.setup_s)
    try:
        jobs = closed_loop(run, server, dumps, run.seconds)
    finally:
        stop_server(server)
    done = [job for job in jobs if job.latency_s is not None]
    latencies = [job.latency_s for job in done]
    run.detail["jobs"] = [{"job": job.job_id, "dump": job.dump.path.name, "state": job.state,
                           "latency_s": job.latency_s, "keys": len(job.keys)}
                          for job in jobs]
    if not run.trace:
        run.detail["setup_samples"] = setups
        wall = max((job.submitted + job.latency_s for job in done), default=0.0) \
            - min((job.submitted for job in jobs), default=0.0)
        return end_to_end(run, setups, latencies, peak_rss=server.child.maxrss_mib,
                          mib_done=sum(job.dump.n_bytes for job in done) / MIB,
                          busy_s=wall)

    traced_server = start_server(run, run.work / "svc-traced", traced=True)
    try:
        traced_jobs = closed_loop(run, traced_server, dumps, run.seconds)
    finally:
        stop_server(traced_server)
    from repro.service.jobstore import replay_jobs

    spans = read_jsonl(traced_server.spans_path) if traced_server.spans_path.exists() else []
    metrics = traced_metrics(run, [spans])
    folded = replay_jobs(traced_server.directory / "jobs.wal")
    finished = [(job, folded[job.job_id]) for job in traced_jobs
                if job.latency_s is not None and job.job_id in folded]
    metrics.update({
        "service.pickup_s": median([f.submitted_at - job.spooled_wall for job, f in finished]),
        "service.queue_wait_s": median([f.started_at - f.submitted_at for job, f in finished]),
        "service.run_s": median([f.finished_at - f.started_at for job, f in finished]),
        "trace.overhead_frac": overhead(
            latencies, [job.latency_s for job in traced_jobs if job.latency_s is not None]),
    })
    run.detail["traced_jobs"] = [{"job": job.job_id, "state": job.state,
                                  "latency_s": job.latency_s} for job in traced_jobs]
    return metrics


# ------------------------------------------------------------ workloads


def scan_bulk(run: Run) -> dict:
    """Three distinct 16 MiB dumps at BER 0.002, sharded fixed-budget scan."""
    dumps = [gen.bulk_dump(run.work, run.seed * 16 + index, 16 * MIB, 0.002)
             for index in range(3)]
    return attack_workload(run, "bulk", dumps)


#: The frontier panel: synthetic_dump seed 5 decodes 150 tables and
#: recovers both halves; seed 7 abstains.  Which dump abstains or how
#: many tables reach BP swings op time 4× between dump seeds at this
#: BER, so the panel is fixed and --seed only sets its order.
FRONTIER_PANEL = (5, 7)


def decode_frontier(run: Run) -> dict:
    """The fixed frontier panel at BER 0.040 through the adaptive ladder."""
    shift = run.seed % len(FRONTIER_PANEL)
    order = FRONTIER_PANEL[shift:] + FRONTIER_PANEL[:shift]
    dumps = [gen.default_dump(run.work, seed, 0.040) for seed in order]
    return attack_workload(run, "decode", dumps)


#: Distinct dumps per service run: scan time differs by up to 1.6x
#: between dumps, so each run spreads its jobs over many of them.
SERVICE_DUMPS = 12


def service_small(run: Run) -> dict:
    """Default-size BER 0.002 dumps as jobs through ``repro serve``."""
    dumps = [gen.default_dump(run.work, run.seed * 16 + index, 0.002)
             for index in range(SERVICE_DUMPS)]
    return service_workload(run, dumps)


WORKLOADS = {
    "scan-bulk": scan_bulk,
    "decode-frontier": decode_frontier,
    "service-small": service_small,
}


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time-to-keys benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        metrics = WORKLOADS[args.workload](run)
    finally:
        for child in list(LIVE):
            child.kill()
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_METRICS if run.trace else E2E_METRICS
    run.detail.update(keys_exact=run.keys_exact, keys_planted=run.keys_planted,
                      keys_wrong=run.keys_wrong)
    print(json.dumps(run.detail))
    correct = run.keys_wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    if not correct:
        print(f"perfbench: {run.keys_wrong} recovered key(s) match nothing planted",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
