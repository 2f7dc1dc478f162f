#!/usr/bin/env python
"""Scan-performance harness: time the attack stages, track the trajectory.

Runs the sharded AES-schedule scan over a pinned-seed synthetic dump,
times each stage (key mining, fingerprint join, verification, post-hit
recovery, and the end-to-end sharded recovery), runs the preserved seed
implementation
(:mod:`benchmarks.legacy_scan`) on the same dump, asserts the two
recover **byte-identical** key sets, and writes the measurements to
``BENCH_scan.json``::

    python benchmarks/harness.py                  # 64 MiB, 4 workers
    python benchmarks/harness.py --smoke          # CI-sized quick pass
    python benchmarks/harness.py --repeat 3       # median-of-3 stages
    python benchmarks/harness.py --min-speedup 20 # regression gate (CI)

Stage times are honest: join, verify and recover numbers, for the fast
path and the seed baseline alike, come from
:attr:`AesKeySearch.stage_seconds` — the clocks each scan runs *inside*
``find_hits`` and ``recover_keys`` — not from replaying the stages
separately, and each record's ``workers`` field is the parallelism the
stage really ran with (mine/join/verify/recover are single-threaded
measurements; only
``end_to_end`` fans out, and it also records which executor the scan
chose).  With ``--repeat N`` every fast stage is measured N times and
the median recorded (raw samples ride along as ``wall_s_samples``).

Every stage record has the same shape — ``{"wall_s": float,
"blocks_per_s": float, "keys": int, "workers": int}`` — so successive
``BENCH_scan.json`` files diff cleanly as the implementation evolves;
``speedup_vs_baseline`` summarises fast-vs-seed per stage.  With
``--min-speedup X`` the harness exits non-zero when the end-to-end
speedup drops below ``X`` or the recoveries diverge from the seed
path — the CI regression gate.  See ``docs/performance.md`` for how to
read the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.attack.keymine import keys_matrix, mine_scrambler_keys  # noqa: E402
from repro.attack.parallel import resilient_recover_keys  # noqa: E402
from repro.attack.sweep import synthetic_dump  # noqa: E402
from repro.util.blocks import BLOCK_SIZE  # noqa: E402

from benchmarks.legacy_scan import (  # noqa: E402
    SeedAesKeySearch,
    legacy_recover_keys,
    seed_mine_scrambler_keys,
)

#: Schema tag written into (and required from) every BENCH_scan.json.
BENCH_SCHEMA = "bench-scan/v1"
#: Required fields of every stage record.
STAGE_FIELDS = ("wall_s", "blocks_per_s", "keys", "workers")
#: Stages a complete record must report.
REQUIRED_STAGES = ("mine", "join", "verify", "end_to_end")
#: Stages newer records add; older records without them stay valid.
OPTIONAL_STAGES = ("recover",)

#: Pinned defaults — change them and historical records stop comparing.
DEFAULT_SEED = 5
DEFAULT_BIT_ERROR_RATE = 0.002


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the harness schema."""
    if record.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}, got {record.get('schema')!r}")
    config = record.get("config")
    if not isinstance(config, dict):
        raise ValueError("missing config object")
    for field in ("size_mib", "workers", "seed", "bit_error_rate"):
        if field not in config:
            raise ValueError(f"config lacks {field!r}")

    def check_stages(stages: object, where: str) -> None:
        if not isinstance(stages, dict):
            raise ValueError(f"{where} must be an object of stage records")
        for name in REQUIRED_STAGES:
            if name not in stages:
                raise ValueError(f"{where} lacks stage {name!r}")
        for name, stage in stages.items():
            if not isinstance(stage, dict):
                raise ValueError(f"{where}[{name}] must be an object")
            for field in STAGE_FIELDS:
                if field not in stage:
                    raise ValueError(f"{where}[{name}] lacks {field!r}")
            if not float(stage["wall_s"]) >= 0.0:
                raise ValueError(f"{where}[{name}].wall_s must be >= 0")
            if not float(stage["blocks_per_s"]) >= 0.0:
                raise ValueError(f"{where}[{name}].blocks_per_s must be >= 0")
            if int(stage["keys"]) < 0 or int(stage["workers"]) < 1:
                raise ValueError(f"{where}[{name}] has invalid keys/workers")

    check_stages(record.get("stages"), "stages")
    if record.get("baseline") is not None:
        check_stages(record["baseline"], "baseline")
        speedups = record.get("speedup_vs_baseline")
        if not isinstance(speedups, dict) or "end_to_end" not in speedups:
            raise ValueError("baseline present but speedup_vs_baseline incomplete")
        for name in OPTIONAL_STAGES:
            if name in record["stages"] and name in record["baseline"] and name not in speedups:
                raise ValueError(f"speedup_vs_baseline lacks {name!r}")
        if not isinstance(record.get("identical_keys"), bool):
            raise ValueError("baseline present but identical_keys missing")


def _canonical_recoveries(recovered: list) -> list[tuple]:
    """Recoveries stripped of pool-ordering artefacts, for comparison.

    The fast miner breaks frequency ties by litmus residual where the
    seed miner broke them lexicographically, so the same candidate pool
    arrives in a different order and every ``ScheduleHit.key_index``
    is relabelled.  Everything that describes the *recovery* — key
    bytes, votes, where in the image each window matched and how well —
    must still agree byte-for-byte.
    """
    return sorted(
        (
            r.master_key,
            r.key_bits,
            r.votes,
            r.first_block_index,
            r.match_fraction,
            r.region_agreement,
            tuple(
                (h.block_index, h.offset, h.round_index, h.mismatch_bits)
                for h in r.hits
            ),
        )
        for r in recovered
    )


def _stage(
    wall_s: float,
    n_blocks: int,
    keys: int,
    workers: int,
    samples: list[float] | None = None,
    **extra: object,
) -> dict:
    record = {
        "wall_s": wall_s,
        "blocks_per_s": (n_blocks / wall_s) if wall_s > 0 else 0.0,
        "keys": keys,
        "workers": workers,
    }
    if samples is not None and len(samples) > 1:
        record["wall_s_samples"] = samples
    record.update(extra)
    return record


def run_benchmark(
    size_mib: int,
    workers: int,
    seed: int = DEFAULT_SEED,
    bit_error_rate: float = DEFAULT_BIT_ERROR_RATE,
    with_baseline: bool = True,
    smoke: bool = False,
    repeat: int = 1,
) -> dict:
    """Measure all stages on one pinned dump; return the JSON record.

    ``repeat`` reruns the fast-path measurements (mine, fused
    join/verify, recover, end-to-end) that many times and records the median per
    stage; the deterministic seed baseline runs once — it is the frozen
    reference, ~20× slower, and not the thing whose noise we are
    smoothing.
    """
    n_blocks = (size_mib << 20) // BLOCK_SIZE
    print(f"[harness] building {size_mib} MiB dump (seed={seed}, ber={bit_error_rate})")
    dump, master, _ = synthetic_dump(bit_error_rate, n_blocks=n_blocks, seed=seed)

    mine_samples: list[float] = []
    join_samples: list[float] = []
    verify_samples: list[float] = []
    recover_samples: list[float] = []
    e2e_samples: list[float] = []
    n_keys = 0
    executor = "serial"
    keys = None
    recovered = None
    for rep in range(repeat):
        start = time.perf_counter()
        candidates = mine_scrambler_keys(dump)
        mine_samples.append(time.perf_counter() - start)
        n_keys = len(candidates)
        keys = keys_matrix(candidates)

        # The fused kernel and the recovery after it time their own
        # stages; read them back instead of re-simulating the join,
        # verify and recovery as separate passes.
        fast_search = AesKeySearch(keys, key_bits=256)
        n_serial = len(fast_search.recover_keys(dump))
        join_samples.append(fast_search.stage_seconds["join"])
        verify_samples.append(fast_search.stage_seconds["verify"])
        recover_samples.append(fast_search.stage_seconds["recover"])

        start = time.perf_counter()
        scan = resilient_recover_keys(
            dump, key_bits=256, workers=workers, n_shards=workers
        )
        e2e_samples.append(time.perf_counter() - start)
        executor = scan.executor
        if recovered is None:
            recovered = scan.recovered
        masters = {r.master_key for r in scan.recovered}
        if not (master[:32] in masters and master[32:] in masters):
            raise SystemExit(
                "[harness] FATAL: scan failed to recover the planted XTS pair"
            )
        print(
            f"[harness] rep {rep + 1}/{repeat}: mine {mine_samples[-1]:.2f}s "
            f"({n_keys} keys), join {join_samples[-1]:.2f}s, "
            f"verify {verify_samples[-1]:.2f}s, "
            f"recover {recover_samples[-1]:.2f}s ({n_serial} keys), "
            f"end-to-end {e2e_samples[-1]:.2f}s "
            f"({workers} workers, {executor} executor, "
            f"{len(scan.recovered)} keys recovered)"
        )

    record: dict = {
        "schema": BENCH_SCHEMA,
        "config": {
            "size_mib": size_mib,
            "workers": workers,
            "seed": seed,
            "bit_error_rate": bit_error_rate,
            "smoke": smoke,
            "repeat": repeat,
        },
        "stages": {
            "mine": _stage(
                statistics.median(mine_samples), n_blocks, n_keys, 1,
                samples=mine_samples,
            ),
            "join": _stage(
                statistics.median(join_samples), n_blocks, n_keys, 1,
                samples=join_samples,
            ),
            "verify": _stage(
                statistics.median(verify_samples), n_blocks, n_keys, 1,
                samples=verify_samples,
            ),
            "recover": _stage(
                statistics.median(recover_samples), n_blocks, n_keys, 1,
                samples=recover_samples,
            ),
            "end_to_end": _stage(
                statistics.median(e2e_samples), n_blocks, n_keys, workers,
                samples=e2e_samples, executor=executor, shards=workers,
            ),
        },
        "baseline": None,
    }

    if with_baseline:
        # The seed scan times its own join, verify and recovery, exactly
        # as the fast path is read above.
        seed_search = SeedAesKeySearch(keys, key_bits=256)
        seed_search.recover_keys(dump)
        base_join = _stage(seed_search.stage_seconds["join"], n_blocks, n_keys, 1)
        base_verify = _stage(seed_search.stage_seconds["verify"], n_blocks, n_keys, 1)
        base_recover = _stage(seed_search.stage_seconds["recover"], n_blocks, n_keys, 1)
        print(
            f"[harness] baseline join: {base_join['wall_s']:.2f}s, "
            f"verify: {base_verify['wall_s']:.2f}s, "
            f"recover: {base_recover['wall_s']:.2f}s"
        )
        start = time.perf_counter()
        base_keys = len(seed_mine_scrambler_keys(dump))
        base_mine = _stage(time.perf_counter() - start, n_blocks, base_keys, 1)
        print(f"[harness] baseline mine: {base_mine['wall_s']:.2f}s ({base_keys} keys)")
        start = time.perf_counter()
        legacy = legacy_recover_keys(dump, key_bits=256, workers=workers, n_shards=workers)
        base_e2e_s = time.perf_counter() - start
        print(f"[harness] baseline end-to-end: {base_e2e_s:.2f}s")

        identical = _canonical_recoveries(recovered) == _canonical_recoveries(legacy)
        record["baseline"] = {
            "mine": base_mine,
            "join": base_join,
            "verify": base_verify,
            "recover": base_recover,
            "end_to_end": _stage(base_e2e_s, n_blocks, n_keys, workers),
        }
        record["identical_keys"] = identical
        record["speedup_vs_baseline"] = {
            name: (record["baseline"][name]["wall_s"] / record["stages"][name]["wall_s"])
            if record["stages"][name]["wall_s"] > 0
            else float("inf")
            for name in ("mine", "join", "verify", "recover", "end_to_end")
        }
        speedup = record["speedup_vs_baseline"]["end_to_end"]
        print(
            f"[harness] speedup vs seed: mine {record['speedup_vs_baseline']['mine']:.1f}x, "
            f"join {record['speedup_vs_baseline']['join']:.1f}x, "
            f"verify {record['speedup_vs_baseline']['verify']:.1f}x, "
            f"recover {record['speedup_vs_baseline']['recover']:.1f}x, "
            f"end-to-end {speedup:.1f}x; identical keys: {identical}"
        )
        if not identical:
            raise SystemExit(
                "[harness] FATAL: vectorised scan and seed scan disagree on "
                "the recovered keys"
            )
    return record


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev: a typo'd --smok must not silently run (and overwrite
    # the output record) as --smoke.
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--size-mib", type=int, default=64,
                        help="reference dump size in MiB (default 64)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the end-to-end stage (default 4)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--bit-error-rate", type=float, default=DEFAULT_BIT_ERROR_RATE)
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the seed-implementation baseline run")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 1 MiB dump, 2 workers, baseline included")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measure the fast stages N times, record medians "
                             "(default 1)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="regression gate: exit non-zero unless the "
                             "end-to-end speedup vs the seed baseline reaches "
                             "this floor with identical recoveries")
    parser.add_argument("--output", default="BENCH_scan.json",
                        help="where to write the JSON record (default BENCH_scan.json)")
    args = parser.parse_args(argv)
    if args.size_mib < 1:
        parser.error("--size-mib must be at least 1")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.min_speedup is not None and args.no_baseline:
        parser.error("--min-speedup needs the baseline (drop --no-baseline)")

    size_mib = 1 if args.smoke else args.size_mib
    workers = 2 if args.smoke else args.workers
    record = run_benchmark(
        size_mib=size_mib,
        workers=workers,
        seed=args.seed,
        bit_error_rate=args.bit_error_rate,
        with_baseline=not args.no_baseline,
        smoke=args.smoke,
        repeat=args.repeat,
    )
    validate_bench_record(record)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"[harness] wrote {args.output}")

    if args.min_speedup is not None:
        speedup = record["speedup_vs_baseline"]["end_to_end"]
        identical = record["identical_keys"]
        if not identical or speedup < args.min_speedup:
            print(
                f"[harness] GATE FAILED: end-to-end speedup {speedup:.1f}x "
                f"(floor {args.min_speedup:.1f}x), identical_keys={identical}",
                file=sys.stderr,
            )
            return 1
        print(
            f"[harness] gate passed: {speedup:.1f}x >= "
            f"{args.min_speedup:.1f}x, identical recoveries"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
