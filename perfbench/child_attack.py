"""One attack op in its own process, as an operator would run it.

Usage (PYTHONPATH must hold the program's ``src``)::

    python3 perfbench/child_attack.py --mode bulk --dump DUMP [--workers 2]
                                      [--trace SPANS.jsonl] [--setup-only]

The process imports the program and loads the dump (set-up), prints
``READY``, runs one attack, and prints one JSON line with the recovered
master keys.  ``bulk`` is the fixed-budget sharded scan
(``run_sharded(workers, n_shards=2)``); ``decode`` is the adaptive
ladder with the BP decode rung.  It never sees the planted keys.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("bulk", "decode"), required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", default=None, help="write spans here as JSONL")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.attack import AttackConfig, Ddr4ColdBootAttack
    from repro.dram.image import MemoryImage

    dump = MemoryImage.load_tolerant(args.dump)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def attack():
        if args.mode == "bulk":
            return Ddr4ColdBootAttack().run_sharded(dump, workers=args.workers, n_shards=2)
        config = AttackConfig(adaptive=True, adaptive_total_work=10,
                              decode_workers=args.workers)
        return Ddr4ColdBootAttack(config).run(dump)

    if tracer is None:
        report = attack()
    else:
        with tracer.span("bench.op", op=args.dump):
            report = attack()
        tracer.write_jsonl(args.trace)
    adaptive = report.adaptive or {}
    print(json.dumps({
        "keys": [key.hex() for key in report.master_keys],
        "estimated_ber": adaptive.get("estimated_decay_rate"),
        "complete": report.complete_scan,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
