"""``repro serve`` with the benchmark's span wrappers installed.

Usage (PYTHONPATH must hold the program's ``src``)::

    python3 perfbench/serve_launcher.py SPANS.jsonl serve SERVICE_DIR [serve options]

Installs the same public-function wrappers as a traced attack op, then
hands the remaining arguments to ``repro.cli.main``.  Service jobs run
on the scheduler's threads, so every job's spans land in this process;
``execute_attack_job`` spans carry the job id as their op id.  The
spans are written to SPANS.jsonl once the server has drained and
returned.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
