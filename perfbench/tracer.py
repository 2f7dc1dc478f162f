"""Span tracing of the attack stack from outside the program.

The benchmark times the program's layers without touching ``src/``: it
replaces every public function and public method of the traced modules
with a wrapper that records one span per call.  A span carries its
name, start and end (``time.perf_counter_ns``), the span that caused
it, the thread it ran on, and the op or job id it belongs to.  Spans
stay in memory and are written as JSONL when the process ends.

Parents follow the caller through a ``contextvars`` variable.  Pool
threads do not inherit the submitting thread's context, so
``ThreadPoolExecutor.submit`` is wrapped to run each task in a copy of
the submitter's context: a shard searched on a pool thread is the child
of the call that fanned it out.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

#: The modules whose public functions and methods are traced.
TRACED_MODULES = (
    "repro.attack.keymine",
    "repro.attack.aes_search",
    "repro.attack.decode",
    "repro.attack.decode_shard",
    "repro.attack.adaptive",
    "repro.attack.parallel",
    "repro.resilience.checkpoint",
    "repro.service.jobstore",
    "repro.service.scheduler",
    "repro.service.server",
    "repro.dram.image",
)

def _len(value) -> int:
    return len(value) if value is not None else 0


def _decode_counts(args, kwargs, result) -> dict:
    converged = [bool(flag) for flag in result.converged]
    sweeps = result.table_iterations
    return {
        "tables": len(converged),
        "converged": sum(converged),
        "sweeps": int(sweeps.sum()) if sweeps is not None else result.iterations,
    }


def _find_hits_counts(args, kwargs, result) -> dict:
    # ``stage_seconds`` is reset at the top of every find_hits call and
    # each shard runs its own AesKeySearch, so the values read here
    # belong to exactly this call.
    stage = getattr(args[0], "stage_seconds", {})
    return {
        "hits": len(result),
        "join_s": float(stage.get("join", 0.0)),
        "verify_s": float(stage.get("verify", 0.0)),
    }


def _adaptive_counts(args, kwargs, result) -> dict:
    return {"stages_run": len(result.stages_run), "estimate": float(result.estimate.rate)}


#: Work counts read off a call's return value, keyed by span name.
COUNTERS = {
    "repro.attack.keymine.mine_scrambler_keys": lambda a, k, r: {"candidates": _len(r)},
    "repro.attack.aes_search.AesKeySearch.find_hits": _find_hits_counts,
    "repro.attack.aes_search.AesKeySearch.recover_keys": lambda a, k, r: {"keys": _len(r)},
    "repro.attack.decode.decode_schedules": _decode_counts,
    "repro.attack.decode.decode_schedule": _decode_counts,
    "repro.attack.decode_shard.decode_schedules_sharded": _decode_counts,
    "repro.attack.adaptive.AdaptiveRecoveryEngine.recover": _adaptive_counts,
    "repro.attack.parallel.resilient_recover_keys": lambda a, k, r: {"shards": r.n_shards},
}

#: Spans that start a unit of work get the unit's id as their op id.
OP_IDS = {
    "repro.service.server.execute_attack_job": lambda args, kwargs: args[0].job_id,
}

#: (span id, op id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._installed = False

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Record one span around the ``with`` body.

        The body may add work counts to the yielded dict.  ``op``
        defaults to the enclosing span's op id.
        """
        parent, inherited = _CURRENT.get() or (None, None)
        op = inherited if op is None else op
        sid = next(self._ids)
        token = _CURRENT.set((sid, op))
        counts: dict = {}
        error = None
        start = time.perf_counter_ns()
        try:
            yield counts
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            # list.append is atomic under the interpreter lock, so pool
            # threads record without a lock of their own.
            self.spans.append((sid, parent, name, op, threading.get_ident(),
                               start, end, counts or None, error))

    def wrap(self, fn, name: str):
        """``fn`` with one span recorded around every call."""
        counter = COUNTERS.get(name)
        op_of = OP_IDS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, op_of(args, kwargs) if op_of else None) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
            return result

        return traced

    # --------------------------------------------------------- installation

    def install(self, module_names=TRACED_MODULES) -> int:
        """Wrap every public callable of ``module_names``; returns how many.

        Names other modules bound with ``from module import name`` are
        rebound too, so a call through any alias is traced.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        replaced: dict[int, tuple] = {}
        wrapped = 0
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module_name:
                    continue
                name = f"{module_name}.{attr}"
                if inspect.isfunction(value):
                    wrapper = self.wrap(value, name)
                    replaced[id(value)] = (value, wrapper)
                    setattr(module, attr, wrapper)
                    wrapped += 1
                elif inspect.isclass(value):
                    wrapped += self._install_methods(value, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = replaced.get(id(value), (None, None))
                if value is original:
                    setattr(module, attr, wrapper)
        _propagate_context_to_pool_threads()
        return wrapped

    def _install_methods(self, cls, class_name: str) -> int:
        wrapped = 0
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{class_name}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name))
            else:
                continue  # properties, constants, nested classes
            wrapped += 1
        return wrapped

    # -------------------------------------------------------------- output

    def records(self) -> list[dict]:
        """The spans as JSON-ready dicts, in completion order."""
        return [
            {
                "id": sid, "parent": parent, "name": name, "op": op, "thread": thread,
                "start_ns": start, "end_ns": end, "counts": counts, "error": error,
            }
            for sid, parent, name, op, thread, start, end, counts, error in self.spans
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


_POOL_PATCHED = False


def _propagate_context_to_pool_threads() -> None:
    """Run pool tasks in a copy of the submitter's context (idempotent)."""
    global _POOL_PATCHED
    if _POOL_PATCHED:
        return
    _POOL_PATCHED = True
    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
