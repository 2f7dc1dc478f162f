"""The benchmark's arithmetic: percentiles, self time and layer metrics.

Self time is a span's duration minus the part of its interval that its
child spans cover.  Children may run on other threads and overlap each
other, so coverage is the length of the union of their intervals,
clipped to the parent's.
"""

from __future__ import annotations

import statistics

#: Layer of a span, by the module its name starts with.
LAYER_PREFIXES = (
    ("repro.attack.keymine.", "keymine"),
    ("repro.attack.aes_search.", "aes_search"),
    ("repro.attack.decode.", "decode"),
    ("repro.attack.decode_shard.", "decode"),
    ("repro.attack.adaptive.", "adaptive"),
    ("repro.attack.parallel.", "parallel"),
    ("repro.resilience.checkpoint.", "resilience"),
    ("repro.service.", "service"),
    ("repro.dram.image.", "dram"),
    ("bench.", "bench"),
)

MINE = "repro.attack.keymine.mine_scrambler_keys"
PRECOMPUTE = "repro.attack.aes_search.KeyFingerprintCache.precompute"
FIND_HITS = "repro.attack.aes_search.AesKeySearch.find_hits"
RECOVER = "repro.attack.aes_search.AesKeySearch.recover_keys"
ADAPTIVE = "repro.attack.adaptive.AdaptiveRecoveryEngine.recover"
ESTIMATE = "repro.attack.adaptive.estimate_decay_rate"
TRIAGE = "repro.attack.adaptive.triage_regions"
RESILIENT = "repro.attack.parallel.resilient_recover_keys"
JOURNAL = "repro.resilience.checkpoint.CheckpointJournal.record"
WAL_APPEND = "repro.service.jobstore.JobStore.append_event"
EXECUTE_JOB = "repro.service.server.execute_attack_job"
LOADS = (
    "repro.dram.image.MemoryImage.load",
    "repro.dram.image.MemoryImage.load_tolerant",
    "repro.dram.image.MemoryImage.load_mapped",
)
#: Root spans: one per attack op (benchmark-owned) or per service job.
OP_ROOTS = ("bench.op", EXECUTE_JOB)


# ------------------------------------------------------------ percentiles


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(samples, beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``, or ``None`` when
    there are too few samples for any such percentile.  The percentile
    is the share of samples at or below the returned one.
    """
    ordered = sorted(samples)
    index = len(ordered) - 1 - beyond
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


# -------------------------------------------------------------- span tree


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    run_start = run_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


class SpanTree:
    """Spans of one or more processes, indexed by (process, span id)."""

    def __init__(self, processes: list[list[dict]]) -> None:
        self.spans: list[dict] = []
        self.children: dict[tuple, list[dict]] = {}
        self.by_key: dict[tuple, dict] = {}
        for index, records in enumerate(processes):
            for record in records:
                span = dict(record, key=(index, record["id"]),
                            parent_key=None if record["parent"] is None
                            else (index, record["parent"]),
                            layer=layer_of(record["name"]))
                self.spans.append(span)
                self.by_key[span["key"]] = span
        for span in self.spans:
            if span["parent_key"] is not None:
                self.children.setdefault(span["parent_key"], []).append(span)

    @staticmethod
    def duration_ns(span: dict) -> int:
        return span["end_ns"] - span["start_ns"]

    def ancestors(self, span: dict):
        key = span["parent_key"]
        while key is not None and key in self.by_key:
            parent = self.by_key[key]
            yield parent
            key = parent["parent_key"]

    def named(self, *names: str) -> list[dict]:
        return [span for span in self.spans if span["name"] in names]

    def self_ns(self, span: dict, only=None) -> int:
        """Duration minus child coverage; ``only`` filters the children."""
        kids = [kid for kid in self.children.get(span["key"], [])
                if only is None or only(kid)]
        intervals = [(kid["start_ns"], kid["end_ns"]) for kid in kids]
        return self.duration_ns(span) - covered_ns(intervals, span["start_ns"], span["end_ns"])

    def seconds(self, *names: str) -> float:
        return sum(self.duration_ns(span) for span in self.named(*names)) / 1e9

    def count(self, name: str, counter: str) -> float:
        return sum((span.get("counts") or {}).get(counter, 0) for span in self.named(name))

    def outermost(self, layer: str) -> list[dict]:
        """A layer's spans that have no ancestor in the same layer."""
        return [span for span in self.spans if span["layer"] == layer
                and not any(up["layer"] == layer for up in self.ancestors(span))]

    def busy_s(self, layer: str) -> float:
        return sum(self.duration_ns(span) for span in self.outermost(layer)) / 1e9


# ---------------------------------------------------------- layer metrics


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """Per-layer metrics from spans; times and counts are per op.

    An op is one root span (an attack or a service job).  Ratios are
    taken over the totals.
    """
    roots = tree.named(*OP_ROOTS)
    ops = max(1, len(roots))
    root_ns = sum(tree.duration_ns(span) for span in roots)

    hits = tree.count(FIND_HITS, "hits")
    keys = tree.count(RECOVER, "keys")
    recover_self = sum(
        tree.self_ns(span, only=lambda kid: kid["name"] == FIND_HITS or kid["layer"] == "decode")
        for span in tree.named(RECOVER)
    ) / 1e9
    decodes = tree.outermost("decode")
    tables = sum((span.get("counts") or {}).get("tables", 0) for span in decodes)
    converged = sum((span.get("counts") or {}).get("converged", 0) for span in decodes)
    sweeps = sum((span.get("counts") or {}).get("sweeps", 0) for span in decodes)
    in_adaptive = [span for span in tree.named(MINE)
                   if any(up["name"] == ADAPTIVE for up in tree.ancestors(span))]
    pre_shard = 0
    for span in tree.named(RESILIENT):
        starts = [kid["start_ns"] for kid in tree.spans
                  if kid["name"] == RECOVER
                  and any(up["key"] == span["key"] for up in tree.ancestors(kid))]
        if starts:
            pre_shard += min(starts) - span["start_ns"]
    unattributed = sum(tree.self_ns(span) for span in roots)
    keymine_busy = tree.busy_s("keymine")

    per_op = {
        "keymine.calls": len(tree.named(MINE)),
        "keymine.busy_s": keymine_busy,
        "keymine.candidates": tree.count(MINE, "candidates"),
        "aes_search.fingerprint_s": tree.seconds(PRECOMPUTE),
        "aes_search.find_hits_s": tree.seconds(FIND_HITS),
        "aes_search.join_s": tree.count(FIND_HITS, "join_s"),
        "aes_search.verify_s": tree.count(FIND_HITS, "verify_s"),
        "aes_search.hits": hits,
        "aes_search.recover_self_s": recover_self,
        "decode.busy_s": tree.busy_s("decode"),
        "decode.tables": tables,
        "decode.sweeps": sweeps,
        "decode.converged": converged,
        "decode.abstained": tables - converged,
        "adaptive.estimate_s": tree.seconds(ESTIMATE),
        "adaptive.triage_s": tree.seconds(TRIAGE),
        "adaptive.mine_calls": len(in_adaptive),
        "adaptive.stages_run": tree.count(ADAPTIVE, "stages_run"),
        "parallel.wall_s": tree.seconds(RESILIENT),
        "parallel.shards": tree.count(RESILIENT, "shards"),
        "parallel.pre_shard_s": pre_shard / 1e9,
        "resilience.journal_records": len(tree.named(JOURNAL)),
        "resilience.journal_s": tree.seconds(JOURNAL),
        "service.wal_appends": len(tree.named(WAL_APPEND)),
        "service.wal_s": tree.seconds(WAL_APPEND),
        "dram.load_s": tree.seconds(*LOADS),
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics.update({
        "aes_search.keys_per_hit": keys / hits if hits else 0.0,
        "decode.converged_frac": converged / tables if tables else 0.0,
        "keymine.busy_frac": keymine_busy * 1e9 / root_ns if root_ns else 0.0,
        "trace.unattributed_frac": unattributed / root_ns if root_ns else 0.0,
    })
    return metrics

