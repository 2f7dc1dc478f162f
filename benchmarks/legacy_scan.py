"""The seed scan, frozen in time: the benchmark harness's baseline.

:class:`SeedAesKeySearch` restores the hot paths exactly as they
shipped before the vectorisation PR — the Python dict fingerprint join
(with its band ``.copy().view(uint16)`` double-copy), the per-round
verification loop, the unfiltered neighbour extension, the pure-Python
per-ballot ``reconstruct_schedule``/``expand_key`` recovery machinery,
the popcount-table region scoring, and the word-list greedy schedule
repair.  :func:`legacy_recover_keys` likewise reproduces the seed
dispatch — pickling every shard's bytes and the whole key matrix into
each task — and mines with :func:`seed_mine_scrambler_keys`, the dict
walk + popcount-table merge the vectorised miner replaced.
:func:`greedy_mine_scrambler_keys` is the per-row greedy merge the
batched miner replaced: the exactness oracle for its candidates.
:class:`PerWindowAesKeySearch` is post-hit recovery as it ran one
window at a time (with :func:`legacy_batch_expand_from_window` and
:func:`legacy_repair_observed_table`): the exactness oracle for the
batched recovery.

Keeping the old code importable (rather than checking out an old
commit) lets ``benchmarks/harness.py`` measure the speedup *and* assert
byte-identical results in a single process, on identical inputs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.attack.aes_search import (
    AesKeySearch,
    AesVariant,
    RecoveredAesKey,
    ScheduleHit,
    _all_pairs,
    _fingerprints,
    _t_forward,
    confidence_score,
    reconstruct_schedule,
    vote_correct_table,
)
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    _majority_vote,
    keys_matrix,
)
from repro.attack.litmus import key_litmus_mismatch_bits
from repro.attack.parallel import merge_recovered, shard_image
from repro.crypto.aes import (
    _ROUNDS_FOR_NK,
    SBOX,
    Rcon,
    batch_next_round_key,
    expand_key,
    schedule_bytes,
)
from repro.dram.image import MemoryImage
from repro.resilience.executor import ResilientShardRunner
from repro.util.bits import POPCOUNT_TABLE
from repro.util.blocks import BLOCK_SIZE


def seed_mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    min_count: int = 1,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """``mine_scrambler_keys`` as the seed shipped it.

    Exact duplicates are grouped with a Python dict walk over every
    passing block, merge distances run through the popcount table, and
    every cluster — singletons included — pays for a full majority
    vote; the costs the vectorised miner removed.
    """
    if merge_radius_bits < 0 or tolerance_bits < 0:
        raise ValueError("tolerances must be non-negative")
    data = image.data
    if scan_limit_bytes is not None:
        data = data[: scan_limit_bytes - scan_limit_bytes % BLOCK_SIZE]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    mismatch = key_litmus_mismatch_bits(matrix)
    passing = matrix[mismatch <= tolerance_bits]
    if passing.shape[0] == 0:
        return []

    exact_groups: dict[bytes, int] = {}
    for row in passing:
        value = row.tobytes()
        exact_groups[value] = exact_groups.get(value, 0) + 1

    ordered = sorted(exact_groups.items(), key=lambda item: (-item[1], item[0]))
    rep_array = np.empty((len(ordered), BLOCK_SIZE), dtype=np.uint8)
    n_reps = 0
    counts: list[int] = []
    members: list[list[tuple[bytes, int]]] = []
    for value, count in ordered:
        row = np.frombuffer(value, dtype=np.uint8)
        if n_reps and merge_radius_bits > 0:
            distances = POPCOUNT_TABLE[rep_array[:n_reps] ^ row].sum(axis=1)
            best = int(np.argmin(distances))
            if int(distances[best]) <= merge_radius_bits:
                counts[best] += count
                members[best].append((value, count))
                continue
        rep_array[n_reps] = row
        n_reps += 1
        counts.append(count)
        members.append([(value, count)])

    candidates = []
    for cluster, count in zip(members, counts):
        if count < min_count:
            continue
        rows = []
        for value, value_count in cluster:
            rows.extend([np.frombuffer(value, dtype=np.uint8)] * min(value_count, 32))
        voted = _majority_vote(np.vstack(rows))
        candidates.append(
            CandidateKey(
                key=voted,
                count=count,
                litmus_mismatch_bits=int(
                    key_litmus_mismatch_bits(
                        np.frombuffer(voted, dtype=np.uint8).reshape(1, -1)
                    )[0]
                ),
            )
        )
    candidates.sort(key=lambda c: (-c.count, c.key))
    return candidates


def greedy_mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    min_count: int = 1,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """``mine_scrambler_keys`` as a per-row greedy walk: the exactness oracle.

    This is the miner before its merge was batched.  Unique passing
    rows are visited in (count desc, lexicographic) order; each merges
    into the nearest earlier representative within
    ``merge_radius_bits`` (ties to the lowest representative index) or
    becomes a new one.  Candidates are then voted and ranked exactly
    as the production miner does, so its output must match
    :func:`repro.attack.keymine.mine_scrambler_keys` byte-for-byte.
    (:func:`seed_mine_scrambler_keys` breaks ranking ties differently
    and cannot serve as that reference.)
    """
    if merge_radius_bits < 0 or tolerance_bits < 0:
        raise ValueError("tolerances must be non-negative")
    data = image.data
    if scan_limit_bytes is not None:
        data = data[: scan_limit_bytes - scan_limit_bytes % BLOCK_SIZE]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    mismatch = key_litmus_mismatch_bits(matrix)
    passing = matrix[mismatch <= tolerance_bits]
    if passing.shape[0] == 0:
        return []

    # Group exact duplicates first — vectorised: np.unique over rows
    # replaces a Python dict walk of every passing block.  Then merge
    # near-duplicates.
    unique_rows, unique_counts = np.unique(passing, axis=0, return_counts=True)
    # Representatives in descending count order, so the best-supported
    # version of a key absorbs its decayed variants.  The stable sort
    # keeps np.unique's lexicographic order as the tie-break, matching
    # the dict-based ordering this replaced.
    order = np.argsort(-unique_counts, kind="stable")
    unique_rows = unique_rows[order]
    ordered_counts = unique_counts[order].tolist()

    # Greedy nearest-representative merge.  The Hamming distances run on
    # uint64 views with a hardware popcount — 8 words per key instead of
    # 64 table lookups.  The candidate set per row comes from an *exact*
    # banded lookup: split the 64 bytes into ``merge_radius_bits + 1``
    # disjoint byte bands — by pigeonhole, any representative within the
    # merge radius matches at least one band byte-for-byte — and keep a
    # dict per band from band bytes to the representatives holding them.
    # Each row then measures exact distances only against its few band
    # candidates instead of every representative, turning the
    # O(uniques × reps) walk into O(uniques × candidates) with identical
    # assignments (every in-radius representative is a candidate, and
    # scanning candidates in ascending index keeps argmin's tie-break).
    unique_words = unique_rows.view(np.uint64)
    rep_words = np.empty((len(ordered_counts), BLOCK_SIZE // 8), dtype=np.uint64)
    n_reps = 0
    counts: list[int] = []
    members: list[list[tuple[np.ndarray, int]]] = []
    # Pigeonhole needs merge_radius_bits + 1 disjoint bands, and bands
    # are byte-aligned, so radii past 63 bits fall back to the dense
    # walk (they merge almost everything anyway, so reps stay few).
    use_bands = 0 < merge_radius_bits < BLOCK_SIZE
    if use_bands:
        n_bands = merge_radius_bits + 1
        edges = np.linspace(0, BLOCK_SIZE, n_bands + 1, dtype=np.int64)
        band_slices = [slice(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        band_reps: list[dict[bytes, list[int]]] = [{} for _ in band_slices]
    for index, count in enumerate(ordered_counts):
        row = unique_rows[index]
        if n_reps and merge_radius_bits > 0:
            if use_bands:
                row_bytes = row.tobytes()
                candidate_set: set[int] = set()
                for lookup, band in zip(band_reps, band_slices):
                    hits = lookup.get(row_bytes[band])
                    if hits is not None:
                        candidate_set.update(hits)
                candidates_idx = sorted(candidate_set)
                if not candidates_idx:
                    merged = False
                else:
                    distances = np.bitwise_count(
                        rep_words[candidates_idx] ^ unique_words[index]
                    ).sum(axis=1, dtype=np.int64)
                    best_pos = int(np.argmin(distances))
                    merged = int(distances[best_pos]) <= merge_radius_bits
                    best = candidates_idx[best_pos]
            else:
                distances = np.bitwise_count(rep_words[:n_reps] ^ unique_words[index]).sum(
                    axis=1, dtype=np.int64
                )
                best = int(np.argmin(distances))
                merged = int(distances[best]) <= merge_radius_bits
            if merged:
                counts[best] += count
                members[best].append((row, count))
                continue
        if use_bands:
            row_bytes = row.tobytes()
            for lookup, band in zip(band_reps, band_slices):
                lookup.setdefault(row_bytes[band], []).append(n_reps)
        rep_words[n_reps] = unique_words[index]
        n_reps += 1
        counts.append(count)
        members.append([(row, count)])

    candidates = []
    for cluster, count in zip(members, counts):
        if count < min_count:
            continue
        if len(cluster) == 1:
            # Majority over identical copies is the copy itself.
            voted = cluster[0][0].tobytes()
        else:
            # Expand weighted members for the majority vote (bounded:
            # decay variants are few; weight caps keep this small).
            rows = []
            for row, value_count in cluster:
                rows.extend([row] * min(value_count, 32))
            voted = _majority_vote(np.vstack(rows))
        # Residual mismatch of the vote against its own support: the
        # decay the vote filtered out.  Weighted exactly as the vote
        # was, so residual / support_bits estimates the per-bit decay
        # rate of the blocks behind this candidate.
        voted_words = np.frombuffer(voted, dtype=np.uint8).view(np.uint64)
        residual = 0
        weight_total = 0
        for row, value_count in cluster:
            weight = min(value_count, 32)
            distance = int(np.bitwise_count(row.view(np.uint64) ^ voted_words).sum())
            residual += weight * distance
            weight_total += weight
        candidates.append(
            CandidateKey(
                key=voted,
                count=count,
                litmus_mismatch_bits=residual,
                support_bits=8 * BLOCK_SIZE * weight_total,
            )
        )
    # Frequency first (true keys recur); among equally-frequent
    # candidates the one whose support sits *closest* to its vote wins
    # — a large residual marks a coincidental merge, not a real key.
    candidates.sort(key=lambda c: (-c.count, c.litmus_mismatch_bits, c.key))
    return candidates


def _seed_repair_observed_table(
    table: np.ndarray,
    key_bits: int,
    max_steps: int = 64,
    known_bytes: np.ndarray | None = None,
) -> np.ndarray:
    """``repair_observed_table`` as the seed shipped it: pure Python.

    Words live in a Python list, residues come from per-word
    ``_t_forward`` calls, and the objective is ``bin(v).count("1")`` —
    the exact costs the vectorised rewrite removed.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    n_words = len(table) // 4
    if n_words < nk + 1:
        return table
    words = [
        int.from_bytes(bytes(table[4 * i : 4 * i + 4]), "big") for i in range(n_words)
    ]
    if known_bytes is None:
        word_known = [True] * n_words
    else:
        word_known = [bool(known_bytes[4 * i : 4 * i + 4].all()) for i in range(n_words)]

    def violations(ws: list[int]) -> dict[int, int]:
        out = {}
        for i in range(nk, n_words):
            if not (word_known[i] and word_known[i - nk] and word_known[i - 1]):
                continue
            residue = ws[i] ^ ws[i - nk] ^ _t_forward(ws[i - 1], i, nk)
            if residue:
                out[i] = residue
        return out

    def residue_weight(ws: list[int]) -> int:
        return sum(bin(v).count("1") for v in violations(ws).values())

    for _ in range(max_steps):
        current = violations(words)
        if not current:
            break
        base_weight = residue_weight(words)
        best_trial = None
        best_weight = base_weight
        for i, residue in current.items():
            for target in (i, i - nk):
                trial = words.copy()
                trial[target] ^= residue
                weight = residue_weight(trial)
                if weight < best_weight:
                    best_weight = weight
                    best_trial = trial
            uses_sbox = (i % nk == 0) or (nk > 6 and i % nk == 4)
            if uses_sbox:
                for bit in range(32):
                    trial = words.copy()
                    trial[i - 1] ^= 1 << bit
                    weight = residue_weight(trial)
                    if weight < best_weight:
                        best_weight = weight
                        best_trial = trial
        if best_trial is None:
            break
        words = best_trial
    return np.frombuffer(
        b"".join(w.to_bytes(4, "big") for w in words), dtype=np.uint8
    ).copy()


class SeedAesKeySearch(AesKeySearch):
    """:class:`AesKeySearch` exactly as the seed implemented it.

    The scan is the seed's unfused loop: one full-dump dict join and one
    verification pass per (offset, phase).  It is the reference the
    fused streaming kernel of :meth:`AesKeySearch.find_hits` is pinned
    against, at join radius 0 and 1.
    """

    def find_hits(self, image: MemoryImage) -> list[ScheduleHit]:
        blocks = image.blocks_matrix()
        self.stage_seconds = {"join": 0.0, "verify": 0.0, "recover": 0.0}
        stage = self.stage_seconds
        hits: list[ScheduleHit] = []
        for offset in self.offsets:
            for phase in self.variant.phases():
                tick = time.perf_counter()
                pairs = self._candidate_pairs(blocks, offset, phase)
                tock = time.perf_counter()
                stage["join"] += tock - tick
                hits.extend(self._verify_pairs(blocks, pairs, offset, phase))
                stage["verify"] += time.perf_counter() - tock
            if self.on_progress is not None:
                self.on_progress()
        hits.sort(key=lambda h: (h.block_index, h.offset, h.round_index))
        return hits

    def _extend_hits(self, blocks: np.ndarray, seeds: list[ScheduleHit]) -> list[ScheduleHit]:
        """Every (neighbour block, key) pair through the full verification.

        No fingerprint or lower-bound prefilter: the seed's neighbour
        walk, frozen so the baseline keeps paying its cost.
        """
        n_blocks, n_keys = blocks.shape[0], self.keys.shape[0]
        radius = self.extension_radius_blocks
        interesting = sorted(
            {
                b
                for hit in seeds
                for b in range(
                    max(0, hit.block_index - radius), min(n_blocks, hit.block_index + radius + 1)
                )
            }
        )
        pairs = _all_pairs(np.asarray(interesting, dtype=np.int64), n_keys)
        extended: list[ScheduleHit] = []
        for offset in self.offsets:
            for phase in self.variant.phases():
                extended.extend(self._verify_pairs(blocks, pairs, offset, phase))
            if self.on_progress is not None:
                self.on_progress()
        return extended

    def _window_candidates(
        self, span: np.ndarray, round_index: int, repair_bits: int
    ) -> list[bytes]:
        """Master-key ballots from one descrambled window (+ bit repairs)."""
        window = span[: self.variant.window_bytes]
        masters: list[bytes] = []
        repairs = [()] if repair_bits == 0 else [(), *((bit,) for bit in range(len(window) * 8))]
        for flips in repairs:
            candidate = window.copy()
            for bit in flips:
                candidate[bit // 8] ^= 0x80 >> (bit % 8)
            words = [
                int.from_bytes(candidate[4 * i : 4 * i + 4].tobytes(), "big")
                for i in range(self.variant.nk)
            ]
            try:
                schedule = reconstruct_schedule(words, 4 * round_index, self.variant.key_bits)
            except ValueError:
                continue
            masters.append(schedule[: self.variant.key_bits // 8])
        return masters

    def _span_score(self, expansion: np.ndarray, spans: list[tuple[int, np.ndarray]]) -> int:
        """Total Hamming distance between an expansion and observed windows."""
        score = 0
        for round_index, span in spans:
            expected = expansion[16 * round_index : 16 * round_index + len(span)]
            score += int(POPCOUNT_TABLE[expected ^ span].sum())
        return score

    def _region_mismatch(
        self, blocks: np.ndarray, base: int, expansion: np.ndarray
    ) -> tuple[int, int]:
        length = len(expansion)
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return (8 * length, 8 * length)
        mismatch = 0
        counted_bits = 0
        for b in range(first, last + 1):
            lo = max(base, b * BLOCK_SIZE)
            hi = min(base + length, (b + 1) * BLOCK_SIZE)
            expected = expansion[lo - base : hi - base]
            observed = blocks[b, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
            per_key = POPCOUNT_TABLE[
                (observed ^ self.keys[:, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]) ^ expected
            ].sum(axis=1, dtype=np.int64)
            best = int(per_key.min())
            slice_bits = 8 * (hi - lo)
            if best > 0.35 * slice_bits:
                continue
            mismatch += best
            counted_bits += slice_bits
        if counted_bits < 4 * length:
            return (8 * length, 8 * length)
        return (mismatch, counted_bits)

    def _observed_table(
        self, blocks: np.ndarray, base: int, guess: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        length = len(guess)
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return None
        pieces = []
        known_pieces = []
        for b in range(first, last + 1):
            lo = max(base, b * BLOCK_SIZE)
            hi = min(base + length, (b + 1) * BLOCK_SIZE)
            observed = blocks[b, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
            per_key = POPCOUNT_TABLE[
                (observed ^ self.keys[:, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE])
                ^ guess[lo - base : hi - base]
            ].sum(axis=1, dtype=np.int64)
            best = int(per_key.min())
            if best > 0.35 * 8 * (hi - lo):
                pieces.append(guess[lo - base : hi - base].copy())
                known_pieces.append(np.zeros(hi - lo, dtype=bool))
            else:
                pieces.append(
                    observed
                    ^ self.keys[int(per_key.argmin()), lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
                )
                known_pieces.append(np.ones(hi - lo, dtype=bool))
        return np.concatenate(pieces), np.concatenate(known_pieces)

    def _candidate_pairs(self, blocks: np.ndarray, offset: int, phase: int) -> np.ndarray:
        span = self.variant.span_bytes
        nk = self.variant.nk
        block_fp = _fingerprints(blocks[:, offset : offset + span], nk, phase)
        key_fp = _fingerprints(self.keys[:, offset : offset + span], nk, phase)
        n_bands = block_fp.shape[1] // 2
        block_bands = (
            block_fp.reshape(-1, n_bands, 2).copy().view(np.uint16).reshape(-1, n_bands)
        )
        key_bands = (
            key_fp.reshape(-1, n_bands, 2).copy().view(np.uint16).reshape(-1, n_bands)
        )
        return self._banded_join_dict(block_bands, key_bands)

    def _banded_join_dict(self, block_bands: np.ndarray, key_bands: np.ndarray) -> np.ndarray:
        """The Python hash join: a pair joins when any band matches.

        At ``join_radius_bits == 1`` each block band value also probes
        its 16 single-bit neighbours.  Returns ``(block, key)`` rows in
        ascending lexicographic order.
        """
        probe_masks = (
            [0] if not self.join_radius_bits else [0, *(1 << i for i in range(16))]
        )
        pairs: set[tuple[int, int]] = set()
        for band in range(block_bands.shape[1]):
            key_lookup: dict[int, list[int]] = {}
            for k, value in enumerate(key_bands[:, band].tolist()):
                key_lookup.setdefault(value, []).append(k)
            for b, value in enumerate(block_bands[:, band].tolist()):
                for mask in probe_masks:
                    hit_keys = key_lookup.get(value ^ mask)
                    if hit_keys is not None:
                        pairs.update((b, k) for k in hit_keys)
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(sorted(pairs), dtype=np.int64)

    def _verify_pairs(
        self,
        blocks: np.ndarray,
        pairs,
        offset: int,
        phase: int,
        tolerance_bits: int | None = None,
    ) -> list[ScheduleHit]:
        if len(pairs) == 0:
            return []
        tolerance = self.verify_tolerance_bits if tolerance_bits is None else tolerance_bits
        variant = self.variant
        nk = variant.nk
        pair_array = np.asarray(pairs, dtype=np.int64)
        data = (
            blocks[pair_array[:, 0], offset : offset + variant.span_bytes]
            ^ self.keys[pair_array[:, 1], offset : offset + variant.span_bytes]
        )
        window = data[:, : variant.window_bytes]
        check = data[:, variant.window_bytes :]
        hits: list[ScheduleHit] = []
        for round_index in variant.rounds_with_phase(phase):
            predicted = batch_next_round_key(window, nk=nk, first_word_index=4 * round_index)
            mismatch = POPCOUNT_TABLE[predicted ^ check].sum(axis=1, dtype=np.int64)
            for row in np.nonzero(mismatch <= tolerance)[0]:
                hits.append(
                    ScheduleHit(
                        block_index=int(pair_array[row, 0]),
                        key_index=int(pair_array[row, 1]),
                        offset=offset,
                        round_index=round_index,
                        mismatch_bits=int(mismatch[row]),
                        key_bits=variant.key_bits,
                    )
                )
        return hits

    def _recover_from_group(
        self, blocks: np.ndarray, base: int, group: list[ScheduleHit]
    ) -> RecoveredAesKey | None:
        variant = self.variant
        spans: list[tuple[int, np.ndarray]] = []
        for hit in group:
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )
            spans.append((hit.round_index, span))

        group_sorted = sorted(zip(group, spans), key=lambda item: item[0].mismatch_bits)
        best_master: bytes | None = None
        best_fraction = 1.0
        best_agreement = 0.0
        schedule_bits = 8 * 4 * variant.total_words

        def consider(ballots: list[tuple[bytes, int]]) -> None:
            nonlocal best_master, best_fraction, best_agreement
            for master, _span_score in sorted(ballots, key=lambda item: item[1])[:8]:
                expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                mismatch, counted_bits = self._region_mismatch(blocks, base, expansion)
                fraction = mismatch / counted_bits
                if fraction < best_fraction:
                    best_fraction = fraction
                    best_agreement = max(0.0, (counted_bits - mismatch) / schedule_bits)
                    best_master = master

        clearly_clean = min(0.02, self.accept_mismatch_fraction)

        for repair in range(self.repair_bits + 1):
            scored: dict[bytes, int] = {}
            for hit, (round_index, span) in group_sorted:
                for master in self._window_candidates(span, round_index, repair):
                    if master not in scored:
                        expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                        scored[master] = self._span_score(expansion, spans)
            consider(list(scored.items()))
            if best_master is not None and best_fraction <= clearly_clean:
                break

        if best_master is not None and best_fraction > clearly_clean:
            for _iteration in range(3):
                before = best_fraction
                guess = np.frombuffer(expand_key(best_master), dtype=np.uint8)
                observed = self._observed_table(blocks, base, guess)
                if observed is None:
                    break
                table, known = observed
                table = _seed_repair_observed_table(table, variant.key_bits, known_bytes=known)
                for repair in range(self.repair_bits + 1):
                    scored = {}
                    for round_index in range(0, (variant.total_words - variant.nk) // 4 + 1):
                        lo = 16 * round_index
                        window = table[lo : lo + variant.window_bytes]
                        if len(window) < variant.window_bytes:
                            break
                        if not known[lo : lo + variant.window_bytes].all():
                            continue
                        for master in self._window_candidates(window, round_index, repair):
                            if master not in scored:
                                expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                                scored[master] = int(
                                    POPCOUNT_TABLE[(expansion ^ table)[known]].sum()
                                )
                    consider(list(scored.items()))
                    if best_fraction <= clearly_clean:
                        break
                if best_fraction <= clearly_clean or best_fraction >= before:
                    break

        if best_master is None or best_fraction > self.accept_mismatch_fraction:
            return None
        expansion = np.frombuffer(expand_key(best_master), dtype=np.uint8)
        votes = sum(
            1
            for round_index, span in spans
            if int(
                POPCOUNT_TABLE[
                    expansion[16 * round_index : 16 * round_index + len(span)] ^ span
                ].sum()
            )
            <= self.accept_mismatch_fraction * 8 * len(span)
        )
        return RecoveredAesKey(
            master_key=best_master,
            key_bits=variant.key_bits,
            votes=votes,
            first_block_index=min(h.block_index for h in group),
            match_fraction=1.0 - best_fraction,
            region_agreement=best_agreement,
            hits=tuple(sorted(group, key=lambda h: (h.block_index, h.offset))),
        )


def _legacy_batch_transform(temp: np.ndarray, index: int, nk: int) -> np.ndarray:
    """The expansion transform T at ``index`` applied to ``(N, 4)`` byte words."""
    if index % nk == 0:
        out = SBOX[np.roll(temp, -1, axis=1)]
        out[:, 0] ^= Rcon(index // nk)
        return out
    if nk > 6 and index % nk == 4:
        return SBOX[temp]
    return temp


def legacy_batch_expand_from_window(
    windows: np.ndarray, first_index: int, nk: int
) -> np.ndarray:
    """``batch_expand_from_window`` on byte columns, one start per call.

    The exactness oracle for the word-level expansion: every step is a
    ``(N, 4)`` byte-matrix transform, one ``np.roll`` and ``Rcon`` call
    per round-constant word.
    """
    if nk not in _ROUNDS_FOR_NK:
        raise ValueError(f"unsupported Nk: {nk}")
    windows = np.asarray(windows, dtype=np.uint8)
    if windows.ndim != 2 or windows.shape[1] != 4 * nk:
        raise ValueError(f"windows must be (N, {4 * nk}), got {windows.shape}")
    total = 4 * (_ROUNDS_FOR_NK[nk] + 1)
    if first_index < 0 or first_index + nk > total:
        raise ValueError("window does not fit the schedule")
    window = [windows[:, 4 * w : 4 * w + 4] for w in range(nk)]
    # Backwards: invert w[i] = w[i-Nk] ^ T_i(w[i-1]) at the window head.
    index = first_index
    while index > 0:
        i = index + nk - 1
        temp = _legacy_batch_transform(window[-2], i, nk)
        window = [window[-1] ^ temp] + window[:-1]
        index -= 1
    # Forwards from word nk to the end of the schedule.
    words = list(window)
    i = nk
    while len(words) < total:
        temp = _legacy_batch_transform(words[-1], i, nk)
        words.append(words[-nk] ^ temp)
        i += 1
    return np.concatenate(words, axis=1)


def legacy_repair_observed_table(
    table: np.ndarray,
    key_bits: int,
    max_steps: int = 64,
    known_bytes: np.ndarray | None = None,
) -> np.ndarray:
    """``repair_observed_table`` with per-candidate payload rows: the oracle.

    The production repair builds its candidate targets and payloads
    with numpy; this is the per-equation loop it replaced, which must
    pick the same trials in the same order.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    n_words = len(table) // 4
    if n_words < nk + 1:
        return table
    # Words as (n_words, 4) big-endian byte rows: every transform in the
    # recurrence (XOR, RotWord, per-byte SubWord, Rcon on the MSB) is
    # byte-aligned, so the whole repair runs on uint8 matrices and every
    # candidate repair of a greedy step is scored in ONE batched pass.
    words = np.ascontiguousarray(table[: 4 * n_words], dtype=np.uint8).reshape(
        n_words, 4
    )
    if known_bytes is None:
        word_known = np.ones(n_words, dtype=bool)
    else:
        word_known = (
            np.asarray(known_bytes[: 4 * n_words], dtype=bool).reshape(n_words, 4).all(axis=1)
        )

    eq_index = np.arange(nk, n_words)
    rot_mask = eq_index % nk == 0
    sub_mask = (eq_index % nk == 4) if nk > 6 else np.zeros_like(rot_mask)
    rcon_vals = np.array([Rcon(int(i) // nk) for i in eq_index[rot_mask]], dtype=np.uint8)
    # Equations touching guess-filled (unknown) words carry no
    # information about the observed bytes; mask them out.
    known_eq = word_known[nk:] & word_known[: n_words - nk] & word_known[nk - 1 : -1]

    def residues(ws: np.ndarray) -> np.ndarray:
        """Equation residues for a ``(..., n_words, 4)`` batch of tables."""
        prev = ws[..., nk - 1 : -1, :]
        t = prev.copy()
        t[..., rot_mask, :] = SBOX[prev[..., rot_mask, :][..., (1, 2, 3, 0)]]
        t[..., rot_mask, 0] ^= rcon_vals
        if nk > 6:
            t[..., sub_mask, :] = SBOX[prev[..., sub_mask, :]]
        out = ws[..., nk:, :] ^ ws[..., : n_words - nk, :] ^ t
        out[..., ~known_eq, :] = 0
        return out

    def weights_of(ws: np.ndarray) -> np.ndarray:
        """Total residue popcount — the repair's objective.

        Popcount (not violation count) discriminates: a *correct* credit
        simultaneously clears every equation the flipped bits touch,
        while a wrong credit merely shuffles residue bits around.
        """
        return np.bitwise_count(residues(ws)).sum(axis=(-1, -2), dtype=np.int64)

    for _ in range(max_steps):
        residue = residues(words)
        violated = np.nonzero(residue.any(axis=1))[0]
        if violated.size == 0:
            break
        base_weight = int(weights_of(words))
        # Enumerate candidate repairs in the scalar order (per violated
        # equation: credit w[i], credit w[i-Nk], then — for S-box
        # equations — each single-bit flip of w[i-1]).
        targets: list[int] = []
        payloads: list[np.ndarray] = []
        for row in violated:
            i = int(eq_index[row])
            # Hypothesis A/B: the error lives in a linear operand, so the
            # residue itself is the correction.
            targets.extend((i, i - nk))
            payloads.extend((residue[row], residue[row]))
            # Hypothesis C: the error feeds the S-box input w[i-1]; a
            # single-bit flip there can zero the residue nonlinearly.
            if rot_mask[row] or sub_mask[row]:
                for bit in range(32):
                    targets.append(i - 1)
                    payload = np.zeros(4, dtype=np.uint8)
                    payload[3 - bit // 8] = 1 << (bit % 8)
                    payloads.append(payload)
        trials = np.broadcast_to(words, (len(targets), n_words, 4)).copy()
        trials[np.arange(len(targets)), targets] ^= np.asarray(payloads, dtype=np.uint8)
        weights = weights_of(trials)
        best = int(np.argmin(weights))  # ties → first trial, as scalar did
        if int(weights[best]) >= base_weight:
            break
        words = trials[best]
    return words.reshape(-1).copy()



class PerWindowAesKeySearch(AesKeySearch):
    """:class:`AesKeySearch` with post-hit recovery as it ran per window.

    The exactness oracle for batched recovery: one
    :meth:`_window_ballots` expansion per hit or table window, a dict
    walk over every ballot row for the ranking, every ranked ballot
    region-scored again on each escalation step, and
    :func:`legacy_repair_observed_table`.  Scanning, region scoring,
    decoding and the rest are inherited, so every ``RecoveredAesKey``
    field and every abstain must come out identical to the production
    recovery's.
    """

    def _window_ballots(
        self, span: np.ndarray, round_index: int, repair_bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ballots from one window, expanded in a single batch.

        Returns ``(masters, schedules)``: the ``(n, key_bytes)`` master
        keys and the ``(n, schedule_bytes)`` full expansions, one row
        per ballot.  Row order matches the scalar path
        (:meth:`_window_candidates`): the unrepaired window first, then
        one row per flipped bit.  Since the backward recurrence ends at
        word 0 and the forward pass re-derives everything from there,
        each schedule row *is* ``expand_key`` of its master — recovery
        scores rows directly instead of re-expanding every ballot in
        Python.
        """
        window = np.asarray(span[: self.variant.window_bytes], dtype=np.uint8)
        if repair_bits == 0:
            windows = window[None, :]
        else:
            windows = np.vstack(
                [window[None, :], window[None, :] ^ self._flip_matrix(len(window))]
            )
        schedules = legacy_batch_expand_from_window(windows, 4 * round_index, self.variant.nk)
        return schedules[:, : self.variant.key_bits // 8], schedules


    def _recover_from_group(
        self,
        blocks: np.ndarray,
        base: int,
        group: list[ScheduleHit],
        pinned: bool = False,
    ) -> RecoveredAesKey | None:
        """Reconstruct, repair, and confirm one schedule's master key."""
        variant = self.variant
        if self.schedule_decode:
            # The decode path runs first: at this stage's channel the
            # ballot machinery below almost never assembles a usable
            # guess, while the hit spans alone are enough for belief
            # propagation.  A base the seed gate rejected never looked
            # like a schedule at all — running the classical ballots on
            # it would only manufacture spurious keys from the junk
            # tail the wide verify budget admits (and burn most of the
            # stage's wall time doing it).  Falling through on a
            # genuine abstain keeps the classical rescue as the safety
            # net for plausible bases the decoder could not settle.
            decoded, gated = self._decode_group(blocks, base, group, pinned=pinned)
            if decoded is not None:
                return decoded
            if gated:
                return None
        spans: list[tuple[int, np.ndarray]] = []
        for hit in group:
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )
            spans.append((hit.round_index, span))

        # Ballots from pristine windows first; bit-repaired ballots only
        # when no pristine window survives the full-region confirmation.
        group_sorted = sorted(zip(group, spans), key=lambda item: item[0].mismatch_bits)
        best_master: bytes | None = None
        best_fraction = 1.0

        best_agreement = 0.0
        best_counted_bits = 0
        #: Converged decoded tables (as bytes) → mean max-posterior
        #: probability, for recalibrating the final confidence when the
        #: accepted master's expansion is one the decoder produced.
        decode_certainty: dict[bytes, float] = {}
        schedule_bits = 8 * 4 * variant.total_words

        def consider(scored: dict[bytes, int], expansions: dict[bytes, np.ndarray]) -> None:
            """Region-confirm the span-score-ranked ballots."""
            nonlocal best_master, best_fraction, best_agreement, best_counted_bits
            ranked = [master for master, _ in sorted(scored.items(), key=lambda item: item[1])[:8]]
            if not ranked:
                return
            region_scores = self._region_mismatches(
                blocks, base, np.stack([expansions[master] for master in ranked])
            )
            for master, (mismatch, counted_bits) in zip(ranked, region_scores):
                fraction = mismatch / counted_bits
                if fraction < best_fraction:
                    best_fraction = fraction
                    best_agreement = max(0.0, (counted_bits - mismatch) / schedule_bits)
                    best_counted_bits = counted_bits
                    best_master = master

        # A ballot is "clearly clean" when its expansion disagrees with
        # the dump only at decay-plausible rates; anything worse keeps
        # the escalation going even if it would pass the final gate,
        # because a near-miss reconstruction (wrong by a few window
        # bits) can still sit a few percent off.
        clearly_clean = min(0.02, self.accept_mismatch_fraction)

        for repair in range(self.repair_bits + 1):
            scored: dict[bytes, int] = {}
            expansions: dict[bytes, np.ndarray] = {}
            for hit, (round_index, span) in group_sorted:
                masters, schedules = self._window_ballots(span, round_index, repair)
                scores = np.zeros(len(schedules), dtype=np.int64)
                for span_round, span_data in spans:
                    segment = schedules[:, 16 * span_round : 16 * span_round + len(span_data)]
                    scores += np.bitwise_count(segment ^ span_data).sum(axis=1, dtype=np.int64)
                for row, master_row in enumerate(masters):
                    master = master_row.tobytes()
                    if master not in scored:
                        scored[master] = int(scores[row])
                        expansions[master] = schedules[row]
            consider(scored, expansions)
            if best_master is not None and best_fraction <= clearly_clean:
                break

        if best_master is not None and best_fraction > clearly_clean:
            # Iterative rescue: the best ballot so far is mostly right;
            # use it to descramble the whole table region, then ballot
            # from *every* round-aligned window of the observed table —
            # windows the hit scan never saw — with bit repairs.  Any
            # window that survived decay (or is one repair away from it)
            # reconstructs the true key, whose region mismatch is
            # strictly lower than any near-miss's, so the running
            # minimum converges on it.  The guess is refreshed between
            # iterations since a better guess picks better per-block keys.
            decode_attempted = False
            for _iteration in range(3):
                if self.on_progress is not None:
                    self.on_progress()
                before = best_fraction
                guess = np.frombuffer(expand_key(best_master), dtype=np.uint8)
                observed = self._observed_table(blocks, base, guess)
                if observed is None:
                    break
                table, known = observed
                decoded_clean = False
                if self.schedule_decode and not decode_attempted:
                    # Message passing sees the whole table at once and
                    # corrects channels far beyond what greedy repair
                    # survives; a converged (zero-syndrome) decode IS a
                    # valid codeword, so every byte becomes known and
                    # vote/repair have nothing left to do.  An abstain
                    # falls through to the classical correctors — and
                    # is not retried on later rescue iterations, whose
                    # observed table barely differs.
                    decode_attempted = True
                    result = self._decode_table(
                        table, known, base, f"{base:#x}", before
                    )
                    if result is not None and not result.abstained():
                        table = result.tables[0].copy()
                        known = np.ones_like(known)
                        decoded_clean = True
                        decode_certainty[table.tobytes()] = float(result.certainty[0])
                if not decoded_clean:
                    if self.schedule_vote:
                        # Consistency voting first: it corrects dense decay
                        # (multiple flips per equation) that the greedy
                        # single-residue repair stalls on, leaving the
                        # greedy pass only the stragglers.
                        table = vote_correct_table(
                            table, variant.key_bits, known_bytes=known
                        )
                    table = legacy_repair_observed_table(
                        table, variant.key_bits, known_bytes=known
                    )
                for repair in range(self.repair_bits + 1):
                    scored = {}
                    expansions = {}
                    for round_index in range(0, (variant.total_words - variant.nk) // 4 + 1):
                        lo = 16 * round_index
                        window = table[lo : lo + variant.window_bytes]
                        if len(window) < variant.window_bytes:
                            break
                        if not known[lo : lo + variant.window_bytes].all():
                            continue  # never ballot from guess-filled bytes
                        masters, schedules = self._window_ballots(window, round_index, repair)
                        scores = np.bitwise_count((schedules ^ table[None, :])[:, known]).sum(
                            axis=1, dtype=np.int64
                        )
                        for row, master_row in enumerate(masters):
                            master = master_row.tobytes()
                            if master not in scored:
                                scored[master] = int(scores[row])
                                expansions[master] = schedules[row]
                    consider(scored, expansions)
                    if best_fraction <= clearly_clean:
                        break
                if best_fraction <= clearly_clean or best_fraction >= before:
                    break

        if best_master is None or best_fraction > self.accept_mismatch_fraction:
            return None
        expansion = np.frombuffer(expand_key(best_master), dtype=np.uint8)
        votes = sum(
            1
            for round_index, span in spans
            if int(
                POPCOUNT_TABLE[
                    expansion[16 * round_index : 16 * round_index + len(span)] ^ span
                ].sum()
            )
            <= self.accept_mismatch_fraction * 8 * len(span)
        )
        return RecoveredAesKey(
            master_key=best_master,
            key_bits=variant.key_bits,
            votes=votes,
            first_block_index=min(h.block_index for h in group),
            match_fraction=1.0 - best_fraction,
            region_agreement=best_agreement,
            hits=tuple(sorted(group, key=lambda h: (h.block_index, h.offset))),
            confidence=confidence_score(
                best_fraction,
                decay_rate=self.decay_rate,
                coverage=best_counted_bits / schedule_bits,
                posterior_certainty=decode_certainty.get(expansion.tobytes()),
            ),
        )


def _seed_search_shard(
    payload: tuple[bytes, bytes, int],
    shard_offset: int,
    attempt: int,
    in_subprocess: bool,
) -> list[RecoveredAesKey]:
    """Seed worker: the full shard bytes and key matrix arrive pickled."""
    shard_data, keys_blob, key_bits = payload
    keys = np.frombuffer(keys_blob, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    search = SeedAesKeySearch(keys.copy(), key_bits=key_bits)
    return search.recover_keys(MemoryImage(shard_data))


def legacy_recover_keys(
    dump: MemoryImage,
    key_bits: int = 256,
    workers: int = 1,
    n_shards: int | None = None,
) -> list[RecoveredAesKey]:
    """Mine + sharded scan exactly as the seed dispatched it.

    Every shard task carries a *copy* of its slice of the dump plus the
    whole key matrix through the pickle boundary — the payload cost the
    shared-memory dispatch eliminated.
    """
    candidates = seed_mine_scrambler_keys(dump)
    if not candidates:
        return []
    keys_blob = keys_matrix(candidates).tobytes()
    overlap = schedule_bytes(key_bits) + BLOCK_SIZE
    shards = shard_image(dump, n_shards=n_shards or workers, overlap_bytes=overlap)
    jobs = {
        shard.base_offset: (bytes(shard.image.data), keys_blob, key_bits)
        for shard in shards
    }
    runner = ResilientShardRunner(_seed_search_shard, workers=workers)
    ledger = runner.run(jobs)
    return merge_recovered(
        [(outcome.shard_offset, outcome.result) for outcome in ledger.completed]
    )
