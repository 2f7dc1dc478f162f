"""Mining scrambler keys out of a memory dump (§III-B, Key Idea 1).

Zero-filled 64-byte blocks — abundant in any running system — come out
of the scrambler as the raw scrambler key.  The miner therefore:

1. runs the litmus test over the dump (vectorised, decay-tolerant);
2. groups the passing blocks by value, merging near-duplicates whose
   Hamming distance fits the decay budget;
3. repairs each group's key by bitwise **majority vote** across its
   members ("since a single scrambler keystream appears multiple times
   inside a memory dump, we are able to filter out modest bit flips");
4. ranks candidates by frequency — true keys recur at every zero block
   that shares their key index, while ``key ^ constant`` artefacts from
   constant-filled plaintext are rarer.

The paper mined every key from under 16 MB of dump even on a loaded
system; the tests reproduce that bound on scaled dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.litmus import key_litmus_mismatch_bits
from repro.dram.image import MemoryImage
from repro.util.blocks import BLOCK_SIZE

#: Default cap on how much of the dump the miner examines — the paper's
#: "less than 16MB of the memory dump" observation.
DEFAULT_SCAN_LIMIT_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class CandidateKey:
    """One mined scrambler-key candidate with its supporting evidence.

    ``litmus_mismatch_bits`` is the group's *residual* mismatch: the
    total Hamming distance between the voted key and its (weighted)
    support members.  A true key's decayed sightings sit a few bits
    from the vote; a coincidental merge of unrelated near-passing
    blocks leaves a large residual — so the residual breaks frequency
    ties in the candidate ranking and, summed over all candidates
    against ``support_bits``, estimates the dump's bit decay rate
    (see :func:`repro.attack.adaptive.estimate_decay_rate`).
    """

    key: bytes
    count: int
    #: Total residual Hamming bits between the voted key and its
    #: weighted support members (0 when every sighting was identical).
    litmus_mismatch_bits: int = 0
    #: Total member bits the residual was measured over (512 per
    #: weighted member row); 0 for legacy callers that never counted.
    support_bits: int = 0

    def __post_init__(self) -> None:
        if len(self.key) != BLOCK_SIZE:
            raise ValueError("scrambler keys are 64 bytes")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.litmus_mismatch_bits < 0 or self.support_bits < 0:
            raise ValueError("mismatch and support bit counts must be non-negative")


def _majority_vote(members: np.ndarray) -> bytes:
    """Bitwise majority over an ``(n, 64)`` uint8 matrix of noisy copies."""
    if members.shape[0] == 1:
        return members[0].tobytes()
    bits = np.unpackbits(members, axis=1)
    voted = (bits.sum(axis=0) * 2 >= members.shape[0]).astype(np.uint8)
    return np.packbits(voted).tobytes()


#: Unique rows per merge batch: each batch is band-joined against the
#: representatives that existed before it.
_MERGE_CHUNK_ROWS = 4096
#: Candidate (row, representative) pairs measured per distance batch;
#: bounds the gathers of one band join (1 MiB each) however skewed the
#: band values.
_MERGE_PAIR_BUDGET = 1 << 14
#: Member rows per pass of the streaming majority vote.
_VOTE_CHUNK_ROWS = 512
#: Cap on one distinct value's weight in the vote (and the residual).
_VOTE_WEIGHT_CAP = 32


def _band_keys(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``(n_bands, n)`` uint64 digests of each row's band bytes.

    Equal band bytes give equal digests.  Unequal bands may collide,
    which only adds a candidate that the exact distance then rules out.
    """
    weights = np.cumprod(np.full(BLOCK_SIZE, 0x100000001B3, dtype=np.uint64))
    digests = np.add.reduceat(rows.astype(np.uint64) * weights, edges[:-1], axis=1)
    return np.ascontiguousarray(digests.T)


def _expand_runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] + 0 .. counts[i]-1`` for every ``i``, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(int(ends[-1]))


class _BandIndex:
    """Per-band sorted digests of a row set, for exact radius joins.

    With ``radius + 1`` disjoint bands, any row within ``radius`` bits
    of an indexed row matches it on at least one band (pigeonhole), so
    the band matches are a superset of the in-radius rows.
    """

    def __init__(self, n_bands: int) -> None:
        self.keys = [np.empty(0, dtype=np.uint64) for _ in range(n_bands)]
        self.rows = [np.empty(0, dtype=np.int64) for _ in range(n_bands)]

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Index ``rows`` (row positions) under their ``(n_bands, n)`` digests."""
        for band, band_keys in enumerate(keys):
            order = np.argsort(band_keys, kind="stable")
            at = np.searchsorted(self.keys[band], band_keys[order], side="right")
            self.keys[band] = np.insert(self.keys[band], at, band_keys[order])
            self.rows[band] = np.insert(self.rows[band], at, rows[order])

    def within(
        self, words: np.ndarray, query: np.ndarray, keys: np.ndarray, radius: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (query, indexed row) pair within ``radius`` bits.

        ``query`` holds row positions into ``words`` (the uint64 view of
        all unique rows) and ``keys`` their band digests.  Returns
        ``(query slot, indexed row position, distance)``, possibly with
        repeats when several bands match the same pair.
        """
        empty = np.empty(0, dtype=np.int64)
        if not self.keys[0].size:
            return empty, empty, empty
        lefts, counts = [], []
        for band, band_keys in enumerate(keys):
            indexed = self.keys[band]
            left = np.searchsorted(indexed, band_keys, side="left")
            count = np.zeros(len(band_keys), dtype=np.int64)
            # Most probes miss; only the hits need the run's far end.
            hit = np.flatnonzero(indexed.take(left, mode="clip") == band_keys)
            if hit.size:
                right = np.searchsorted(indexed, band_keys[hit], side="right")
                count[hit] = right - left[hit]
            lefts.append(left)
            counts.append(count)
        load = np.cumsum(sum(counts))
        if not load.size or load[-1] == 0:
            return empty, empty, empty
        cuts = np.unique(
            np.searchsorted(load, np.arange(_MERGE_PAIR_BUDGET, load[-1], _MERGE_PAIR_BUDGET))
        )
        bounds = [0, *(int(c) + 1 for c in cuts if c + 1 < len(load)), len(load)]
        out_q, out_t, out_d = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slots, targets = [], []
            for band in range(len(keys)):
                band_counts = counts[band][lo:hi]
                hit = np.flatnonzero(band_counts)
                if hit.size:
                    slots.append(np.repeat(hit + lo, band_counts[hit]))
                    positions = _expand_runs(lefts[band][lo:hi][hit], band_counts[hit])
                    targets.append(self.rows[band][positions])
            if not slots:
                continue
            q = np.concatenate(slots)
            t = np.concatenate(targets)
            d = np.bitwise_count(words[query[q]] ^ words[t]).sum(axis=1, dtype=np.int64)
            keep = d <= radius
            out_q.append(q[keep])
            out_t.append(t[keep])
            out_d.append(d[keep])
        if not out_q:
            return empty, empty, empty
        return np.concatenate(out_q), np.concatenate(out_t), np.concatenate(out_d)


def _nearest(
    n: int, q: np.ndarray, t: np.ndarray, d: np.ndarray, n_rows: int, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per query slot, the (distance, row) minimum of its pairs.

    ``t`` indexes ``n_rows`` rows and ``d`` is at most ``radius``.
    Slots without pairs get distance ``-1`` and row ``-1``.
    """
    best_d = np.full(n, -1, dtype=np.int64)
    best_t = np.full(n, -1, dtype=np.int64)
    if q.size:
        # One int64 sort key orders pairs by (slot, distance, row).
        codes = np.sort((q * (radius + 1) + d) * n_rows + t)
        slot_dist, rows = np.divmod(codes, n_rows)
        slots, dists = np.divmod(slot_dist, radius + 1)
        first = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
        best_d[slots[first]] = dists[first]
        best_t[slots[first]] = rows[first]
    return best_d, best_t


def _merge_banded(unique_rows: np.ndarray, radius: int) -> np.ndarray:
    """The greedy merge, batched: each row's representative's position.

    Rows are taken in order; a row merges into the nearest earlier
    *representative* within ``radius`` bits (ties to the earliest), or
    becomes a representative itself.  Each chunk of rows is band-joined
    against the representatives of earlier chunks at once.  Rows with
    no such match are resolved among themselves in order: a row whose
    earlier in-chunk neighbours include a representative merges into
    the nearest one, otherwise it is a new representative.  Finally, a
    row matched to an earlier-chunk representative moves to a new
    in-chunk representative that precedes it and is strictly closer.
    """
    n = unique_rows.shape[0]
    words = unique_rows.view(np.uint64)
    edges = np.linspace(0, BLOCK_SIZE, radius + 2, dtype=np.int64)
    reps = _BandIndex(radius + 1)
    rep_of = np.empty(n, dtype=np.int64)
    for start in range(0, n, _MERGE_CHUNK_ROWS):
        rows = np.arange(start, min(n, start + _MERGE_CHUNK_ROWS), dtype=np.int64)
        keys = _band_keys(unique_rows[rows], edges)
        best_d, best_t = _nearest(
            len(rows), *reps.within(words, rows, keys, radius), n, radius
        )
        rep_of[rows] = best_t

        # Rows no earlier representative claims: resolve in order.
        loose = np.flatnonzero(best_t < 0)
        local = _BandIndex(radius + 1)
        local.add(keys[:, loose], rows[loose])
        q, t, d = local.within(words, rows[loose], keys[:, loose], radius)
        earlier = t < rows[loose[q]]
        q, t, d = q[earlier], t[earlier], d[earlier]
        is_rep = np.zeros(len(rows), dtype=bool)
        is_rep[loose] = True
        if q.size:
            # Pairs in (row, distance, neighbour) order: each row takes
            # its first neighbour that is (still) a representative.
            order = np.lexsort((t, d, q))
            flags = is_rep.tolist()
            merged_row = -1
            for row, target in zip(rows[loose[q[order]]].tolist(), t[order].tolist()):
                if row != merged_row and flags[target - start]:
                    flags[row - start] = False
                    rep_of[row] = target
                    merged_row = row
            is_rep = np.asarray(flags, dtype=bool)
        fresh = np.flatnonzero(is_rep)
        rep_of[rows[fresh]] = rows[fresh]

        # Rows already claimed by an earlier chunk: a closer new
        # representative that precedes them takes them instead.
        claimed = np.flatnonzero(best_t >= 0)
        if claimed.size and fresh.size:
            local = _BandIndex(radius + 1)
            local.add(keys[:, fresh], rows[fresh])
            q, t, d = local.within(words, rows[claimed], keys[:, claimed], radius)
            better = (t < rows[claimed[q]]) & (d < best_d[claimed[q]])
            _, near_t = _nearest(claimed.size, q[better], t[better], d[better], n, radius)
            moved = near_t >= 0
            rep_of[rows[claimed[moved]]] = near_t[moved]
        reps.add(keys[:, fresh], rows[fresh])
    return rep_of


def _weighted_majority(
    members: np.ndarray, weights: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Bitwise weighted majority of each contiguous member run.

    ``members`` is ``(n, 64)`` uint8, grouped so cluster ``k`` owns rows
    ``starts[k]`` up to the next start; ``weights`` are at most
    :data:`_VOTE_WEIGHT_CAP`.  A bit is set when its weighted count
    reaches half the cluster's total weight — the majority of the rows
    expanded ``weight`` times, as :func:`_majority_vote` takes it.  Rows
    stream through in chunks; a cluster that spans chunks carries its
    partial sum forward, so memory stays bounded however large one
    cluster grows.  Returns the ``(clusters, 64)`` uint8 votes.
    """
    n = members.shape[0]
    ends = np.append(starts[1:], n)
    # 2·sum >= total  <=>  sum >= ceil(total / 2).
    thresholds = (np.add.reduceat(weights, starts) + 1) // 2
    voted = np.empty((len(starts), BLOCK_SIZE), dtype=np.uint8)
    small_weights = weights.astype(np.uint8)
    carried = np.zeros(8 * BLOCK_SIZE, dtype=np.int64)
    for lo in range(0, n, _VOTE_CHUNK_ROWS):
        hi = min(n, lo + _VOTE_CHUNK_ROWS)
        bits = np.unpackbits(members[lo:hi], axis=1)
        bits *= small_weights[lo:hi, None]
        # Clusters first..last-1 overlap this chunk; only the first may
        # have started in an earlier chunk, so the others' sums fit
        # uint16 (at most chunk rows × weight cap).
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi, side="left"))
        cuts = np.maximum(starts[first:last], lo) - lo
        sums = np.add.reduceat(bits, cuts, axis=0, dtype=np.uint16)
        head = carried + sums[0]
        done = last if ends[last - 1] <= hi else last - 1
        if done > first:
            voted[first] = np.packbits(head >= thresholds[first])
            inner = slice(first + 1, done)
            voted[inner] = np.packbits(
                sums[1 : done - first] >= thresholds[inner, None].astype(np.uint16), axis=1
            )
        if done == last:
            carried = np.zeros_like(carried)
        else:
            carried = head if last - first == 1 else sums[-1].astype(np.int64)
    return voted


def mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    min_count: int = 1,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """Extract candidate scrambler keys from a (possibly decayed) dump.

    Returns candidates sorted by descending frequency.  ``tolerance_bits``
    is the litmus decay budget per block; ``merge_radius_bits`` bounds
    the Hamming distance at which two passing blocks are treated as
    noisy copies of the same key.

    The merge is greedy and order-defined: distinct passing rows are
    taken by descending count, then lexicographically; each one merges
    into the nearest earlier representative within
    ``merge_radius_bits`` (ties to the earliest representative) or
    becomes a representative itself.
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

    # Exact duplicates first: np.unique over a 64-byte void view sorts
    # rows in lexicographic byte order, like np.unique(axis=0), at a
    # fraction of the cost.
    distinct, unique_counts = np.unique(
        np.ascontiguousarray(passing).view(f"V{BLOCK_SIZE}").ravel(), return_counts=True
    )
    # The merge order: descending count, lexicographic among equals
    # (the stable sort keeps np.unique's order as the tie-break).
    order = np.argsort(-unique_counts, kind="stable")
    unique_rows = distinct.view(np.uint8).reshape(-1, BLOCK_SIZE)[order]
    counts = unique_counts[order].astype(np.int64)

    if merge_radius_bits == 0:
        rep_of = np.arange(len(counts), dtype=np.int64)
    elif merge_radius_bits < BLOCK_SIZE:
        rep_of = _merge_banded(unique_rows, merge_radius_bits)
    else:
        # Byte-aligned pigeonhole bands stop at 64, so wider radii take
        # the dense per-row walk (they merge almost everything anyway,
        # so the representatives stay few).
        unique_words = unique_rows.view(np.uint64)
        rep_words = np.empty_like(unique_words)
        rep_rows: list[int] = []
        rep_of = np.empty(len(counts), dtype=np.int64)
        for index in range(len(counts)):
            if rep_rows:
                distances = np.bitwise_count(
                    rep_words[: len(rep_rows)] ^ unique_words[index]
                ).sum(axis=1, dtype=np.int64)
                best = int(np.argmin(distances))
                if int(distances[best]) <= merge_radius_bits:
                    rep_of[index] = rep_rows[best]
                    continue
            rep_words[len(rep_rows)] = unique_words[index]
            rep_of[index] = index
            rep_rows.append(index)

    # Clusters in representative order, members contiguous.
    members = np.argsort(rep_of, kind="stable")
    _, starts = np.unique(rep_of[members], return_index=True)
    member_rows = unique_rows[members]
    weights = np.minimum(counts[members], _VOTE_WEIGHT_CAP)
    voted = _weighted_majority(member_rows, weights, starts)
    # Residual mismatch of each vote against its own support: the
    # decay the vote filtered out.  Weighted exactly as the vote was,
    # so residual / support_bits estimates the per-bit decay rate of
    # the blocks behind the candidate.
    cluster = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(members))))
    distances = np.empty(len(members), dtype=np.int64)
    member_words = member_rows.view(np.uint64)
    voted_words = voted.view(np.uint64)
    for lo in range(0, len(members), _MERGE_PAIR_BUDGET):
        hi = lo + _MERGE_PAIR_BUDGET
        distances[lo:hi] = np.bitwise_count(
            member_words[lo:hi] ^ voted_words[cluster[lo:hi]]
        ).sum(axis=1, dtype=np.int64)
    residuals = np.add.reduceat(weights * distances, starts).tolist()
    support = np.add.reduceat(weights, starts).tolist()
    cluster_counts = np.add.reduceat(counts[members], starts).tolist()

    candidates = [
        CandidateKey(
            key=voted[k].tobytes(),
            count=cluster_counts[k],
            litmus_mismatch_bits=residuals[k],
            support_bits=8 * BLOCK_SIZE * support[k],
        )
        for k in range(len(starts))
        if cluster_counts[k] >= min_count
    ]
    # Frequency first (true keys recur); among equally-frequent
    # candidates the one whose support sits *closest* to its vote wins
    # — a large residual marks a coincidental merge, not a real key.
    candidates.sort(key=lambda c: (-c.count, c.litmus_mismatch_bits, c.key))
    return candidates


def keys_matrix(candidates: list[CandidateKey]) -> np.ndarray:
    """Stack candidate keys into an ``(k, 64)`` uint8 matrix for the search."""
    if not candidates:
        return np.empty((0, BLOCK_SIZE), dtype=np.uint8)
    return np.vstack([np.frombuffer(c.key, dtype=np.uint8) for c in candidates])
