"""The scrambler-key litmus test (§III-B).

After extracting Skylake scrambler keys with the reverse cold boot
procedure, the paper found invariants between byte pairs of every
64-byte key.  With ``K[i:j]`` denoting bytes ``i..j`` of the key, for
each 16-byte-aligned sub-word ``i ∈ {0, 16, 32, 48}``:

    K[i+2:i+3] ^ K[i+4:i+5]  == K[i+10:i+11] ^ K[i+12:i+13]
    K[i:i+1]   ^ K[i+6:i+7]  == K[i+8:i+9]   ^ K[i+14:i+15]
    K[i:i+1]   ^ K[i+4:i+5]  == K[i+8:i+9]   ^ K[i+12:i+13]
    K[i:i+1]   ^ K[i+2:i+3]  == K[i+8:i+9]   ^ K[i+10:i+11]

A zero-filled plaintext block comes out of the scrambler carrying the
raw key, so blocks that satisfy these invariants are (very likely)
scrambler keys lying exposed in the dump.  Because DRAM bits decay in
transit, the tests are evaluated as a Hamming-distance budget rather
than strict equality.

Two facts make the test powerful:

* a random 64-byte block passes by chance with probability ~2^-192
  (16 two-byte equalities), so false positives come only from
  *structured* plaintext — e.g. constant-filled blocks, which produce
  ``key ^ constant`` candidates that frequency ranking and the AES
  stage tolerate;
* the invariants are linear, so the XOR of two scrambler keys passes
  too — which is why mining still works when a dump is taken through a
  second, differently-seeded scrambler (§III-B).
"""

from __future__ import annotations

import numpy as np

from repro.util.blocks import BLOCK_SIZE, as_block_matrix

#: The §III-B invariants as byte offsets within a 16-byte sub-word:
#: each entry (a, b, c, d) states bytes[a:a+2]^bytes[b:b+2] == bytes[c:c+2]^bytes[d:d+2].
INVARIANT_WORD_OFFSETS: tuple[tuple[int, int, int, int], ...] = (
    (2, 4, 10, 12),
    (0, 6, 8, 14),
    (0, 4, 8, 12),
    (0, 2, 8, 10),
)

#: Sub-word starting offsets within the 64-byte key.
SUB_WORD_OFFSETS: tuple[int, ...] = (0, 16, 32, 48)

#: Blocks per pass of :func:`key_litmus_mismatch_bits` (1 MiB of
#: gathered invariant words per temporary).
_LITMUS_CHUNK_ROWS = 1 << 15


def key_litmus_mismatch_bits(blocks: bytes | np.ndarray) -> np.ndarray:
    """Total invariant-violation bits for each 64-byte block.

    Accepts raw bytes or an ``(n, 64)`` uint8 matrix; returns an ``(n,)``
    int64 array.  A pristine scrambler key scores 0; each decayed bit
    inside the tested byte pairs adds at most a few mismatch bits.
    """
    matrix = as_block_matrix(blocks) if not isinstance(blocks, np.ndarray) else blocks
    if matrix.ndim != 2 or matrix.shape[1] != BLOCK_SIZE:
        raise ValueError(f"expected (n, {BLOCK_SIZE}) blocks, got {matrix.shape}")
    # Every invariant XORs four 2-byte words at even offsets, so each
    # block is read as 32 uint16 words: column j of ``words[:, a]`` is
    # the j-th invariant's first operand, and so on.
    a, b, c, d = (
        [
            (base + offsets[k]) // 2
            for base in SUB_WORD_OFFSETS
            for offsets in INVARIANT_WORD_OFFSETS
        ]
        for k in range(4)
    )
    mismatch = np.empty(matrix.shape[0], dtype=np.int64)
    for lo in range(0, matrix.shape[0], _LITMUS_CHUNK_ROWS):
        words = np.ascontiguousarray(matrix[lo : lo + _LITMUS_CHUNK_ROWS]).view(np.uint16)
        residual = words[:, a] ^ words[:, b]
        residual ^= words[:, c]
        residual ^= words[:, d]
        mismatch[lo : lo + _LITMUS_CHUNK_ROWS] = np.bitwise_count(residual).sum(
            axis=1, dtype=np.int64
        )
    return mismatch


_PARITY_MATRIX: np.ndarray | None = None


def litmus_parity_matrix() -> np.ndarray:
    """The invariants as a ``(256, 512)`` GF(2) parity-check matrix.

    Each §III-B invariant equates two XORs of 2-byte words, i.e. 16
    independent parity checks of weight 4 (one key bit from each of the
    four bytes at the same bit position).  4 sub-words × 4 invariants
    × 16 bit positions = 256 checks over the key's 512 bits, with every
    key bit appearing in 1–3 checks — a sparse code, which is what
    makes :func:`litmus_decode_keys`'s bit-flipping decoder effective.

    Bit numbering matches ``np.unpackbits``: bit ``8·byte + j`` is the
    ``j``-th most significant bit of ``byte``.
    """
    global _PARITY_MATRIX
    if _PARITY_MATRIX is None:
        matrix = np.zeros((256, 8 * BLOCK_SIZE), dtype=np.uint8)
        check = 0
        for base in SUB_WORD_OFFSETS:
            for offsets in INVARIANT_WORD_OFFSETS:
                for bit in range(16):
                    for offset in offsets:
                        byte = base + offset + bit // 8
                        matrix[check, byte * 8 + bit % 8] = 1
                    check += 1
        matrix.setflags(write=False)
        _PARITY_MATRIX = matrix
    return _PARITY_MATRIX


def litmus_decode_keys(matrix: np.ndarray, max_flips: int = 24) -> np.ndarray:
    """Project mined keys onto the scrambler-keystream code.

    A decayed key sighting is a noisy codeword of the sparse litmus
    parity code, and greedy syndrome decoding (flip the bit that
    clears the most unsatisfied checks; Gallager-style) walks it back
    to *a* nearby codeword with zero litmus residual.

    Caveat — this is canonicalisation, not exact repair: the code has
    weight-2 codewords (any two bits confined to a single weight-4
    check can flip together unseen), so the projection may differ from
    the true key by a few bits.  Two decayed sightings of the *same*
    key usually project to the same codeword, which makes the
    projection useful for detecting keystream reuse and merging
    support sets; descrambling with projected keys is **not** more
    accurate than descrambling with the raw sightings.

    Vectorised over all keys at once: per round, each key flips its
    single best bit (strictly reducing its syndrome weight) until no
    key can improve or ``max_flips`` rounds pass.  Keys are returned
    as a new ``(k, 64)`` uint8 matrix; clean keys are untouched.
    """
    if matrix.ndim != 2 or matrix.shape[1] != BLOCK_SIZE:
        raise ValueError(f"expected (k, {BLOCK_SIZE}) keys, got {matrix.shape}")
    if matrix.shape[0] == 0:
        return matrix.copy()
    parity = litmus_parity_matrix()
    parity_f = parity.astype(np.float32)
    column_weight = parity.sum(axis=0).astype(np.int32)
    bits = np.unpackbits(np.ascontiguousarray(matrix), axis=1)
    syndrome = (bits.astype(np.float32) @ parity_f.T).astype(np.int32) & 1
    rows = np.arange(bits.shape[0])
    for _ in range(max_flips):
        involvement = (syndrome.astype(np.float32) @ parity_f).astype(np.int32)
        delta = column_weight[None, :] - 2 * involvement
        best = delta.argmin(axis=1)
        improving = delta[rows, best] < 0
        if not improving.any():
            break
        which = rows[improving]
        bits[which, best[improving]] ^= 1
        syndrome[which] ^= parity[:, best[improving]].T
    return np.packbits(bits, axis=1)


def passes_key_litmus(block: bytes, tolerance_bits: int = 0) -> bool:
    """Whether one 64-byte block passes the scrambler-key litmus test."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"litmus test operates on 64-byte blocks, got {len(block)}")
    if tolerance_bits < 0:
        raise ValueError("tolerance must be non-negative")
    return int(key_litmus_mismatch_bits(block)[0]) <= tolerance_bits


def litmus_pass_mask(blocks: bytes | np.ndarray, tolerance_bits: int = 0) -> np.ndarray:
    """Boolean mask of blocks passing the litmus test (vectorised)."""
    if tolerance_bits < 0:
        raise ValueError("tolerance must be non-negative")
    return key_litmus_mismatch_bits(blocks) <= tolerance_bits
