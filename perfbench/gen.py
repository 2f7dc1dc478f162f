"""Seeded dump generation; the ground truth never leaves this process.

Each dump is a DDR4-scrambled image holding one planted XTS key table
(two AES-256 schedules, primary then tweak) and uniform bit decay at a
known rate.  Default-size dumps come from the repository's own
``synthetic_dump``.  A 16 MiB dump would cost that function about
1.2 GB for its per-bit decay draw, so :func:`bulk_dump` builds the same
layout with a sparse decay draw instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BLOCK = 64


@dataclass(frozen=True)
class PlantedDump:
    """A dump file and what the benchmark knows about it."""

    path: Path
    #: The planted AES-256 master keys (XTS primary and tweak halves).
    halves: tuple[bytes, bytes]
    bit_error_rate: float
    n_bytes: int


def _save(data: bytes, path: Path, master: bytes, ber: float) -> PlantedDump:
    path.write_bytes(data)
    return PlantedDump(path, (master[:32], master[32:]), ber, len(data))


def default_dump(directory: Path, seed: int, ber: float) -> PlantedDump:
    """``synthetic_dump(ber, seed=seed)`` (12288 blocks) saved to a file."""
    from repro.attack.sweep import synthetic_dump

    dump, master, _ = synthetic_dump(ber, seed=seed)
    return _save(bytes(dump.data), directory / f"dump-{seed}.bin", master, ber)


def bulk_dump(directory: Path, seed: int, n_bytes: int, ber: float) -> PlantedDump:
    """A large dump with ``synthetic_dump``'s layout, drawn from ``seed``.

    Every third block is zero (the blocks key mining feeds on), the key
    table sits at a seed-chosen block plus 11 bytes, and exactly
    Binomial(bits, ber) distinct bits are flipped, which is the same
    distribution as an independent flip per bit.
    """
    from repro.crypto.aes import expand_key
    from repro.scrambler.ddr4 import Ddr4Scrambler

    n_blocks = n_bytes // BLOCK
    rng = np.random.Generator(np.random.PCG64([0x5C41, seed]))
    plain = rng.integers(0, 256, n_blocks * BLOCK, dtype=np.uint8)
    plain.reshape(n_blocks, BLOCK)[::3] = 0
    master = rng.bytes(64)
    table = np.frombuffer(expand_key(master[:32]) + expand_key(master[32:]), np.uint8)
    offset = int(rng.integers(1, n_blocks - 16)) * BLOCK + 11
    plain[offset : offset + table.size] = table
    scrambler = Ddr4Scrambler(boot_seed=int(rng.integers(1, 2**62)))
    data = np.frombuffer(scrambler.scramble_range(0, plain.tobytes()), np.uint8).copy()
    n_bits = data.size * 8
    flips = rng.choice(n_bits, size=rng.binomial(n_bits, ber), replace=False)
    np.bitwise_xor.at(data, flips >> 3, (1 << (flips & 7)).astype(np.uint8))
    return _save(data.tobytes(), directory / f"bulk-{seed}.bin", master, ber)


def score_keys(recovered: list[bytes], dump: PlantedDump) -> tuple[int, int]:
    """(planted halves recovered byte-exact, recovered keys planted nowhere)."""
    found = set(recovered)
    exact = sum(1 for half in dump.halves if half in found)
    wrong = sum(1 for key in found if key not in dump.halves)
    return exact, wrong
