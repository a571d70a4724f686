"""Counter-based deterministic sampling streams.

Monte Carlo draws are organized in fixed blocks generated from a Philox
counter stream advanced to a per-block offset, so block b depends only on
(seed, b).  A seed therefore reproduces its stream bit for bit, and any
block can be regenerated on its own without drawing the blocks before it.
"""
from __future__ import annotations

import numpy as np
# bound here, in every process that imports a sampling module (a command
# imports its modules before it forks), so that a forked worker inherits
# numpy.random instead of importing it on its first draw
from numpy.random import Generator, Philox

BLOCK_SAMPLES = 4096
# counter words reserved per sample; generously above actual consumption so
# neighbouring blocks never share stream positions
_WORDS_PER_SAMPLE = 8


def block_generator(seed: int, block_index: int) -> Generator:
    """Generator positioned at the start of the given sample block."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if block_index < 0:
        raise ValueError("block_index must be nonnegative")
    bits = Philox(key=int(seed))
    bits.advance(int(block_index) * BLOCK_SAMPLES * _WORDS_PER_SAMPLE)
    return Generator(bits)


def block_ranges(total: int):
    """Yield (block_index, start, stop) covering range(total) in block order."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    block = 0
    start = 0
    while start < total:
        stop = min(start + BLOCK_SAMPLES, total)
        yield block, start, stop
        block += 1
        start = stop
