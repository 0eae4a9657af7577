"""Reproducible, independently seeded randomness for slot simulation.

Slots are partitioned into fixed-size chunks and every chunk owns an
independent SFC64 stream seeded by
``SeedSequence(entropy=master_seed, spawn_key=(STREAM_SESSION, chunk_index))``.
The mapping never depends on thread count or execution order, so a session
is bit-identical however the chunks are scheduled. Within a chunk the
sampler draws its per-ratio counts and then its columns in a fixed sequence
(see ``protocol``), making a chunk's slots a pure function of the master seed
and the chunk index.

The sampler reduces each chunk to its per-ratio moments inside ``fill`` and
folds the results ``run_chunked`` yields as they arrive, in chunk-index
order, so the merged floating-point sums do not depend on the thread count
either, and a session holds a bounded number of chunks' results at a time.
"""

from __future__ import annotations

from collections import deque

import numpy as np

CHUNK_SLOTS = 1 << 16

# stream ids keep unrelated consumers of the same master seed independent
STREAM_SESSION = 0


def chunk_generator(master_seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    """SFC64 generator for one chunk of one stream."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, chunk_index))
    return np.random.Generator(np.random.SFC64(ss))


def chunk_bounds(n_slots: int):
    """Yield (chunk_index, start_slot, stop_slot) covering [0, n_slots)."""
    for j in range(0, -(-n_slots // CHUNK_SLOTS)):
        yield j, j * CHUNK_SLOTS, min((j + 1) * CHUNK_SLOTS, n_slots)


def run_chunked(n_slots: int, master_seed: int, fill, *, threads: int = 1,
                chunks: range | None = None):
    """Evaluate ``fill(rng, start, stop)`` per chunk (in ``chunks``); yield the results in order.

    ``fill`` returns the chunk's result (the samplers: its moments) and may
    also write into preallocated [start:stop) slices; chunks are disjoint, so
    threaded execution is safe. ``threads`` only affects scheduling: with
    more than one, at most ``2 * threads`` chunks are submitted ahead of the
    one the caller waits for, so results held in flight do not grow with
    the chunk count.
    """
    bounds = [b for b in chunk_bounds(n_slots) if chunks is None or b[0] in chunks]

    def one(args):
        j, start, stop = args
        return fill(chunk_generator(master_seed, STREAM_SESSION, j), start, stop)

    if threads <= 1 or len(bounds) <= 1:
        yield from map(one, bounds)
        return
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay for its import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for b in bounds:
            ahead.append(pool.submit(one, b))
            if len(ahead) > 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
