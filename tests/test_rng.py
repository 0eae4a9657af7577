import numpy as np

from cvqkd.rng import CHUNK_SLOTS, chunk_bounds, chunk_generator, run_chunked


def test_chunk_bounds_cover_range_exactly():
    bounds = list(chunk_bounds(CHUNK_SLOTS * 2 + 17))
    assert bounds[0] == (0, 0, CHUNK_SLOTS)
    assert bounds[-1] == (2, 2 * CHUNK_SLOTS, 2 * CHUNK_SLOTS + 17)
    total = sum(stop - start for _, start, stop in bounds)
    assert total == CHUNK_SLOTS * 2 + 17


def test_chunk_generator_is_deterministic_per_key():
    a = chunk_generator(123, 0, 5).normal(size=8)
    b = chunk_generator(123, 0, 5).normal(size=8)
    assert np.array_equal(a, b)
    c = chunk_generator(123, 0, 6).normal(size=8)
    d = chunk_generator(124, 0, 5).normal(size=8)
    e = chunk_generator(123, 1, 5).normal(size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_run_chunked_thread_count_invariance():
    n = CHUNK_SLOTS * 3 + 101

    def make(threads):
        out = np.empty(n)

        def fill(gen, start, stop):
            out[start:stop] = gen.normal(size=stop - start)

        list(run_chunked(n, 42, fill, threads=threads))
        return out

    base = make(1)
    assert np.array_equal(base, make(4))
    assert np.array_equal(base, make(8))


def test_run_chunked_results_in_chunk_order():
    n = CHUNK_SLOTS + 10
    parts = list(run_chunked(n, 0, lambda gen, start, stop: (start, stop), threads=4))
    assert parts == [(0, CHUNK_SLOTS), (CHUNK_SLOTS, n)]


def test_run_chunked_bounds_chunks_submitted_ahead():
    # 200 whole chunks; the fill draws nothing, so each chunk costs only its generator
    threads, chunks = 2, 200
    started = []

    def fill(gen, start, stop):
        started.append(start // CHUNK_SLOTS)  # list.append is atomic
        return start // CHUNK_SLOTS

    seen = []
    for j in run_chunked(chunks * CHUNK_SLOTS, 3, fill, threads=threads):
        seen.append(j)
        assert max(started) <= j + 2 * threads
    assert seen == list(range(chunks))
