"""Seeding contract and path driver for all Monte Carlo code.

Every path draws from its own counter-based stream: the Philox4x64-10
stream keyed by (master_seed, path_index), the stream of
``Generator(Philox(key=np.array([master_seed, path_index], dtype=np.uint64)))``.
The key must be that uint64 array: numpy turns a plain list holding a word
of 2**63 or more into float64, so ``Philox(key=[2**64 - 1, 0])`` is keyed
[0, 0] and ``Philox(key=[5, 2**63 + 5])`` [5, 2**63].  Estimates therefore
merge deterministically by path index regardless of how the path loop is
scheduled or batched: a sampler may draw a path's numbers in any order
relative to other paths, or replay a path from its key, and get the same
bits.  So every sampler hands its paths to ``by_chunks``, which cuts them
into consecutive ranges and may run the ranges on threads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .errors import ModelValidation

# Paths per range of the lockstep samplers: a range's block buffers and
# draws take about 1 MB.
CHUNK = 1024


def _is_integer(x) -> bool:
    """A Python or numpy integer; bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_seed(seed) -> None:
    """Raise ModelValidation unless seed is an integer in [0, 2**64), a Philox key word."""
    if not (_is_integer(seed) and 0 <= int(seed) < 1 << 64):
        raise ModelValidation(f"master seed must be an integer in [0, 2**64), not {seed!r}")


def check_count(n_paths) -> None:
    """Raise ModelValidation unless n_paths is an integer >= 1."""
    if not (_is_integer(n_paths) and n_paths >= 1):
        raise ModelValidation(f"path count must be an integer >= 1, not {n_paths!r}")


def by_chunks(run: Callable[[range], np.ndarray], n_paths: int, size: int = CHUNK,
              workers: int = 1) -> np.ndarray:
    """``run(paths)`` on consecutive ranges of at most size paths, joined in path order.

    With workers > 1 the ranges run on a thread pool, one range per task
    and at most one worker per range.  After a failed range, the ranges
    not yet started do not run, and the pool is joined before the error
    propagates.  Each range must draw from its own ``path_streams``
    iterator and write only its own buffers.
    """
    ranges = [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    workers = min(workers, len(ranges))
    if workers <= 1:
        return np.concatenate([run(paths) for paths in ranges])
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return np.concatenate(list(pool.map(run, ranges)))
    finally:
        pool.shutdown(cancel_futures=True)


def path_streams(master_seed: int,
                 indices: Iterable[int]) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(i, generator)`` positioned at the start of path i's stream.

    One Philox bit generator is re-keyed in place for each path: its key,
    counter, output buffer and half-used 32-bit word are all reset, so the
    draws equal those of a freshly built Philox keyed by the uint64 array
    [master_seed, i] at a fraction of the construction cost.  The generator is shared:
    finish drawing path i before advancing the iterator.  Use one iterator
    per thread: each call owns its own bit generator, so iterators in
    different threads may advance in any interleaving.
    """
    bitgen = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the setter reads the words one by one, so Python ints set faster than a uint64 array
    key = [int(master_seed), 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in indices:
        key[1] = int(i)
        bitgen.state = fresh
        yield i, gen
