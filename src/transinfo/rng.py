"""Seeding contract for all Monte Carlo code.

Every path draws from its own counter-based stream: the Philox4x32-10
stream keyed by (master_seed, path_index), the stream of
``Generator(Philox(key=[master_seed, path_index]))``.  Estimates therefore
merge deterministically by path index regardless of how the path loop is
scheduled or batched: a sampler may draw a path's numbers in any order
relative to other paths, or replay a path from its key, and get the same
bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def path_streams(master_seed: int,
                 indices: Iterable[int]) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(i, generator)`` positioned at the start of path i's stream.

    One Philox bit generator is re-keyed in place for each path: its key,
    counter, output buffer and half-used 32-bit word are all reset, so the
    draws equal those of a freshly built ``Philox(key=[master_seed, i])``
    at a fraction of the construction cost.  The generator is shared:
    finish drawing path i before advancing the iterator.  Use one iterator
    per thread: each call owns its own bit generator, so iterators in
    different threads may advance in any interleaving.
    """
    key = np.array([master_seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in indices:
        key[1] = i
        bitgen.state = fresh
        yield i, gen
