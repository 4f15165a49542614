"""Deterministic random-stream derivation.

Every randomized component draws from its own generator derived from
(seed, context key). Streams for distinct slots and clusters are independent,
so results do not depend on evaluation order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]

# stream name -> fixed lane id, so key layouts never collide across contexts;
# ids are never reused, so retired lanes leave gaps
_LANES = {
    "partition": 0,
    "edges": 1,
    "init": 3,
    "eval": 4,
    "oracle": 5,
    "mobility": 6,
    "protocol": 7,
    "measure": 8,
    "deploy": 9,
}


def substream(seed: int, lane: str, *key: int) -> np.random.Generator:
    """Return an independent generator for (seed, lane, key...).

    Same arguments always produce the same stream; distinct lanes or keys
    produce statistically independent streams.
    """
    lane_id = _LANES[lane]
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(lane_id, *map(int, key)))
    return np.random.Generator(np.random.PCG64(ss))
