"""Deterministic random-number streams.

Every stochastic component owns an RngStream identified by a (seed, stream)
pair of 64-bit integers. Streams are backed by the counter-based Philox
generator keyed by that pair, so the draw sequence for a given pair is
bit-identical across runs, platforms, and scheduling orders. Parallel work
splits the key space instead of sharing a mutable generator.

A stream builds its generator lazily, on its first draw, straight from its
key: Philox reads its key from a key-only seed sequence, so no OS entropy is
gathered and the draws are those of Philox(key=(seed, stream)). A stream that
only derives children never builds one. The seed and stream are checked to be
integers when the stream is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of splitmix64; a bijective 64-bit mix."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_stream(stream: int, *indices: int) -> int:
    """Fold indices into a stream id. Used to derive per-purpose substreams."""
    acc = stream & _MASK64
    for i in indices:
        acc = _splitmix64(acc ^ _splitmix64(i & _MASK64))
    return acc


@cache
def _key_seed_type() -> type:
    """The type of a seed sequence that is only a Philox key: Philox asks it
    for generate_state(2, uint64) and gets the key itself. Made on first use,
    so importing flowsched does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySeed


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two streams with distinct (seed, stream) keys are statistically
    independent Philox streams; the same key always replays the same draws.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        # masked here, so a seed or stream that is not an integer raises now
        object.__setattr__(self, "_key", (self.seed & _MASK64, self.stream & _MASK64))

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            _key_seed_type()(np.array(self._key, dtype=np.uint64))))

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent substream; deterministic in the indices."""
        return RngStream(self.seed, mix_stream(self.stream, *indices))

    # Draw helpers; all state lives in the wrapped generator.
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def gamma(self, shape: float, size=None):
        return self._gen.gamma(shape, size=size)

    def beta(self, a: float, b: float, size=None):
        return self._gen.beta(a, b, size=size)

    def choice(self, n: int, p, size=None):
        """Weighted index draws in [0, n) by inverse CDF on one uniform each,
        so consumption per draw is fixed."""
        cdf = np.cumsum(p)
        u = self._gen.uniform(size=size)
        out = np.minimum(np.searchsorted(cdf, u), n - 1)
        return out if size is not None else int(out)
