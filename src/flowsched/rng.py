"""Deterministic random-number streams.

Every stochastic component owns an RngStream identified by a (seed, stream)
pair of 64-bit integers. Streams are backed by the counter-based Philox
generator, so the draw sequence for a given pair is bit-identical across
runs, platforms, and scheduling orders. Parallel work splits the key space
instead of sharing a mutable generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two streams with distinct (seed, stream) keys are statistically
    independent Philox streams; the same key always replays the same draws.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        object.__setattr__(self, "_gen", gen)

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

    def choice(self, n: int, p, size=None):
        """Weighted index draws in [0, n) by inverse CDF on one uniform each,
        so consumption per draw is fixed."""
        cdf = np.cumsum(p)
        u = self._gen.uniform(size=size)
        out = np.minimum(np.searchsorted(cdf, u), n - 1)
        return out if size is not None else int(out)
