"""Counter-based uniform random source (SplitMix64).

The simulator needs random draws that are reproducible bit-for-bit across
machines and independent of evaluation order. Both properties come for free
from a stateless counter scheme: draw ``t`` of the whole stream is

    u(seed, t) = mix64(seed + (t + 1) * GAMMA) >> 11  scaled to [0, 1)

where ``mix64`` is the SplitMix64 finalizer and GAMMA its golden-ratio
increment. Substreams are carved out of the counter space: stream ``k`` with
``d`` draws per stream owns counters ``k*d .. k*d + d - 1``. There is no
hidden state, so any subset of draws can be produced in any order, vectorized.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Raise InvalidParams unless ``seed`` is an integer in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise InvalidParams(f"seed must be an integer in [0, 2**64), got {seed!r}")


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * _MULT1
    z = (z ^ (z >> np.uint64(27))) * _MULT2
    return z ^ (z >> np.uint64(31))


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) at the given counter positions of the seed's stream.

    Each output has the full 53 bits of double-precision resolution.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    state = np.uint64(seed & _MASK64) + (counters + np.uint64(1)) * _GAMMA
    return (mix64(state) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_matrix(
    seed: int, streams: int, draws_per_stream: int, first_stream: int = 0
) -> np.ndarray:
    """Matrix of uniforms whose row ``k`` is substream ``first_stream + k`` of ``seed``.

    Substream ``s`` occupies counters ``[s * draws_per_stream,
    (s + 1) * draws_per_stream)``; entry ``[k, t]`` is draw ``t`` of
    substream ``first_stream + k``. Consecutive calls over adjacent stream
    ranges therefore tile the matrix of a single call over their union.
    """
    start = first_stream * draws_per_stream
    counters = np.arange(start, start + streams * draws_per_stream, dtype=np.uint64)
    return counter_uniforms(seed, counters).reshape(streams, draws_per_stream)
