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


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) at the given counter positions of the seed's stream.

    Each output has the full 53 bits of double-precision resolution. This is
    the reference form of the stream: one state ``seed + (t + 1) * GAMMA``
    per counter ``t``, finalized by :func:`_uniforms_from_states`.
    """
    z = np.asarray(counters, dtype=np.uint64) + np.uint64(1)
    z *= _GAMMA
    z += np.uint64(seed & _MASK64)
    return _uniforms_from_states(z, np.empty_like(z))


def _uniforms_from_states(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each state in ``z``, as a uniform in [0, 1).

    The finalizer runs in place on ``z``, with ``shifted``, a uint64 array
    of ``z``'s shape, for the shifted copies; ``shifted`` then holds the
    output, viewed as float64.
    """
    for shift, mult in ((30, _MULT1), (27, _MULT2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mult is not None:
            z *= mult
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=shifted.view(np.float64))


def stream_offsets(streams: int, draws_per_stream: int) -> np.ndarray:
    """``k * draws_per_stream * GAMMA`` (mod 2**64) for ``k < streams``: the state offsets of the streams of a tile."""
    offsets = np.arange(streams, dtype=np.uint64)
    offsets *= np.uint64(draws_per_stream * int(_GAMMA) & _MASK64)
    return offsets


def uniform_matrix(
    seed: int,
    streams: int,
    draws: int,
    first_stream: int = 0,
    first_draw: int = 0,
    draws_per_stream: int | None = None,
    *,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of uniforms whose row ``k`` holds draws of substream ``first_stream + k`` of ``seed``.

    Substream ``s`` occupies counters ``[s * d, (s + 1) * d)`` with ``d =
    draws_per_stream`` (by default ``draws``); entry ``[k, t]`` is draw
    ``first_draw + t`` of substream ``first_stream + k``. Any tile of streams
    and consecutive draws therefore matches the same tile of a single call
    over every stream and draw. The matrix is a transposed view of a
    draw-major array, so each draw's column over the streams is contiguous.

    Draw ``t`` of stream ``s`` has state ``seed + (t + 1) * GAMMA + s * d *
    GAMMA`` (mod 2**64), the state :func:`counter_uniforms` gives counter
    ``t + s * d``, so the tile's states are one outer sum of a per-draw
    vector, which holds ``seed + first_stream * d * GAMMA``, and the
    per-stream vector :func:`stream_offsets` of ``k = s - first_stream``.

    ``buffers``, two flat uint64 arrays of at least ``streams * draws``
    entries, take the tile's states and then its output, which is then a
    view of the second; by default both are new arrays. ``offsets``, made
    once for many tiles, is ``stream_offsets(m, d)`` for some ``m >=
    streams``, of which the first ``streams`` entries are read; by default
    it is made here.
    """
    if draws_per_stream is None:
        draws_per_stream = draws
    size = streams * draws
    if buffers is None:
        buffers = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    if offsets is None:
        offsets = stream_offsets(streams, draws_per_stream)
    states, output = (buffer[:size].reshape(draws, streams) for buffer in buffers)
    # uint64 array arithmetic wraps mod 2**64; the scalar terms are reduced in Python
    draw_states = np.arange(first_draw + 1, first_draw + draws + 1, dtype=np.uint64)
    draw_states *= _GAMMA
    draw_states += np.uint64((seed + first_stream * draws_per_stream * int(_GAMMA)) & _MASK64)
    np.add.outer(draw_states, offsets[:streams], out=states)
    return _uniforms_from_states(states, output).T
