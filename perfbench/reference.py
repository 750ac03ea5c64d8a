"""A fixed probe of the host's speed, timed next to the program's commands.

On a shared host the same command runs up to 60% slower in some minutes than
in others, and a slow stretch lasts longer than a run, so no statistic over
one run's samples removes it. The benchmark therefore times this probe,
whose code never changes, beside every round of commands and every set-up
probe, and scales each time it reports by ``REFERENCE_S / probe``: a time
reads as it would on a host where the probe takes ``REFERENCE_S`` seconds.
The probe mixes the kinds of work the program does: interpreted Python,
JSON parsing and numpy array passes.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import numpy as np

# a fixed constant, of the order of probe() on the machine described in perfbench/README.md
REFERENCE_S = 0.05

_rng = random.Random(0)
_TEXT = json.dumps({f"k{i}": [_rng.random() for _ in range(20)] for i in range(1000)})
_ROWS = np.random.default_rng(0).random((200_000, 1))
_CUTS = np.linspace(0.0, 1.0, 12)[None, :]


def _python() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = perf_counter()
    _python()
    json.loads(_TEXT)
    json.loads(_TEXT)
    (_ROWS >= _CUTS).sum(axis=1)
    return perf_counter() - start
