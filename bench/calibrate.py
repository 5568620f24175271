"""A fixed reference computation that measures the host's speed.

The kernel is pure Python and does not touch dlearn: a local alignment of two
fixed strings (the inner loop of the similarity index) and the building of
small tuples, sets and dicts (the bulk of repair expansion and subsumption).
Its time right before and right after a timed call tells how fast the host
ran during the call.
"""

from __future__ import annotations

import time

# About the kernel's time on the 2-vCPU host the benchmark's figures were
# first taken on, in a fast spell: a scaled time reads as seconds on that host.
REFERENCE_S = 0.003

_A = "Golden Harbor 417 (2013) Silent Crimson Empire 88"
_B = "Golden Harbour 471 (2031) Silent Crimson Empires 8"


def _align(a: str, b: str) -> float:
    prev = [0.0] * (len(b) + 1)
    best = 0.0
    for ca in a:
        row = [0.0] * (len(b) + 1)
        for j, cb in enumerate(b, 1):
            h = max(0.0, prev[j - 1] + (1.0 if ca == cb else -2.0), prev[j] - 0.5, row[j - 1] - 0.5)
            row[j] = h
            if h > best:
                best = h
        prev = row
    return best


def _collections(n: int) -> int:
    seen: dict[tuple, frozenset] = {}
    for i in range(n):
        key = (f"v{i % 97}", i % 13, ("x", i % 7))
        seen.setdefault(key, frozenset({key[0], key[1]}))
    return len(seen)


def sample() -> float:
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    _align(_A, _B)
    _collections(3000)
    return time.perf_counter() - t0
