"""Small shared helpers: seeded RNG streams and a disjoint-set."""

from __future__ import annotations

import hashlib
import random


def derive_rng(seed: int, *tokens) -> random.Random:
    """Deterministic RNG sub-stream for (seed, tokens).

    hash() is salted per process, so stream derivation goes through sha256 of
    the repr. Identical inputs give identical streams on any machine.
    """
    digest = hashlib.sha256(repr((seed,) + tokens).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class DisjointSet:
    """Union-find over hashable items, each added by the first find or
    union that touches it.

    Roots are compared by identity: a root's stored parent is always its own
    key object, and find returns that object for every item equal to it.
    """

    def __init__(self):
        self._parent = {}

    def find(self, item):
        parent = self._parent
        if item not in parent:
            parent[item] = item
            return item
        root = item
        while parent[root] is not root:
            root = parent[root]
        while parent[item] is not root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self._parent[rb] = ra
