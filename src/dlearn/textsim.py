"""String similarity: local alignment with affine gaps, length ratio, and the
precomputed cross-attribute match index used by similarity selection.

Scoring constants live in one block below. The combined operator is the
average of the alignment score (normalized into [0, 1]) and the length ratio.

The index build never aligns a value pair whose combined_bound plus EPS is
below the threshold: such a pair cannot be kept (count filtering, Gravano et
al., VLDB 2001). Every other pair gets exactly the score it would get
unpruned, so the kept entries do not change.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from .store import Database

MATCH_SCORE = 1.0
MISMATCH_SCORE = -2.0
GAP_OPEN = -0.5
GAP_EXTEND = -0.3
# slack on the pre-alignment bound, so float rounding never prunes a pair
# that scores at the threshold
EPS = 1e-9

NEG_INF = float("-inf")

PairKey = tuple[tuple[str, str], tuple[str, str]]


def length_similarity(a: str, b: str) -> float:
    """len(shorter)/len(longer); two empty strings count as identical."""
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    return min(la, lb) / max(la, lb)


def swg_similarity(a: str, b: str) -> float:
    """Best local alignment score with affine gaps, normalized to [0, 1].

    Normalization divides by MATCH_SCORE * min(len(a), len(b)), the score of a
    perfect alignment of the shorter string.
    """
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    # h: best score of alignment ending at (i, j); e/f: ending in a gap.
    # Each `max(x, y, ...)` of the recurrence is written out as comparisons
    # that keep the first of equal values, as max() does.
    prev_h = [0.0] * (lb + 1)
    prev_e = [NEG_INF] * (lb + 1)
    best = 0.0
    for ca in a:
        h_row = [0.0] * (lb + 1)
        e_row = [NEG_INF] * (lb + 1)
        f = NEG_INF
        h = 0.0  # h of the cell to the left
        for j in range(1, lb + 1):
            sub = MATCH_SCORE if ca == b[j - 1] else MISMATCH_SCORE
            e = prev_h[j] + GAP_OPEN
            t = prev_e[j] + GAP_EXTEND
            if t > e:
                e = t
            t = h + GAP_OPEN
            f = f + GAP_EXTEND
            if not f > t:
                f = t
            d = prev_h[j - 1] + sub
            h = 0.0
            if d > h:
                h = d
            if e > h:
                h = e
            if f > h:
                h = f
            e_row[j] = e
            h_row[j] = h
            if h > best:
                best = h
        prev_h, prev_e = h_row, e_row
    return min(1.0, best / (MATCH_SCORE * min(la, lb)))


def combined_similarity(a: str, b: str) -> float:
    return (swg_similarity(a, b) + length_similarity(a, b)) / 2.0


def combined_bound(a: str, counts_a: Counter, b: str, counts_b: Counter) -> float:
    """Upper bound on combined_similarity(a, b), from the strings' lengths
    and character counts (counts_a == Counter(a), counts_b == Counter(b)).

    Only matched characters add to a local alignment (MATCH_SCORE each; a
    mismatch or gap adds a negative score), and they pair equal characters
    in order, so the alignment part is at most the multiset intersection
    over the shorter length. The length part is exact.
    """
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 1.0 if a == b else 0.0
    common = 0
    for ch, n in counts_a.items():
        m = counts_b.get(ch, 0)
        common += n if n < m else m
    return (min(1.0, common / shorter) + length_similarity(a, b)) / 2.0


@dataclass
class SimilarityIndex:
    """Top-k similar value pairs per comparable attribute pair.

    entries maps ((rel1, attr1), (rel2, attr2)) to {left value: ((right value,
    score), ...)} with each sequence sorted by descending score, ties broken
    by the right value, and truncated to k_m entries on both sides. Lookups
    work from either side of a pair; the right-to-left table of a pair is
    built on its first lookup from the right side.
    """

    k_m: int
    threshold: float
    entries: dict[PairKey, dict[str, Sequence[tuple[str, float]]]] = field(default_factory=dict)
    _reverse: dict[PairKey, dict[str, tuple[tuple[str, float], ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _reverse_table(self, pair: PairKey) -> dict[str, tuple[tuple[str, float], ...]]:
        rev = self._reverse.get(pair)
        if rev is None:
            lefts: dict[str, list[tuple[str, float]]] = {}
            for left, matches in self.entries[pair].items():
                for right, score in matches:
                    lefts.setdefault(right, []).append((left, score))
            rev = {right: tuple(sorted(lst, key=lambda m: (-m[1], m[0])))
                   for right, lst in lefts.items()}
            self._reverse[pair] = rev
        return rev

    def covers(self, relation: str, attribute: str) -> bool:
        side = (relation, attribute)
        return any(side in pair for pair in self.entries)

    def matches(self, relation: str, attribute: str, value: str) -> list[tuple[str, float, PairKey]]:
        """Values at (relation, attribute) similar to `value`, with scores."""
        side = (relation, attribute)
        found: dict[str, tuple[float, PairKey]] = {}
        for pair in self.entries:
            if pair[1] == side:
                table = self.entries[pair].get(value, ())
            elif pair[0] == side:
                table = self._reverse_table(pair).get(value, ())
            else:
                continue
            for other, score in table:
                if other not in found or score > found[other][0]:
                    found[other] = (score, pair)
        return [(v, s, p) for v, (s, p) in sorted(found.items(), key=lambda kv: (-kv[1][0], kv[0]))]

    def rows(self):
        """Flat (left_attr, right_attr, left, right, score) rows for dumping."""
        for pair in sorted(self.entries):
            (r1, a1), (r2, a2) = pair
            fwd = self.entries[pair]
            for left in sorted(fwd):
                for right, score in fwd[left]:
                    yield f"{r1}.{a1}", f"{r2}.{a2}", left, right, score


def _truncate(matches: list[tuple[str, float]], k_m: int) -> list[tuple[str, float]]:
    matches.sort(key=lambda m: (-m[1], m[0]))
    return matches[:k_m]


def _attr_values(db: Database, examples, relation: str, attribute: str) -> list[str]:
    if relation == db.schema.target:
        pos = db.schema.relation(relation).attr_index(attribute)
        seen = dict.fromkeys(e.values[pos] for e in examples if e.relation == relation)
        return list(seen)
    return db.values_at(relation, attribute)


def build_similarity_index(db: Database, examples, mds, k_m: int, threshold: float) -> SimilarityIndex:
    """Score the cross value pairs of each matching-dependency attribute pair.

    Identical value pairs are skipped: exact matches are already reachable
    through equality selection and unifying two equal values changes nothing.
    Pairs whose combined_bound plus EPS is below the threshold are skipped
    unscored; they could not be kept. Truncation to the k_m best matches is
    applied per left value and then per right value.
    """
    pair_keys: list[PairKey] = []
    for md in mds:
        for pair in md.lhs:
            if pair not in pair_keys:
                pair_keys.append(pair)
    counts: dict[str, Counter] = {}
    entries: dict[PairKey, dict[str, Sequence[tuple[str, float]]]] = {}
    for pair in pair_keys:
        (r1, a1), (r2, a2) = pair
        left_values = _attr_values(db, examples, r1, a1)
        right_values = _attr_values(db, examples, r2, a2)
        for v in left_values + right_values:
            if v not in counts:
                counts[v] = Counter(v)
        right = [(rv, counts[rv]) for rv in right_values]
        fwd: dict[str, list[tuple[str, float]]] = {}
        for lv in left_values:
            lc = counts[lv]
            scored = []
            for rv, rc in right:
                if lv == rv or combined_bound(lv, lc, rv, rc) + EPS < threshold:
                    continue
                s = combined_similarity(lv, rv)
                if s >= threshold:
                    scored.append((rv, s))
            if scored:
                fwd[lv] = _truncate(scored, k_m)
        # second-side truncation: keep only the k_m best lefts per right value
        by_right: dict[str, list[tuple[str, float]]] = {}
        for lv, matches in fwd.items():
            for rv, s in matches:
                by_right.setdefault(rv, []).append((lv, s))
        keep = set()
        for rv, lefts in by_right.items():
            for lv, s in _truncate(lefts, k_m):
                keep.add((lv, rv))
        pruned = {}
        for lv, matches in fwd.items():
            kept = tuple(m for m in matches if (lv, m[0]) in keep)
            if kept:
                pruned[lv] = kept
        if pruned:
            entries[pair] = pruned
    return SimilarityIndex(k_m=k_m, threshold=threshold, entries=entries)
