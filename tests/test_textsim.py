import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlearn import constraints, store, textsim
from dlearn.textsim import (EPS, GAP_EXTEND, GAP_OPEN, MATCH_SCORE, MISMATCH_SCORE,
                            build_similarity_index, combined_bound, combined_similarity,
                            length_similarity, swg_similarity)
from dlearn.store import Example
from helpers import AKA_MD, TITLE_MD, TITLE_SCHEMA_TEXT, brute_force_index, title_database


def swg_reference(a: str, b: str) -> float:
    """Independent top-down scorer: best alignment score over all local
    alignment paths, tracked through explicit match/gap states."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0

    @lru_cache(maxsize=None)
    def best_ending_at(i, j, state):
        # best score of an alignment whose last column is at (i, j) in the
        # given state: 0 = substitution, 1 = gap in b, 2 = gap in a
        if state == 0:
            sub = MATCH_SCORE if a[i] == b[j] else MISMATCH_SCORE
            prev = 0.0
            if i > 0 and j > 0:
                prev = max(0.0, *(best_ending_at(i - 1, j - 1, s) for s in range(3)))
            return prev + sub
        if state == 1:
            if i == 0:
                return float("-inf")
            opened = max(best_ending_at(i - 1, j, 0), best_ending_at(i - 1, j, 2))
            extended = best_ending_at(i - 1, j, 1)
            return max(opened + GAP_OPEN, extended + GAP_EXTEND)
        if j == 0:
            return float("-inf")
        opened = max(best_ending_at(i, j - 1, 0), best_ending_at(i, j - 1, 1))
        extended = best_ending_at(i, j - 1, 2)
        return max(opened + GAP_OPEN, extended + GAP_EXTEND)

    best = 0.0
    for i in range(len(a)):
        for j in range(len(b)):
            best = max(best, best_ending_at(i, j, 0))
    return min(1.0, best / (MATCH_SCORE * min(len(a), len(b))))


def test_length_similarity_values():
    assert length_similarity("Superbad", "Superbad (2007)") == pytest.approx(8 / 15, abs=1e-12)
    assert length_similarity("abc", "abc") == 1.0
    assert length_similarity("", "x") == 0.0
    assert length_similarity("", "") == 1.0


def test_swg_identity_and_disjoint():
    assert swg_similarity("Superbad", "Superbad") == 1.0
    assert swg_similarity("abc", "xyz") == 0.0
    assert swg_similarity("", "") == 1.0
    assert swg_similarity("", "x") == 0.0


def test_swg_frozen_reference_values():
    # value confirmed by the independent reference scorer: the shorter string
    # aligns exactly as a prefix, so the normalized score is 1.0
    assert swg_reference("Superbad", "Superbad (2007)") == pytest.approx(1.0)
    assert swg_similarity("Superbad", "Superbad (2007)") == pytest.approx(1.0, abs=1e-12)
    for pair in [("kitten", "sitting"), ("abcdef", "abdf"), ("Star Wars", "Star Trek"),
                 ("aab", "ab"), ("xaxbxc", "abc")]:
        assert swg_similarity(*pair) == pytest.approx(swg_reference(*pair), abs=1e-9)


def test_combined_values():
    assert combined_similarity("same", "same") == 1.0
    assert combined_similarity("abc", "xyz") == pytest.approx(0.5)
    expect = (1.0 + 8 / 15) / 2
    assert combined_similarity("Superbad", "Superbad (2007)") == pytest.approx(expect, abs=1e-12)


def test_symmetry_and_range_random_pairs():
    rng = random.Random(11)
    alphabet = "abcdefgh ()0123"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for fn in (length_similarity, swg_similarity, combined_similarity):
            s_ab, s_ba = fn(a, b), fn(b, a)
            assert abs(s_ab - s_ba) <= 1e-12
            assert 0.0 <= s_ab <= 1.0
    for _ in range(50):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        assert combined_similarity(s, s) == 1.0


def test_build_index_movie_pairs(movie_db, movie_mds, movie_examples):
    idx = build_similarity_index(movie_db, list(movie_examples.values()), movie_mds,
                                 k_m=2, threshold=0.5)
    pair = (("highGrossing", "title"), ("movies", "title"))
    assert ("Superbad (2007)", pytest.approx((1.0 + 8 / 15) / 2)) == idx.entries[pair]["Superbad"][0]


def test_build_index_threshold_above_one(movie_db, movie_mds, movie_examples):
    idx = build_similarity_index(movie_db, list(movie_examples.values()), movie_mds,
                                 k_m=2, threshold=1.001)
    assert set(idx.entries) == {md.pair for md in movie_mds}
    assert all(table == {} for table in idx.entries.values())


def test_build_index_truncation(movie_db, movie_mds, movie_examples):
    idx = build_similarity_index(movie_db, list(movie_examples.values()), movie_mds,
                                 k_m=1, threshold=0.1)
    for table in idx.entries.values():
        for matches in table.values():
            assert len(matches) <= 1
            for _, score in matches:
                assert score >= 0.1


def test_index_lists_sorted_and_thresholded(movie_db, movie_mds, movie_examples):
    idx = build_similarity_index(movie_db, list(movie_examples.values()), movie_mds,
                                 k_m=5, threshold=0.3)
    for table in idx.entries.values():
        for matches in table.values():
            scores = [s for _, s in matches]
            assert scores == sorted(scores, reverse=True)
            assert all(s >= 0.3 for s in scores)


def test_index_symmetric_lookup():
    pair = (("t", "v"), ("a", "x"))
    idx = textsim.SimilarityIndex(entries={pair: {"p": [("q", 0.9)]}})
    assert [(m, s) for m, s, _ in idx.matches("a", "x", "p")] == [("q", 0.9)]
    assert [(m, s) for m, s, _ in idx.matches("t", "v", "q")] == [("p", 0.9)]
    assert idx.matches("a", "x", "zzz") == []
    assert idx.covers("a", "x") and idx.covers("t", "v")
    assert not idx.covers("a", "k")


_strings = st.one_of(
    st.text(alphabet="aab (1)", max_size=14),  # few letters: repeats and near matches
    st.text(alphabet="éß€𝄞 a", max_size=10),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(_strings, _strings)
@example("", "")
@example("", "abc")
@example("aaaa", "aa")
@example("Superbad", "Superbad (2007)")
def test_combined_bound_never_below_score(a, b):
    assert combined_bound(a, Counter(a), b, Counter(b)) + EPS >= combined_similarity(a, b)


_inner = st.one_of(
    st.text(alphabet="aab (1)", min_size=1, max_size=8),
    st.text(alphabet="éß€𝄞 a", min_size=1, max_size=8),
    st.text(min_size=1, max_size=8),
)
_affix = st.one_of(st.text(alphabet="aab (1)", max_size=6), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(_inner, _affix, _affix)
@example("Superbad", "", " (2007)")
@example("a", "", "")
@example("ab", "b", "")
def test_containment_scores_one_exactly(a, x, y):
    # swg_similarity answers these pairs without aligning; the independent
    # reference aligns them, and both must give exactly 1.0
    longer = x + a + y
    assert swg_similarity(a, longer) == 1.0
    assert swg_similarity(longer, a) == 1.0
    assert swg_reference(a, longer) == 1.0
    assert combined_similarity(a, longer) == (1.0 + length_similarity(a, longer)) / 2.0


def _assert_same_entries(got, expect):
    # equal tables, scores compared as floats with ==, and every table and
    # match list in the same order
    assert got == expect
    assert [(pair, list(table.items())) for pair, table in got.items()] == \
        [(pair, list(table.items())) for pair, table in expect.items()]


@pytest.mark.parametrize("family", [0, 3])
@pytest.mark.parametrize("k_m", [1, 2, 3, 5])
def test_pruned_index_equals_brute_force(family, k_m):
    db, mds, examples = title_database(40, seed=4 + family, family=family)
    for threshold in (0.5, 0.65, 0.8):
        idx = build_similarity_index(db, examples, mds, k_m=k_m, threshold=threshold)
        expect = brute_force_index(db, examples, mds, k_m, threshold)
        assert expect
        _assert_same_entries(idx.entries, expect)


def _small_title_db(examples, movies, akas):
    """A title database over the given strings: examples are highGrossing
    titles, and movies and aka titles are matched by a stored pair too."""
    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    db = store.from_tuples(schema, {
        "movies": [(f"m{i}", t, "2000") for i, t in enumerate(movies)],
        "aka": [(f"a{i}", t) for i, t in enumerate(akas)]})
    mds, _ = constraints.parse_constraints(TITLE_MD + "\n" + AKA_MD, schema)
    return db, mds, [Example("highGrossing", (t,)) for t in examples]


# short strings over two letters: many pairs tie, also at a value's k_m-th
# best score, so the tie rule (by right value) decides what is kept
_tie_titles = st.lists(st.text(alphabet="ab", min_size=1, max_size=5), max_size=8, unique=True)


@settings(max_examples=150, deadline=None)
@given(_tie_titles, _tie_titles, _tie_titles)
@example(["ab"], ["bab", "abb", "aba", "ba"], ["abab", "aab"])
def test_pruned_index_equals_brute_force_with_ties(examples, movies, akas):
    db, mds, exs = _small_title_db(examples, movies, akas)
    for k_m in (1, 2, 3):
        for threshold in (0.5, 0.65, 0.8):
            idx = build_similarity_index(db, exs, mds, k_m=k_m, threshold=threshold)
            _assert_same_entries(idx.entries, brute_force_index(db, exs, mds, k_m, threshold))


def test_index_tie_at_the_floor_goes_to_the_smaller_right_value():
    db, mds, exs = _small_title_db(["ab"], ["bab", "abb", "aba", "ba"], [])
    pair = (("highGrossing", "title"), ("movies", "title"))
    # "ab" aligns whole inside each three-letter title: three equal scores
    tie = (1.0 + 2 / 3) / 2
    assert [combined_similarity("ab", t) for t in ("bab", "abb", "aba")] == [tie] * 3
    for k_m, kept in ((1, ["aba"]), (2, ["aba", "abb"]), (3, ["aba", "abb", "bab"])):
        idx = build_similarity_index(db, exs, mds, k_m=k_m, threshold=0.8)
        assert idx.entries[pair]["ab"] == tuple((t, tie) for t in kept)


def test_index_build_stops_at_the_top_k_floor(monkeypatch):
    db, mds, examples = title_database(24, seed=0, family=0)
    lefts = [e.values[0] for e in examples]
    rights = db.values_at("movies", "title")
    # the pairs count filtering alone would score
    count_filtered = sum(
        1 for lv in lefts for rv in rights
        if lv != rv and combined_bound(lv, Counter(lv), rv, Counter(rv)) + EPS >= 0.65)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return combined_similarity(a, b)

    monkeypatch.setattr(textsim, "combined_similarity", counted)
    idx = build_similarity_index(db, examples, mds, k_m=1, threshold=0.65)
    monkeypatch.undo()
    assert idx.entries == brute_force_index(db, examples, mds, 1, 0.65)
    # measured: 26 of the 112 pairs count filtering keeps are scored
    assert count_filtered == 112
    assert len(calls) <= 26


def _counting_bounds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return combined_bound(*args)

    monkeypatch.setattr(textsim, "combined_bound", counted)
    return calls


def test_index_build_cuts_by_length_below_the_containment_floor(monkeypatch):
    db, mds, examples = title_database(24, seed=0, family=0)
    cross = sum(1 for e in examples for rv in db.values_at("movies", "title")
                if e.values[0] != rv)
    calls = _counting_bounds(monkeypatch)
    idx = build_similarity_index(db, examples, mds, k_m=1, threshold=0.65)
    monkeypatch.undo()
    assert idx.entries == brute_force_index(db, examples, mds, 1, 0.65)
    # measured: 359 of the 576 cross pairs get a character-count bound
    assert cross == 576
    assert len(calls) <= 359


@pytest.mark.parametrize("k_m", [1, 2, 3, 4])
def test_index_length_cut_keeps_ties_at_the_containment_floor(monkeypatch, k_m):
    # "ab" lies inside "bab", "abb" and "aba", which tie at (1 + 2/3) / 2, and
    # inside "abab" at (1 + 1/2) / 2; "ba" only shares letters with it
    movies = ["bab", "abb", "aba", "ba", "abab"]
    for threshold in (0.5, 0.65, 0.8):
        db, mds, exs = _small_title_db(["ab"], movies, [])
        calls = _counting_bounds(monkeypatch)
        idx = build_similarity_index(db, exs, mds, k_m=k_m, threshold=threshold)
        monkeypatch.undo()
        _assert_same_entries(idx.entries, brute_force_index(db, exs, mds, k_m, threshold))
        # the floor is the k_m-th containment score or the threshold: the
        # pairs tied at it stay, and "abab" is cut unless it sets the floor
        bounded = movies if k_m == 4 and threshold < 0.75 else movies[:4]
        assert [rv for _, _, rv, _ in calls] == bounded


def test_index_keeps_nothing_at_k_m_zero():
    db, mds, examples = title_database(24, seed=0, family=0)
    idx = build_similarity_index(db, examples, mds, k_m=0, threshold=0.65)
    assert set(idx.entries) == {md.pair for md in mds}
    assert all(table == {} for table in idx.entries.values())


@pytest.mark.parametrize("k_m", [0, -1])
def test_index_below_k_m_one_scores_no_pair(monkeypatch, k_m):
    # a negative k_m used to keep all but the last match of each value
    def never(*args):
        raise AssertionError("a pair was scored")

    monkeypatch.setattr(textsim, "combined_bound", never)
    monkeypatch.setattr(textsim, "combined_similarity", never)
    db, mds, examples = title_database(24, seed=0, family=0)
    idx = build_similarity_index(db, examples, mds, k_m=k_m, threshold=0.65)
    assert idx.entries == {md.pair: {} for md in mds}


def test_pruned_index_stored_pair_reverse_lookup():
    db, mds, examples = title_database(40, seed=9, family=2, stored_pair=True)
    idx = build_similarity_index(db, examples, mds, k_m=5, threshold=0.65)
    expect = brute_force_index(db, examples, mds, 5, 0.65)
    assert idx.entries == expect
    pair = (("movies", "title"), ("aka", "title"))
    assert expect[pair] and pair not in idx._reverse
    for movie, matches in expect[pair].items():
        assert [(v, s) for v, s, _ in idx.matches("aka", "title", movie)] == list(matches)
    assert pair not in idx._reverse
    for aka in db.values_at("aka", "title"):
        lefts = sorted(((movie, s) for movie, matches in expect[pair].items()
                        for other, s in matches if other == aka), key=lambda m: (-m[1], m[0]))
        assert [(v, s) for v, s, _ in idx.matches("movies", "title", aka)] == lefts
    assert pair in idx._reverse
