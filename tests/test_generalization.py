import hashlib
import itertools
import operator
import random
from collections import Counter

import pytest

from dlearn import (constraints, evalcli, generalization, learner, logic, saturation, store,
                    subsumption, textsim)
from dlearn.generalization import (ClauseStats, OrderedClause, armg, best_scored,
                                   drop_with_repair, find_blocking_literal, order_clause,
                                   score_clause)
from dlearn.logic import parse_clause, print_clause
from helpers import (TITLE_MD, cfd_micro_dataset, cfd_micro_db_clauses, clause_pair,
                     cyclic_garbage, random_micro_db, reference_drop_with_repair,
                     reference_find_blocking_literal, seeded_titles, title_database)


@pytest.fixture
def movie_cfg():
    return saturation.SaturationConfig(d=3, sample_size=1000, rng_seed=1)


@pytest.fixture
def movie_clauses(movie_db, movie_mds, movie_idx, movie_examples, movie_cfg):
    c = saturation.bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [],
                                 movie_idx, movie_cfg)
    gs = {
        name: saturation.ground_bottom_clause(ex, movie_db, movie_mds, [], movie_idx, movie_cfg)
        for name, ex in movie_examples.items()
    }
    return c, gs


def test_order_clause_kinds_then_symbol(movie_clauses):
    c, _ = movie_clauses
    ordered = order_clause(c).clause
    kinds = [type(l).__name__ for l in ordered.body]
    assert kinds == sorted(kinds, key=lambda k: {"Rel": 0, "Sim": 1, "Eq": 2, "RepairLit": 3}[k])
    rels = [l.relation for l in ordered.body if isinstance(l, logic.Rel)]
    assert rels == sorted(rels)


def test_order_clause_idempotent_and_stable():
    c = parse_clause("t(V0) :- movies(V0,V1,V2), movies(V0,V3,V4), countries(V1,'x').")
    once = order_clause(c).clause
    assert order_clause(once).clause == once
    # the two movies literals keep their input order
    movies = [l for l in once.body if isinstance(l, logic.Rel) and l.relation == "movies"]
    assert movies[0].args[1] == logic.Variable(1)


def test_order_clause_is_pinned_on_cfd_micro_clauses():
    # the ARMG literal order of repair literals rests on how their condition
    # atoms print and sort; this pins it on clauses with many eq, neq and sim
    # conditions, so a change to the condition atoms cannot reorder it
    text = "\n".join(print_clause(order_clause(c).clause)
                     for case in cfd_micro_db_clauses() for triple in case for c in triple)
    assert text.count("neq(") >= 50 and text.count("rep{sim(") >= 500
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5cfc15ad762e9b153057013ced56fe11cafc3089132b6054ce49c28fed44c673")


def test_learned_cfd_micro_definition_is_pinned():
    db, mds, cfds, _, examples, _ = cfd_micro_dataset(by_title=True, n=6)
    cfg = learner.LearnerConfig(d=3, sample_size=100, rng_seed=3, min_pos=1)
    definition = learner.learn(db, mds, cfds, examples[:3], examples[3:], cfg)
    assert definition.pretty() == (
        "# pos=3 neg=0\n"
        "t(V0) :- mov2countries(V1,V2), mov2genres(V1,'comedy'), movies(V1,V3), sim(V0,V3), "
        "eq(V4,V5), rep{sim(V0,V3)}(V0,V4), rep{sim(V0,V3)}(V3,V5).\n")


def test_find_blocking_literal_movie_example(movie_clauses):
    c, gs = movie_clauses
    ordered = order_clause(c)
    index, exhausted = find_blocking_literal(ordered, gs["Zoolander"])
    assert not exhausted
    lit = ordered.clause.body[index]
    assert isinstance(lit, logic.Rel) and lit.relation == "mov2releasedate"


def test_find_blocking_literal_tests_the_prefixes_of_the_reference(monkeypatch):
    """find_blocking_literal against the scan that built the prefix at every
    body index: the same index, the same flag and the same covers_positive
    calls, in order. The clauses are the bottom clauses and generalizations
    of 20 CFD micro databases and the bottom clauses of
    title_database(4, seed, family=2) at seeds 0-2, each in its canonical
    literal order and in a random one, against the ground clauses of their
    database."""
    pairs = []
    for case in cfd_micro_db_clauses(20):
        pairs += [(c, g) for bottom, variant, _ in case for c in (bottom, variant)
                  for _, _, g in case]
    for seed in range(3):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = learner.LearnerConfig(d=2, rng_seed=seed)
        grounding = learner.Grounding(db, mds, [], examples, cfg)
        pairs += [(saturation.bottom_clause(e, db, mds, [], grounding.idx, cfg), g)
                  for e in examples for g in grounding.ground.values()]
    calls = []
    covers_positive = subsumption.covers_positive

    def recording(c, g, *limits):
        calls.append((c, g, limits))
        return covers_positive(c, g, *limits)

    monkeypatch.setattr(subsumption, "covers_positive", recording)
    rng = random.Random(3)
    outcomes = Counter()
    for c, g in pairs:
        shuffled = list(c.body)
        rng.shuffle(shuffled)
        for ordered in (order_clause(c), OrderedClause(logic.Clause(c.head, tuple(shuffled)))):
            for budget in (subsumption.DEFAULT_BUDGET, 2):
                got = find_blocking_literal(ordered, g, budget)
                got_calls, calls[:] = calls[:], []
                want = reference_find_blocking_literal(ordered, g, budget)
                assert (got, got_calls) == (want, calls), print_clause(ordered.clause)
                calls.clear()
                outcomes[got[0] is None, got[1]] += 1
    # covering clauses, blocked ones within the budget, and exhausted ones
    assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes


def test_find_blocking_literal_none_when_covering(movie_clauses):
    c, gs = movie_clauses
    index, _ = find_blocking_literal(order_clause(c), gs["Superbad"])
    assert index is None


def test_find_blocking_literal_unmappable_head(movie_clauses):
    c, _ = movie_clauses
    g = parse_clause("somewhereElse('x') :- movies('a','b','c').")
    index, _ = find_blocking_literal(order_clause(c), g)
    assert index == 0


def test_drop_with_repair_releasedate(movie_clauses):
    c, _ = movie_clauses
    ordered = order_clause(c)
    index = next(i for i, l in enumerate(ordered.clause.body)
                 if isinstance(l, logic.Rel) and l.relation == "mov2releasedate")
    dropped = drop_with_repair(ordered, index).clause
    assert sum(1 for l in dropped.body if isinstance(l, logic.Rel)) == 5
    assert sum(1 for l in dropped.body if isinstance(l, logic.RepairLit)) == 2
    assert "mov2releasedate" not in print_clause(dropped)


def test_drop_with_repair_movies_cascade(movie_clauses):
    c, _ = movie_clauses
    ordered = order_clause(c)
    index = next(i for i, l in enumerate(ordered.clause.body)
                 if isinstance(l, logic.Rel) and l.relation == "movies")
    dropped = drop_with_repair(ordered, index).clause
    # the similarity group and every tuple hanging off the movie id disappear
    assert dropped.body == ()


def test_drop_with_repair_single_literal():
    c = parse_clause("t(V0) :- r(V0,V1), s(V0).")
    ordered = order_clause(c)
    index = next(i for i, l in enumerate(ordered.clause.body)
                 if isinstance(l, logic.Rel) and l.relation == "s")
    dropped = drop_with_repair(ordered, index).clause
    assert print_clause(dropped) == "t(V0) :- r(V0,V1)."


def test_drop_repair_literal_drops_group(movie_clauses):
    c, _ = movie_clauses
    ordered = order_clause(c)
    index = next(i for i, l in enumerate(ordered.clause.body) if isinstance(l, logic.RepairLit))
    dropped = drop_with_repair(ordered, index).clause
    # the whole match group goes: both repair literals, the similarity
    # literal, the restriction equality, and with them the example's only
    # connection into the database
    assert dropped.body == ()


def test_drop_with_repair_leaves_an_ordered_body():
    # what drop_with_repair leaves of an ordered clause is what ordering it
    # afresh gives, for every dropped index
    clauses = dict.fromkeys(c for case in cfd_micro_db_clauses() for triple in case
                            for c in triple)
    for c in clauses:
        ordered = order_clause(c)
        for i in range(len(c.body)):
            r = drop_with_repair(ordered, i)
            assert order_clause(r.clause) == r, (print_clause(c), i)


def test_drop_with_repair_equals_reference(monkeypatch):
    # every drop from every distinct micro-database clause leaves what the
    # reference leaves, after as many rounds (one head_reachable call each)
    real = logic.head_reachable
    calls = []
    monkeypatch.setattr(logic, "head_reachable", lambda *args: calls.append(1) or real(*args))
    clauses = dict.fromkeys(c for case in cfd_micro_db_clauses() for triple in case
                            for c in triple)
    rounds = Counter()
    for c in clauses:
        ordered = order_clause(c)
        for i in range(len(c.body)):
            calls.clear()
            got = drop_with_repair(ordered, i)
            n = len(calls)
            calls.clear()
            assert got == reference_drop_with_repair(ordered, i), (print_clause(c), i)
            assert len(calls) == n, (print_clause(c), i)
            rounds[n] += 1
    # 4333 drops: 1763 take one round, 2554 two and 16 three
    assert sum(rounds.values()) >= 4000 and rounds[2] >= 2500 and rounds[3] >= 16, rounds


def test_armg_movie_example(movie_clauses):
    c, gs = movie_clauses
    out = armg(c, gs["Zoolander"])
    assert "mov2releasedate" not in print_clause(out)
    assert sum(1 for l in out.body if isinstance(l, logic.Rel)) == 5
    assert subsumption.covers_positive(out, gs["Superbad"]).covered
    assert subsumption.covers_positive(out, gs["Zoolander"]).covered


def test_armg_fixpoint_when_covering(movie_clauses):
    c, gs = movie_clauses
    assert armg(c, gs["Superbad"]) == order_clause(c).clause


def test_armg_unsatisfiable_seed(movie_clauses):
    c, _ = movie_clauses
    g = parse_clause("highGrossing('nope','extra') :- movies('a','b','c').")
    out = armg(c, g)
    assert out.body == ()


def test_armg_output_subsumes_input():
    rng = random.Random(31)
    for _ in range(25):
        db, mds, cfds, idx, examples = random_micro_db(rng)
        cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=7)
        e1, e2 = examples[0], examples[-1]
        c = saturation.bottom_clause(e1, db, mds, cfds, idx, cfg)
        g = saturation.ground_bottom_clause(e2, db, mds, cfds, idx, cfg)
        out = armg(c, g)
        assert subsumption.covers_positive(out, g).covered or out.body == () or \
            subsumption.subsumes_with_repairs(out, c).covered
        # dropping literals only generalizes
        assert subsumption.subsumes_with_repairs(out, c).covered


def test_armg_covers_target_when_head_maps():
    rng = random.Random(41)
    covered = 0
    for _ in range(25):
        db, mds, cfds, idx, examples = random_micro_db(rng)
        cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=3)
        c = saturation.bottom_clause(examples[0], db, mds, cfds, idx, cfg)
        g = saturation.ground_bottom_clause(examples[-1], db, mds, cfds, idx, cfg)
        out = armg(c, g)
        if out.body or len(c.body) == 0:
            v = subsumption.covers_positive(out, g)
            assert v.covered
            covered += 1
    assert covered >= 10


def test_minimality_single_drop():
    """A blocking-literal drop is a minimal generalization among the clauses
    that cover the target: any F covering the target with F below C and the
    drop result D below F is equivalent to D."""
    rng = random.Random(8)
    checked = 0
    for _ in range(80):
        db, mds, cfds, idx, examples = random_micro_db(rng)
        cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=11)
        c = saturation.bottom_clause(examples[0], db, mds, cfds, idx, cfg)
        g = saturation.ground_bottom_clause(examples[-1], db, mds, cfds, idx, cfg)
        ordered = order_clause(c)
        index, _ = find_blocking_literal(ordered, g)
        if index is None:
            continue
        d = drop_with_repair(ordered, index).clause
        rel_idx = [i for i, l in enumerate(ordered.clause.body) if isinstance(l, logic.Rel)]
        for i in rel_idx:
            f = drop_with_repair(ordered, i).clause
            if not subsumption.covers_positive(f, g).covered:
                continue
            if subsumption.subsumes_with_repairs(f, ordered.clause).covered and \
               subsumption.subsumes_with_repairs(d, f).covered:
                assert subsumption.subsumes_with_repairs(f, d).covered
                checked += 1
    assert checked >= 5


def test_best_candidate_scoring(movie_clauses, movie_db, movie_mds, movie_idx, movie_examples,
                                movie_cfg):
    c, gs = movie_clauses
    generalized = armg(c, gs["Zoolander"])
    pos = [gs["Superbad"], gs["Zoolander"]]
    neg = [gs["Orphanage"]]
    best, score, stats = best_scored([c, generalized], list(enumerate(pos)), neg)
    assert best == generalized
    assert (score, stats.pos, stats.neg) == (2, 2, 0)


def test_best_candidate_single():
    c = parse_clause("t(V0) :- r(V0).")
    best, score, _ = best_scored([c], [(0, parse_clause("t('a') :- r('a')."))], [])
    assert best == c and score == 1


def test_best_candidate_prefers_precision():
    broad = parse_clause("t(V0) :- r(V0,V1).")
    narrow = parse_clause("t(V0) :- r(V0,'good').")
    pos = [parse_clause("t('a') :- r('a','good')."),
           parse_clause("t('b') :- r('b','good')."),
           parse_clause("t('c') :- r('c','good').")]
    neg = [parse_clause("t('x') :- r('x','bad')."),
           parse_clause("t('y') :- r('y','bad').")]
    best, score, stats = best_scored([broad, narrow], list(enumerate(pos)), neg)
    assert best == narrow and (stats.pos, stats.neg) == (3, 0)


def test_determinism_of_armg(movie_clauses):
    c, gs = movie_clauses
    a = print_clause(armg(c, gs["Zoolander"]))
    b = print_clause(armg(c, gs["Zoolander"]))
    assert a == b


FANOUT_SCHEMA_TEXT = """\
movies(id:text, title:text, year:integer)
mov2genres(id:text, genre:text)
highGrossing(title:text)
"""


def test_armg_keeps_matched_movie_under_fanout():
    # titles come in families of two, so every positive's bottom clause
    # matches two movies, each pinned by an eq(<stored title>, V) literal no
    # other example shares; the pin must drop alone, not the movie with it
    schema = store.parse_schema(FANOUT_SCHEMA_TEXT, target="highGrossing")
    n = 8
    titles = seeded_titles(n, seed=1, family=2)
    db = store.from_tuples(schema, {
        "movies": [(f"m{i}", f"{t} ({2000 + i})", str(2000 + i)) for i, t in enumerate(titles)],
        "mov2genres": [(f"m{i}", "comedy" if i < n // 2 else "drama") for i in range(n)],
    })
    mds, _ = constraints.parse_constraints(TITLE_MD, schema)
    positives = [store.Example("highGrossing", (t,)) for t in titles[:n // 2]]
    idx = textsim.build_similarity_index(db, positives, mds, k_m=5, threshold=0.65)
    cfg = saturation.SaturationConfig(d=3, sample_size=100, rng_seed=1)
    cross_family = 0
    for seed_ex, target_ex in itertools.permutations(positives, 2):
        bottom = saturation.bottom_clause(seed_ex, db, mds, [], idx, cfg)
        g = saturation.ground_bottom_clause(target_ex, db, mds, [], idx, cfg)
        out = armg(bottom, g)
        assert subsumption.covers_positive(out, g).covered
        head = out.head.args[0]
        kept = [lit for lit in out.body if isinstance(lit, logic.Rel) and lit.relation == "movies"]
        assert kept
        for movie in kept:
            title = movie.args[1]
            assert logic.Sim(head, title) in out.body
            group = [lit for lit in out.body if isinstance(lit, logic.RepairLit)
                     and lit.cond == (logic.Sim(head, title),)]
            assert {lit.target for lit in group} == {head, title}
        if seed_ex.values[0].split()[:2] != target_ex.values[0].split()[:2]:
            cross_family += 1
            assert not any(isinstance(lit, logic.Eq) and isinstance(lit.a, logic.Constant)
                           for lit in out.body)
    assert cross_family >= 8


def _cfd_micro_db(by_title: bool, n: int = 4):
    """The cfd_micro_dataset examples, the first half positive. Returns the
    positives as (key, ground clause) pairs, the negative ground clauses,
    and the candidates: every example's bottom clause, also without one or
    two of its movies, mov2genres and mov2countries literals."""
    db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title, n)
    grounds = [saturation.ground_bottom_clause(e, db, mds, cfds, idx, cfg) for e in examples]
    candidates = []
    for e in examples:
        bottom = saturation.bottom_clause(e, db, mds, cfds, idx, cfg)
        for k in range(3):
            for relations in itertools.combinations(("movies", "mov2genres", "mov2countries"), k):
                ordered = order_clause(bottom)
                for relation in relations:
                    at = [i for i, lit in enumerate(ordered.clause.body)
                          if isinstance(lit, logic.Rel) and lit.relation == relation]
                    if at:
                        ordered = drop_with_repair(ordered, at[0])
                candidates.append(ordered.clause)
    return list(enumerate(grounds[:n // 2])), grounds[n // 2:], list(dict.fromkeys(candidates))


def _memo_free_score(clause, positives, neg_gs, repair_cap):
    pos_verdicts = [(key, subsumption.covers_positive(clause, g, repair_cap=repair_cap))
                    for key, g in positives]
    neg_verdicts = [subsumption.covers_negative(clause, g, repair_cap=repair_cap) for g in neg_gs]
    covered = tuple(key for key, v in pos_verdicts if v.covered)
    neg = sum(v.covered for v in neg_verdicts)
    verdicts = [v for _, v in pos_verdicts] + neg_verdicts
    exhausted = any(v.budget_exhausted for v in verdicts)
    return len(covered) - neg, ClauseStats(len(covered), neg, covered, exhausted)


def _has_cfd_repairs(clause):
    return any(isinstance(lit, logic.RepairLit) and lit.origin == "cfd" for lit in clause.body)


@pytest.mark.parametrize("by_title", [False, True])
def test_score_clause_equals_memo_free_coverage_loop(by_title):
    positives, neg_gs, candidates = _cfd_micro_db(by_title)
    assert sum(map(_has_cfd_repairs, candidates)) >= 5
    scores = []
    for clause in candidates:
        expected = _memo_free_score(clause, positives, neg_gs, subsumption.DEFAULT_REPAIR_CAP)
        assert score_clause(clause, positives, neg_gs) == expected
        scores.append(expected[1])
    assert any(s.pos for s in scores) and any(s.neg for s in scores)


@pytest.mark.parametrize("by_title", [False, True])
def test_score_clause_cap_hits_match_memo_free_coverage(by_title):
    # a cap of 2 is below the CFD expansions of every candidate with CFD
    # repairs: the memo keeps the cap hit and raises it on each use
    positives, neg_gs, candidates = _cfd_micro_db(by_title)
    flagged = 0
    for clause in candidates:
        expected = _memo_free_score(clause, positives, neg_gs, 2)
        assert score_clause(clause, positives, neg_gs, repair_cap=2) == expected
        flagged += expected[1].budget_exhausted
    assert flagged == sum(map(_has_cfd_repairs, candidates)) >= 5


def test_score_clause_expands_each_clause_once(monkeypatch):
    positives, neg_gs, candidates = _cfd_micro_db(by_title=True)
    assert len(neg_gs) >= 2
    repaired, partial = Counter(), Counter()
    real_repaired, real_partial = logic.repaired_clauses, logic.partial_repairs

    def counting_repaired(clause, cap=256):
        repaired[clause] += 1
        return real_repaired(clause, cap)

    def counting_partial(clause, origin, cap=256):
        partial[clause] += 1
        return real_partial(clause, origin, cap)

    monkeypatch.setattr(logic, "repaired_clauses", counting_repaired)
    monkeypatch.setattr(logic, "partial_repairs", counting_partial)
    for clause in candidates:
        repaired.clear()
        partial.clear()
        score_clause(clause, positives, neg_gs)
        # none when the clause covers every negative as it stands
        assert set(repaired) <= {clause} and repaired[clause] <= 1
        assert max(partial.values(), default=1) == 1


@pytest.mark.parametrize("by_title", [False, True])
def test_score_clause_with_beat_stops_only_when_the_score_cannot_exceed_it(by_title):
    positives, neg_gs, candidates = _cfd_micro_db(by_title)
    stopped = by_negative = 0
    for clause in candidates:
        exact = score_clause(clause, positives, neg_gs)
        for beat in range(-len(neg_gs) - 1, len(positives) + 1):
            result = score_clause(clause, positives, neg_gs, beat=beat)
            if result is None:
                assert exact[0] <= beat
                stopped += 1
                by_negative += exact[1].pos > beat
            else:
                assert result == exact
    assert stopped >= 5 and by_negative >= 1


def test_learn_clause_skips_a_beaten_bottom_clause_and_the_current_clause(monkeypatch):
    db, mds, cfds, idx, examples, _ = cfd_micro_dataset(by_title=False)
    cfg = learner.LearnerConfig(d=3, sample_size=100, rng_seed=3, min_pos=1)
    pos, neg = examples[:2], examples[2:]
    grounding = learner.Grounding(db, mds, cfds, pos + neg, cfg)
    bottom = saturation.bottom_clause(pos[0], db, mds, cfds, grounding.idx, cfg)
    assert _has_cfd_repairs(bottom)
    negatives, repaired = Counter(), Counter()
    real_negative, real_repaired = subsumption.covers_negative, logic.repaired_clauses

    def counting_negative(clause, g, *args):
        negatives[clause] += 1
        return real_negative(clause, g, *args)

    def counting_repaired(clause, cap=256):
        repaired[clause] += 1
        return real_repaired(clause, cap)

    monkeypatch.setattr(subsumption, "covers_negative", counting_negative)
    monkeypatch.setattr(logic, "repaired_clauses", counting_repaired)
    clause, stats = learner.learn_clause(grounding, pos[0], pos, neg, cfg)
    assert clause != bottom and stats.pos == 2
    assert sum(negatives.values()) >= len(neg)  # the candidates were tested
    assert negatives[bottom] == 0 and repaired[bottom] == 0
    # round 2 builds only clauses equal to the winner of round 1, which are
    # not scored again
    assert negatives[clause] == len(neg) and set(repaired.values()) <= {1}


@pytest.mark.parametrize("by_title", [False, True])
def test_learn_clause_keys_each_distinct_candidate_once_per_round(monkeypatch, by_title):
    db, mds, cfds, idx, examples, _ = cfd_micro_dataset(by_title)
    cfg = learner.LearnerConfig(d=3, sample_size=100, rng_seed=3, min_pos=1)
    grounding = learner.Grounding(db, mds, cfds, examples, cfg)
    events = []
    real_armg, real_key = generalization.armg, logic.clause_key

    def recording_armg(*args):
        cand = real_armg(*args)
        events.append(("armg", cand))
        return cand

    def recording_key(clause, cache=None):
        if cache is None:  # repair expansion keys with its own cache
            events.append(("key", clause))
        return real_key(clause, cache)

    monkeypatch.setattr(generalization, "armg", recording_armg)
    monkeypatch.setattr(logic, "clause_key", recording_key)
    learner.learn_clause(grounding, examples[0], examples[:2], examples[2:], cfg)
    # a round builds its candidates, then keys them
    rounds = []
    for kind, clause in events:
        if kind == "armg" and (not rounds or rounds[-1][1]):
            rounds.append(([], []))
        rounds[-1][kind == "key"].append(clause)
    assert rounds
    for built, keyed in rounds:
        distinct = list(dict.fromkeys(built))
        assert len(keyed) == len(distinct) and all(map(operator.is_, keyed, distinct))
    assert sum(len(built) for built, _ in rounds) > sum(len(keyed) for _, keyed in rounds)


def _fresh(clause):
    return logic.Clause(clause.head, clause.body)


@pytest.mark.parametrize("by_title", [False, True])
def test_score_clause_with_kept_views_equals_fresh_copies(by_title):
    # the candidates and ground clauses keep their coverage views from one
    # score to the next; fresh copies start with none. Scoring under cap 2,
    # the default cap, then 2 again catches a view kept under the wrong cap.
    positives, neg_gs, candidates = _cfd_micro_db(by_title)
    capped = 0
    for clause in candidates:
        scores = []
        for cap in (2, subsumption.DEFAULT_REPAIR_CAP, 2):
            expected = score_clause(_fresh(clause), [(key, _fresh(g)) for key, g in positives],
                                    [_fresh(g) for g in neg_gs], repair_cap=cap)
            assert score_clause(clause, positives, neg_gs, repair_cap=cap) == expected
            scores.append(expected)
        capped += scores[0] != scores[1]
    assert capped >= 5


def _armg_pairs():
    """(clause, ground clause) pairs: every cfd_micro_dataset candidate, by
    movie id and by title, against each ground clause of its dataset, and
    seeded clause_pair pairs with and without a CFD."""
    pairs = []
    for by_title in (False, True):
        positives, neg_gs, candidates = _cfd_micro_db(by_title)
        grounds = [g for _, g in positives] + neg_gs
        pairs += [(c, g) for c in candidates for g in grounds]
    rng = random.Random(77)
    pairs += [clause_pair(rng, with_cfd=i % 2 == 1) for i in range(20)]
    return pairs


def test_armg_is_idempotent_without_its_memo():
    # the repeat runs against a fresh copy of g, which keeps no armg result
    dropped = 0
    for c, g in _armg_pairs():
        out = armg(c, g)
        assert armg(out, _fresh(g)) == out
        dropped += len(out.body) < len(c.body)
    assert dropped >= 10


def test_repeated_armg_runs_no_coverage_test(monkeypatch):
    real = subsumption.covers_positive
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subsumption, "covers_positive", counted)
    first = repeats = other_limits = 0
    for c, g in _armg_pairs():
        out = armg(c, g)
        first += len(calls)
        calls.clear()
        assert armg(c, g) is out and armg(out, g) is out
        assert armg(_fresh(c), g) is out
        repeats += len(calls)
        # other limits are another key, and get the result of a fresh g
        for limits in ((2, subsumption.DEFAULT_REPAIR_CAP), (subsumption.DEFAULT_BUDGET, 2)):
            limited = armg(c, g, *limits)
            assert limited == armg(c, _fresh(g), *limits)
            other_limits += limited != out
        calls.clear()
    assert first >= 100 and repeats == 0 and other_limits >= 10


def test_armg_memo_keys_on_the_repair_cap(monkeypatch):
    # a result kept under the default cap does not answer another cap
    real = subsumption.covers_positive
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subsumption, "covers_positive", counted)
    pairs = [(c, _fresh(g)) for c, g in _armg_pairs() if c.body]
    for c, g in pairs:
        armg(c, g)
        calls.clear()
        armg(c, g, subsumption.DEFAULT_BUDGET, 2)
        assert calls and all(limits == [subsumption.DEFAULT_BUDGET, 2]
                             for _, _, *limits in calls)
        calls.clear()
    assert len(pairs) >= 100


def test_armg_tests_each_covering_prefix_body_once(monkeypatch):
    # within one armg call, a prefix body that covered g is not tested
    # again; the result and every other test are those of a walk that tests
    # each prefix of each intermediate clause
    real = subsumption.covers_positive
    calls = []

    def recording(c, g, *limits):
        verdict = real(c, g, *limits)
        calls.append((c.head, c.body, verdict.covered))
        return verdict

    monkeypatch.setattr(subsumption, "covers_positive", recording)
    skipped = 0
    for c, g in _armg_pairs():
        got = armg(c, _fresh(g))
        got_calls, calls[:] = calls[:], []
        ordered, g_copy = order_clause(c), _fresh(g)
        while ordered.clause.body:
            index, _ = reference_find_blocking_literal(ordered, g_copy)
            if index is None:
                break
            ordered = drop_with_repair(ordered, index)
        assert got == ordered.clause
        covering, expected = set(), []
        for head, body, covered in calls:
            if (head, body) in covering:
                skipped += 1
                continue
            expected.append((head, body, covered))
            if covered:
                covering.add((head, body))
        calls.clear()
        assert got_calls == expected
    assert skipped >= 50, skipped


def test_evaluate_expands_each_definition_clause_once(monkeypatch):
    db, mds, cfds, idx, examples, _ = cfd_micro_dataset(by_title=False)
    cfg = learner.LearnerConfig(d=3, sample_size=100, rng_seed=3)
    pos, neg = examples[:2], examples[2:]
    clauses = [saturation.bottom_clause(e, db, mds, cfds, idx, cfg) for e in pos]
    assert all(map(_has_cfd_repairs, clauses))
    definition = learner.LearnedDefinition(
        target="t", clauses=[learner.LearnedClause(c, ClauseStats(0, 0)) for c in clauses])
    repaired, partial = Counter(), Counter()
    real_repaired, real_partial = logic.repaired_clauses, logic.partial_repairs

    def counting_repaired(clause, cap=256):
        repaired[clause] += 1
        return real_repaired(clause, cap)

    def counting_partial(clause, origin, cap=256):
        partial[clause] += 1
        return real_partial(clause, origin, cap)

    monkeypatch.setattr(logic, "repaired_clauses", counting_repaired)
    monkeypatch.setattr(logic, "partial_repairs", counting_partial)
    metrics = evalcli.evaluate(definition, pos, neg, db, mds, cfds, cfg)
    assert metrics.fp == 0
    # each clause is tested against both negatives, and expanded once
    assert repaired == Counter({c: 1 for c in clauses})

    g = saturation.ground_bottom_clause(neg[0], db, mds, cfds, idx, cfg)
    first = subsumption.covers_negative(clauses[0], g)
    repaired.clear()
    partial.clear()
    assert subsumption.covers_negative(clauses[0], g) == first
    assert not repaired and not partial

    fresh = parse_clause(print_clause(clauses[0]))
    assert "views" in vars(clauses[0]) and "views" not in vars(fresh)
    assert fresh == clauses[0] and hash(fresh) == hash(clauses[0])


@pytest.mark.parametrize("by_title", [False, True])
def test_learn_and_evaluate_leave_no_reference_cycle(by_title):
    # a coverage view that is its own clause would tie the clause to itself
    # through Clause.views, which only the cyclic collector frees
    db, mds, cfds, _, examples, _ = cfd_micro_dataset(by_title, n=6)
    cfg = learner.LearnerConfig(d=3, sample_size=100, rng_seed=3, min_pos=1)
    pos, neg = examples[:3], examples[3:]

    def learn_and_evaluate():
        definition = learner.learn(db, mds, cfds, pos, neg, cfg)
        evalcli.evaluate(definition, pos, neg, db, mds, cfds, cfg)

    assert cyclic_garbage(learn_and_evaluate) == 0
