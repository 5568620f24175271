from dataclasses import fields

import pytest

from dlearn import constraints, generalization, learner, logic, store, subsumption, textsim
from dlearn.learner import (ClauseStats, LearnerConfig, learn, minimum_criterion)
from dlearn.saturation import SaturationConfig, SaturationError
from dlearn.store import Example
from helpers import cfd_micro_dataset, reference_learn_clause, title_database

MINI_SCHEMA = """\
movies(id:text, title:text, year:integer)
mov2genres(id:text, name:text)
mov2countries(id:text, name:text)
countries(id:text, name:text)
highGrossing(title:text)
"""

TITLES = [
    "Starfall", "Moonrise", "Deep Rift", "Old Harbor", "Iron Valley",
    "Glass City", "Red Meadow", "Night Train", "Quiet Storm", "Last Ember",
    "Grey Garden", "Wild Coast", "Blue Canyon", "High Plains", "Stone Bridge",
    "Silent Creek", "Golden Mile", "Dark Summit", "Long Winter", "Fading Light",
]


def build_mini_dataset():
    """Dirty mini movie data: example titles only join through the
    similarity operator; comedies are the positives."""
    schema = store.parse_schema(MINI_SCHEMA, target="highGrossing")
    rows_movies, rows_genres, rows_m2c = [], [], []
    for i, t in enumerate(TITLES):
        year = 2000 + i
        rows_movies.append((f"m{i}", f"{t} ({year})", str(year)))
        rows_genres.append((f"m{i}", "comedy" if i < 10 else "drama"))
        rows_m2c.append((f"m{i}", "c1" if i % 2 == 0 else "c2"))
    db = store.from_tuples(schema, {
        "movies": rows_movies,
        "mov2genres": rows_genres,
        "mov2countries": rows_m2c,
        "countries": [("c1", "USA"), ("c2", "Spain")],
    })
    mds, cfds = constraints.parse_constraints(
        "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]", schema)
    pos = [Example("highGrossing", (t,)) for t in TITLES[:10]]
    neg = [Example("highGrossing", (t,)) for t in TITLES[10:]]
    return db, mds, cfds, pos, neg


@pytest.fixture(scope="module")
def mini():
    return build_mini_dataset()


def test_minimum_criterion_thresholds():
    cfg = LearnerConfig()
    assert minimum_criterion(ClauseStats(pos=5, neg=0), cfg)
    assert not minimum_criterion(ClauseStats(pos=1, neg=0), cfg)
    assert minimum_criterion(ClauseStats(pos=7, neg=3), cfg)  # 0.7 >= 0.7
    assert not minimum_criterion(ClauseStats(pos=6, neg=3), cfg)


def test_learn_mini_dataset(mini):
    db, mds, cfds, pos, neg = mini
    cfg = LearnerConfig(d=3, rng_seed=7)
    definition = learn(db, mds, cfds, pos, neg, cfg)
    assert len(definition.clauses) == 1
    lc = definition.clauses[0]
    assert lc.stats.pos == 10 and lc.stats.neg == 0
    printed = logic.print_clause(lc.clause)
    assert "mov2genres" in printed and "'comedy'" in printed
    assert "sim(" in printed and "rep{" in printed


def test_learn_requires_positives(mini):
    db, mds, cfds, _, neg = mini
    with pytest.raises(ValueError):
        learn(db, mds, cfds, [], neg, LearnerConfig())


def test_learn_without_negatives(mini):
    db, mds, cfds, pos, _ = mini
    cfg = LearnerConfig(d=3, rng_seed=7)
    definition = learn(db, mds, cfds, pos, [], cfg)
    assert definition.clauses
    assert all(lc.stats.neg == 0 for lc in definition.clauses)
    covered = set()
    for lc in definition.clauses:
        covered.update(lc.stats.covered_pos)
    assert covered == {e.key() for e in pos}


def test_learn_single_positive_min_pos(mini):
    db, mds, cfds, pos, neg = mini
    one = pos[:1]
    assert learn(db, mds, cfds, one, neg, LearnerConfig(d=3, min_pos=2, rng_seed=1)).clauses == []
    definition = learn(db, mds, cfds, one, neg, LearnerConfig(d=3, min_pos=1, rng_seed=1))
    assert len(definition.clauses) == 1


def test_learn_deterministic_and_thread_independent(mini):
    db, mds, cfds, pos, neg = mini
    ref = learn(db, mds, cfds, pos, neg, LearnerConfig(d=3, rng_seed=5)).pretty()
    again = learn(db, mds, cfds, pos, neg, LearnerConfig(d=3, rng_seed=5)).pretty()
    threaded = learn(db, mds, cfds, pos, neg, LearnerConfig(d=3, rng_seed=5, threads=8)).pretty()
    assert ref == again == threaded


def test_learn_progress_and_monotone_coverage(mini):
    db, mds, cfds, pos, neg = mini
    cfg = LearnerConfig(d=3, rng_seed=11, min_pos=1)
    definition = learn(db, mds, cfds, pos, neg, cfg)
    seen = set()
    for lc in definition.clauses:
        new = set(lc.stats.covered_pos) - seen
        assert new  # every accepted clause covers a previously uncovered positive
        seen |= set(lc.stats.covered_pos)
    assert len(definition.clauses) <= len(pos)


def test_pretty_round_trip(mini, tmp_path):
    from dlearn import evalcli

    db, mds, cfds, pos, neg = mini
    definition = learn(db, mds, cfds, pos, neg, LearnerConfig(d=3, rng_seed=7))
    path = tmp_path / "def.txt"
    evalcli.write_definition(definition, str(path))
    again = evalcli.read_definition(str(path), "highGrossing", 1)
    assert [lc.clause for lc in again.clauses] == [lc.clause for lc in definition.clauses]


def build_cfd_violation_dataset():
    """The mini schema with a locale relation whose CFD is violated by every
    other movie; the first four titles (comedies) are the positives."""
    schema = store.parse_schema(
        MINI_SCHEMA.replace(
            "highGrossing(title:text)",
            "mov2locale(id:text, language:text, country:text)\nhighGrossing(title:text)"),
        target="highGrossing")
    rows_movies, rows_genres, rows_locale = [], [], []
    for i, t in enumerate(TITLES[:8]):
        rows_movies.append((f"m{i}", f"{t} ({2000 + i})", str(2000 + i)))
        rows_genres.append((f"m{i}", "comedy" if i < 4 else "drama"))
        rows_locale.append((f"m{i}", "English", "usa"))
        if i % 2 == 0:
            rows_locale.append((f"m{i}", "English", "ireland"))  # violation
    db = store.from_tuples(schema, {
        "movies": rows_movies, "mov2genres": rows_genres, "mov2locale": rows_locale,
        "mov2countries": [], "countries": [],
    })
    mds, cfds = constraints.parse_constraints(
        "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]\n"
        "cfd: mov2locale : id, language -> country : (_, 'English' || _)",
        schema)
    pos = [Example("highGrossing", (t,)) for t in TITLES[:4]]
    neg = [Example("highGrossing", (t,)) for t in TITLES[4:8]]
    return db, mds, cfds, pos, neg


def test_learn_with_cfd_violations_present():
    """Full mode with a violated dependency in the background data: the
    bottom clauses carry CFD repair literals and learning still converges."""
    db, mds, cfds, pos, neg = build_cfd_violation_dataset()
    cfg = learner.LearnerConfig(d=3, rng_seed=5, min_pos=2)
    definition = learner.learn(db, mds, cfds, pos, neg, cfg)
    assert definition.clauses
    assert definition.clauses[0].stats.pos == 4
    assert definition.clauses[0].stats.neg == 0
    from dlearn import evalcli
    m = evalcli.evaluate(definition, pos, neg, db, mds, cfds, cfg)
    assert m.f1 == 1.0


def test_session_keeps_examples_with_commas_apart():
    schema = store.parse_schema("r(x:text, y:text)\nt(x:text, y:text)\n", target="t")
    db = store.from_tuples(schema, {"r": [("a,b", "c"), ("a", "b,c")]})
    pos, neg = [Example("t", ("a,b", "c"))], [Example("t", ("a", "b,c"))]
    grounding = learner.Grounding(db, [], [], pos + neg, LearnerConfig(d=1))
    assert len(grounding.ground) == 2
    for ex in pos + neg:
        assert grounding.ground[ex.key()].head.args == tuple(logic.Constant(v) for v in ex.values)
    assert Example("t", ("Superbad (2007)", "x")).key() == "Superbad (2007),x"


def build_budget_dataset():
    """d's ground clause has 30 r literals, more than a budget of 20 search
    steps can try; a, b and c have one each. Positives a-d, negatives e, f."""
    schema = store.parse_schema("r(x:text, y:text)\nt(x:text)\n", target="t")
    rows = [("a", "1"), ("b", "1"), ("c", "1"), ("e", "2"), ("f", "2")]
    db = store.from_tuples(schema, {"r": rows + [("d", str(i)) for i in range(1, 31)]})
    pos = [Example("t", (v,)) for v in "abcd"]
    neg = [Example("t", (v,)) for v in "ef"]
    return db, [], [], pos, neg


def test_budget_exhaustion_is_recorded_and_printed():
    db, _, _, pos, neg = build_budget_dataset()
    tight = learn(db, [], [], pos, neg, LearnerConfig(d=1, sample_size=50, subsumption_budget=20))
    assert tight.clauses[0].stats == ClauseStats(
        pos=3, neg=0, covered_pos=("a", "b", "c"), budget_exhausted=True)
    assert tight.pretty() == "# pos=3 neg=0 budget_exhausted\nt(V0) :- r(V0,'1').\n"
    roomy = learn(db, [], [], pos, neg, LearnerConfig(d=1, sample_size=50))
    assert roomy.pretty() == "# pos=4 neg=0\nt(V0) :- r(V0,'1').\n"


def test_learner_config_is_a_checked_saturation_config():
    assert {f.name for f in fields(LearnerConfig)} == {
        "d", "k_m", "sample_size", "sim_threshold", "K", "min_pos", "min_precision",
        "rng_seed", "subsumption_budget", "repair_cap", "cfd_fixpoint_cap", "threads"}
    cfg = LearnerConfig(d=2, sample_size=7, rng_seed=3, cfd_fixpoint_cap=5)
    assert isinstance(cfg, SaturationConfig) and cfg.saturation_config() is cfg
    for bad in ({"d": 0}, {"sample_size": 0}, {"cfd_fixpoint_cap": 0}, {"k_m": 0}, {"K": -1},
                {"subsumption_budget": 0}, {"repair_cap": -1}):
        with pytest.raises(SaturationError, match=f"{next(iter(bad))} must be positive"):
            LearnerConfig(**bad)


def test_learner_config_checks_threshold_and_precision_lie_in_the_unit_interval():
    for value in (0, 0.5, 1):
        LearnerConfig(sim_threshold=value, min_precision=value)
    for name in ("sim_threshold", "min_precision"):
        for value in (-0.01, 1.01, 5, float("nan"), float("inf")):
            with pytest.raises(SaturationError, match=rf"{name} must be in \[0, 1\]"):
                LearnerConfig(**{name: value})


def test_learner_config_rejects_min_pos_below_one():
    # with min_pos 0 a clause covering no positive met the minimum criterion
    # and was added to the definition
    assert LearnerConfig(min_pos=1).min_pos == 1
    for value in (0, -1):
        with pytest.raises(SaturationError, match=f"min_pos must be positive, got {value}"):
            LearnerConfig(min_pos=value, min_precision=0)


def build_negative_decides_dataset():
    """Positives a-d and negatives e-g over r(x, y) and s(x, z). The bottom
    clause of a positive covers its s-partner and one negative (score 1);
    t(V0) :- r(V0,'1') covers the four positives and two negatives (score 2).
    After the positives the bottom clause may still reach 2, and only its
    covered negative shows that it cannot."""
    schema = store.parse_schema("r(x:text, y:text)\ns(x:text, z:text)\nt(x:text)\n", target="t")
    db = store.from_tuples(schema, {
        "r": [(v, "1") for v in "abcdef"] + [("g", "2")],
        "s": [("a", "p"), ("b", "p"), ("c", "q"), ("d", "q"), ("e", "p"), ("f", "q"), ("g", "p")],
    })
    return db, [], [], [Example("t", (v,)) for v in "abcd"], [Example("t", (v,)) for v in "efg"]


def _covering_step_cases(mini):
    """(data, config, similarity index or None to build it) of each case
    that test_learn_equals_reference_covering_step runs."""
    cases = [(mini, LearnerConfig(d=3, rng_seed=seed), None) for seed in (1, 5, 7, 11)]
    cases.append((build_cfd_violation_dataset(), LearnerConfig(d=3, rng_seed=5), None))
    for by_title in (False, True):
        db, mds, cfds, idx, examples, _ = cfd_micro_dataset(by_title)
        cfg = LearnerConfig(d=3, sample_size=100, rng_seed=3, min_pos=1)
        cases.append(((db, mds, cfds, examples[:2], examples[2:]), cfg, idx))
    for seed in (0, 1, 2):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, rng_seed=seed, min_pos=1)
        cases.append(((db, mds, [], examples[:2], examples[2:]), cfg, None))
        cases.append(((db, mds, [], examples[::2], examples[1::2]), cfg, None))
    # with the default budget the bottom clause t(V0) :- r(V0,'1') is already
    # general: every candidate equals it, and it is scored after the loop
    budget = build_budget_dataset()
    cases += [(budget, LearnerConfig(d=1, sample_size=50, subsumption_budget=limit, rng_seed=seed),
               None) for limit in (20, subsumption.DEFAULT_BUDGET) for seed in (0, 1)]
    cases.append((build_negative_decides_dataset(),
                  LearnerConfig(d=1, rng_seed=0, min_pos=1, min_precision=0.5), None))
    return cases


def test_learn_equals_reference_covering_step(mini, monkeypatch):
    """learn gives the same definitions and stats whether the bottom clause
    is scored lazily (learner.learn_clause) or in full before the first
    round (reference_learn_clause in helpers). The bottom clause's scores
    against a candidate are counted by outcome, so that both a kept bottom
    clause and one ruled out by a covered negative are seen."""
    real_score = generalization.score_clause
    kept = by_negative = 0

    def counting_score(clause, positives, neg_gs, *limits, beat=None):
        nonlocal kept, by_negative
        result = real_score(clause, positives, neg_gs, *limits, beat=beat)
        if beat is not None and result is not None:
            kept += 1  # its exact score is above beat: no candidate beats it
        elif beat is not None:
            exact_score, exact = real_score(clause, positives, neg_gs, *limits)
            assert exact_score <= beat
            by_negative += exact.pos > beat  # the positives alone left it open
        return result

    monkeypatch.setattr(generalization, "score_clause", counting_score)
    cases = _covering_step_cases(mini)
    for (db, mds, cfds, pos, neg), cfg, idx in cases:
        with monkeypatch.context() as m:
            if idx is not None:
                m.setattr(textsim, "build_similarity_index", lambda *args: idx)
            lazy = learn(db, mds, cfds, pos, neg, cfg)
            m.setattr(learner, "learn_clause", reference_learn_clause)
            eager = learn(db, mds, cfds, pos, neg, cfg)
        assert lazy.pretty() == eager.pretty()
        assert [lc.stats for lc in lazy.clauses] == [lc.stats for lc in eager.clauses]
    assert len(cases) == 18
    assert kept >= 1 and by_negative >= 1


def test_no_round_scores_the_current_clause_in_armg_order(monkeypatch):
    """A candidate equal to the current clause put in ARMG literal order
    (generalization.order_clause) scores as the current clause and cannot
    replace it, so no round scores it. On title_database(4, seed, family=2)
    a bottom clause covers its own ground clause, so round 1's armg against
    the seed's ground clause returns exactly that candidate."""
    real_armg, real_best_scored = generalization.armg, generalization.best_scored
    calls = []  # (clause generalized, armg result), in call order
    rounds = 0

    def armg(clause, g, *limits):
        calls.append((clause, real_armg(clause, g, *limits)))
        return calls[-1][1]

    def best_scored(candidates, *args):
        nonlocal rounds
        rounds += 1
        assert generalization.order_clause(calls[-1][0]).clause not in candidates
        return real_best_scored(candidates, *args)

    monkeypatch.setattr(generalization, "armg", armg)
    monkeypatch.setattr(generalization, "best_scored", best_scored)
    for seed in (0, 1, 2):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, rng_seed=seed, min_pos=1)
        for pos, neg in ((examples[:2], examples[2:]), (examples[::2], examples[1::2])):
            learn(db, mds, [], pos, neg, cfg)
    skipped = sum(out == generalization.order_clause(clause).clause for clause, out in calls)
    # every run skips at least one candidate; three of them score others
    assert rounds >= 3 and skipped >= 6
