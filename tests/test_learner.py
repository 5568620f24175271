import pytest

from dlearn import constraints, learner, logic, store
from dlearn.learner import (ClauseStats, LearnerConfig, learn, minimum_criterion)
from dlearn.store import Example

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
    again = evalcli.read_definition(str(path), "highGrossing")
    assert [lc.clause for lc in again.clauses] == [lc.clause for lc in definition.clauses]


def test_learn_with_cfd_violations_present():
    """Full mode with a violated dependency in the background data: the
    bottom clauses carry CFD repair literals and learning still converges."""
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
    session = learner._Session(db, [], [], pos, neg, LearnerConfig(d=1))
    assert len(session.ground) == 2
    for ex in pos + neg:
        assert session.ground[ex.key()].head.args == tuple(logic.Constant(v) for v in ex.values)
    assert Example("t", ("Superbad (2007)", "x")).key() == "Superbad (2007),x"


def test_budget_exhaustion_is_recorded_and_printed():
    # d's ground clause has 30 r literals, more than a budget of 20 search
    # steps can try; a, b and c have one each
    schema = store.parse_schema("r(x:text, y:text)\nt(x:text)\n", target="t")
    rows = [("a", "1"), ("b", "1"), ("c", "1"), ("e", "2"), ("f", "2")]
    db = store.from_tuples(schema, {"r": rows + [("d", str(i)) for i in range(1, 31)]})
    pos = [Example("t", (v,)) for v in "abcd"]
    neg = [Example("t", (v,)) for v in "ef"]
    tight = learn(db, [], [], pos, neg, LearnerConfig(d=1, sample_size=50, subsumption_budget=20))
    assert tight.clauses[0].stats == ClauseStats(
        pos=3, neg=0, covered_pos=("a", "b", "c"), budget_exhausted=True)
    assert tight.pretty() == "# pos=3 neg=0 budget_exhausted\nt(V0) :- r(V0,'1').\n"
    roomy = learn(db, [], [], pos, neg, LearnerConfig(d=1, sample_size=50))
    assert roomy.pretty() == "# pos=4 neg=0\nt(V0) :- r(V0,'1').\n"
