import hashlib
import random

import pytest

from dlearn import constraints, logic, oracle, saturation, store, subsumption, textsim
from dlearn.learner import LearnerConfig
from dlearn.saturation import (SaturationConfig, SaturationError, bottom_clause,
                               build_bottom_clause, collect_relevant,
                               ground_bottom_clause, inject_cfd_repairs,
                               naive_sample)
from dlearn.store import Example
from dlearn.util import derive_rng
from helpers import (AKA_MD, TITLE_MD, TITLE_SCHEMA_TEXT, cfd_micro_db_clauses, cfd_micro_dataset,
                     random_micro_db, reference_inject_cfd_repairs)


@pytest.fixture
def cfg():
    return SaturationConfig(d=3, sample_size=1000, rng_seed=1)


def test_config_validation():
    with pytest.raises(SaturationError):
        SaturationConfig(d=0)
    with pytest.raises(SaturationError):
        SaturationConfig(sample_size=0)


def test_naive_sample_under_capacity():
    rng = derive_rng(0, "s")
    assert naive_sample([1, 2, 3], 10, rng) == [1, 2, 3]


def test_naive_sample_exact_and_order_preserving():
    rng = derive_rng(0, "s")
    out = naive_sample(list(range(100)), 7, rng)
    assert len(out) == 7
    assert out == sorted(out)


def test_naive_sample_uniform_frequency():
    counts = [0] * 12
    rng = derive_rng(42, "uniform")
    trials = 10000
    for _ in range(trials):
        for picked in naive_sample(list(range(12)), 1, rng):
            counts[picked] += 1
    p = 1 / 12
    sigma = (p * (1 - p) / trials) ** 0.5
    for c in counts:
        assert abs(c / trials - p) <= 3 * sigma


def test_collect_relevant_movie_example(movie_db, movie_idx, movie_examples, cfg):
    rel = collect_relevant(movie_examples["Superbad"], movie_db, movie_idx, cfg)
    got = {(rt.tuple.relation, rt.tuple.values) for rt in rel.tuples}
    assert got == {
        ("movies", ("m1", "Superbad (2007)", "2007")),
        ("mov2genres", ("m1", "comedy")),
        ("mov2countries", ("m1", "c1")),
        ("countries", ("c1", "USA")),
        ("englishMovies", ("m1",)),
        ("mov2releasedate", ("m1", "August", "2007")),
    }
    movies_rt = next(rt for rt in rel.tuples if rt.tuple.relation == "movies")
    assert [(p.probe_value, p.matched_value) for p in movies_rt.sims] == [
        ("Superbad", "Superbad (2007)")
    ]


def test_collect_relevant_d1_one_hop(movie_db, movie_idx, movie_examples):
    cfg1 = SaturationConfig(d=1, sample_size=1000, rng_seed=1)
    rel = collect_relevant(movie_examples["Superbad"], movie_db, movie_idx, cfg1)
    relations = {rt.tuple.relation for rt in rel.tuples}
    assert "movies" in relations
    assert "countries" not in relations  # two hops away


def test_collect_relevant_nothing_matches(movie_db, movie_idx, cfg):
    rel = collect_relevant(Example("highGrossing", ("Nothing Like It",)),
                           movie_db, movie_idx, cfg)
    assert rel.tuples == []


EXPECTED_BOTTOM = (
    "highGrossing(V0) :- movies(V1,V2,V3), sim(V0,V2), rep{sim(V0,V2)}(V0,V6), "
    "rep{sim(V0,V2)}(V2,V7), eq(V6,V7), mov2genres(V1,'comedy'), mov2countries(V1,V4), "
    "countries(V4,'USA'), englishMovies(V1), mov2releasedate(V1,'August',V5)."
)


def test_bottom_clause_movie_example(movie_db, movie_mds, movie_idx, movie_examples, cfg):
    c = bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [], movie_idx, cfg)
    expected = logic.parse_clause(EXPECTED_BOTTOM)
    assert oracle.clauses_isomorphic(c, expected)
    # distinct year variables for the two occurrences of the same constant
    year_terms = {lit.args[2] for lit in c.body
                  if isinstance(lit, logic.Rel) and lit.relation in ("movies", "mov2releasedate")}
    assert len(year_terms) == 2


def test_bottom_clause_empty_relevant_set(movie_db, movie_idx, cfg):
    ex = Example("highGrossing", ("Nothing Like It",))
    rel = collect_relevant(ex, movie_db, movie_idx, cfg)
    c = build_bottom_clause(ex, rel, [], movie_db.schema, cfg)
    assert c.body == ()
    assert logic.print_clause(c) == "highGrossing(V0)."


def test_ground_bottom_clause_keeps_constants(movie_db, movie_mds, movie_idx, movie_examples, cfg):
    g = ground_bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [], movie_idx, cfg)
    assert g.head == logic.Rel("highGrossing", (logic.Constant("Superbad"),))
    rels = [l for l in g.body if isinstance(l, logic.Rel)]
    assert all(all(isinstance(t, logic.Constant) for t in l.args) for l in rels)
    assert logic.Sim(logic.Constant("Superbad"), logic.Constant("Superbad (2007)")) in g.body
    reps = [l for l in g.body if isinstance(l, logic.RepairLit)]
    assert len(reps) == 2
    assert {r.target for r in reps} == {logic.Constant("Superbad"),
                                        logic.Constant("Superbad (2007)")}
    assert all(isinstance(l.replacement, logic.Variable) for l in reps)


def test_ground_bottom_clause_negative_example(movie_db, movie_mds, movie_idx, movie_examples, cfg):
    g = ground_bottom_clause(movie_examples["Orphanage"], movie_db, movie_mds, [], movie_idx, cfg)
    values = {l.args for l in g.body if isinstance(l, logic.Rel)}
    assert (logic.Constant("m3"), logic.Constant("drama")) in values
    assert (logic.Constant("c2"), logic.Constant("Spain")) in values


def test_sampling_caps_tuples_per_step(movie_db, movie_idx, movie_examples):
    cfg1 = SaturationConfig(d=3, sample_size=1, rng_seed=3)
    rel = collect_relevant(movie_examples["Superbad"], movie_db, movie_idx, cfg1)
    full = collect_relevant(movie_examples["Superbad"], movie_db, movie_idx,
                            SaturationConfig(d=3, sample_size=1000, rng_seed=3))
    assert len(rel.tuples) <= len(full.tuples)


def test_bottom_clause_monotone_in_d_and_sample(movie_db, movie_mds, movie_idx, movie_examples):
    def rel_count(d, sample):
        cfgx = SaturationConfig(d=d, sample_size=sample, rng_seed=9)
        c = bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [], movie_idx, cfgx)
        return sum(1 for l in c.body if isinstance(l, logic.Rel))

    assert rel_count(1, 1000) <= rel_count(2, 1000) <= rel_count(3, 1000)
    assert rel_count(3, 1) <= rel_count(3, 2) <= rel_count(3, 1000)


def test_a_key_is_sampled_once_however_many_hops_follow():
    # c0's 100 names are sampled when c0 is first probed; a later hop probes
    # only new constants, so it does not sample them again
    schema = store.parse_schema("movies(id:text, title:text)\nmov2countries(id:text, cid:text)\n"
                                "countries(cid:text, name:text)\nt(v:text)", target="t")
    db = store.from_tuples(schema, {
        "movies": [("m0", "Title 0")],
        "mov2countries": [("m0", "c0")],
        "countries": [("c0", f"name {j}") for j in range(100)]})
    for d in (2, 3, 4, 6):
        rel = collect_relevant(Example("t", ("m0",)), db, textsim.SimilarityIndex(),
                               SaturationConfig(d=d, sample_size=10, rng_seed=0))
        assert sum(rt.tuple.relation == "countries" for rt in rel.tuples) == 10


LOCALE_SCHEMA = """\
mov2locale(title:text, language:text, country:text)
hg(title:text)
"""


def locale_case():
    schema = store.parse_schema(LOCALE_SCHEMA, target="hg")
    _, cfds = constraints.parse_constraints(
        "cfd: mov2locale : title, language -> country : (_, 'English' || _)", schema)
    clause = logic.parse_clause(
        "hg(V0) :- mov2locale(V1,'English',V3), mov2locale(V2,'English',V4), eq(V1,V2)."
    )
    return schema, cfds, clause


def test_inject_cfd_repairs_locale_example():
    _, cfds, clause = locale_case()
    cfg = SaturationConfig(d=1, sample_size=1, rng_seed=0)
    got = inject_cfd_repairs(clause, cfds, cfg)
    expected = logic.parse_clause(
        "hg(V0) :- mov2locale(V1,'English',V3), mov2locale(V2,'English',V4), eq(V1,V2), "
        "rep{eq(V1,V2);neq(V3,V4)}(V1,V5), rep{eq(V1,V2);neq(V3,V4)}(V2,V6), "
        "rep{eq(V1,V2);neq(V3,V4)}(V3,V4), rep{eq(V1,V2);neq(V3,V4)}(V4,V3)."
    )
    assert got == expected


def test_a_left_side_split_serves_every_match_of_its_value():
    # movies' title matches two aka titles: both matches take the one
    # variable split off at movies, anchored by one induced equality
    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    db = store.from_tuples(schema, {
        "movies": [("m1", "Superbad (2007)", "2007")],
        "aka": [("m1", "Superbad [2007]"), ("m2", "Superbad 2007")]})
    mds, _ = constraints.parse_constraints(TITLE_MD + "\n" + AKA_MD, schema)
    idx = textsim.SimilarityIndex(entries={
        (("highGrossing", "title"), ("movies", "title")): {"Superbad": [("Superbad (2007)", 0.8)]},
        (("movies", "title"), ("aka", "title")): {
            "Superbad (2007)": [("Superbad [2007]", 0.9), ("Superbad 2007", 0.85)]}})
    ex = Example("highGrossing", ("Superbad",))
    cfg = SaturationConfig(d=3, sample_size=10, rng_seed=0)
    assert logic.print_clause(ground_bottom_clause(ex, db, mds, [], idx, cfg)) == (
        "highGrossing('Superbad') :- movies('m1',V0,'2007'), eq('Superbad (2007)',V0), "
        "sim('Superbad',V0), rep{sim('Superbad',V0)}('Superbad',V1), "
        "rep{sim('Superbad',V0)}(V0,V2), eq(V1,V2), "
        "aka('m1',V3), eq('Superbad [2007]',V3), sim(V0,V3), rep{sim(V0,V3)}(V0,V4), "
        "rep{sim(V0,V3)}(V3,V5), eq(V4,V5), "
        "aka('m2',V6), eq('Superbad 2007',V6), sim(V0,V6), rep{sim(V0,V6)}(V0,V7), "
        "rep{sim(V0,V6)}(V6,V8), eq(V7,V8).")


def test_a_pattern_constant_reached_through_equalities_joins_the_repair_condition():
    # the language terms are variables equal to 'English' only through the
    # clause's equalities, so the condition states both equalities
    schema, cfds, _ = locale_case()
    clause = logic.parse_clause(
        "hg(V0) :- mov2locale(V1,V5,V3), mov2locale(V2,V6,V4), eq(V1,V2), "
        "eq(V5,'English'), eq(V6,'English').")
    got = inject_cfd_repairs(clause, cfds, SaturationConfig(d=1, sample_size=1))
    cond = "rep{eq(V1,V2);eq(V5,V6);eq(V5,'English');eq(V6,'English');neq(V3,V4)}"
    assert logic.print_clause(got) == (
        "hg(V0) :- mov2locale(V1,V5,V3), mov2locale(V2,V6,V4), eq(V1,V2), eq(V5,'English'), "
        f"eq(V6,'English'), {cond}(V1,V7), {cond}(V2,V8), {cond}(V3,V4), {cond}(V4,V3).")

def test_inject_cfd_repairs_idempotent():
    _, cfds, clause = locale_case()
    cfg = SaturationConfig(d=1, sample_size=1, rng_seed=0)
    once = inject_cfd_repairs(clause, cfds, cfg)
    assert inject_cfd_repairs(once, cfds, cfg) == once


def test_inject_cfd_repairs_no_relation_literals():
    _, cfds, _ = locale_case()
    cfg = SaturationConfig(d=1, sample_size=1, rng_seed=0)
    clause = logic.parse_clause("hg(V0) :- other(V0).")
    assert inject_cfd_repairs(clause, cfds, cfg) == clause


def test_inject_cfd_chain_uses_replacement_variables():
    schema = store.parse_schema("r(a:text, b:text, c:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints(
        "cfd: r : a -> b : (_ || _)\ncfd: r : b -> c : (_ || _)", schema)
    clause = logic.parse_clause("t(V0) :- r(V0,V1,V2), r(V0,V1,V3).")
    cfg = SaturationConfig(d=1, sample_size=1, rng_seed=0)
    got = inject_cfd_repairs(clause, cfds, cfg)
    reps = [l for l in got.body if isinstance(l, logic.RepairLit)]
    replacements = {l.replacement for l in reps if isinstance(l.replacement, logic.Variable)}
    # some later repair literal must take an earlier replacement variable as
    # its own argument: the induced violation is repaired at the new value
    induced = [l for l in reps if l.target in replacements or
               any(a.a in replacements or a.b in replacements for a in l.cond)]
    assert induced
    # and the whole thing still reaches a repair-free fixpoint
    for r in logic.repaired_clauses(got, cap=256):
        assert not any(isinstance(l, logic.RepairLit) for l in r.body)


def test_inject_cfd_repairs_splits_from_the_first_free_id_and_splits_constant_rhs():
    schema = store.parse_schema("r(a:text, b:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints("cfd: r : a -> b : (_ || _)", schema)
    clause = logic.parse_clause("t(V4) :- r(V4,'x'), r(V4,'y').")
    got = inject_cfd_repairs(clause, cfds, SaturationConfig(d=1, sample_size=1))
    # new variables start above V4; the constant right-hand terms occur once
    # each but are split anyway, because a swap repair's replacement must be
    # a variable
    cond = "rep{eq(V5,V6);neq(V7,V8)}"
    assert logic.print_clause(got) == (
        "t(V4) :- r(V5,V7), r(V6,V8), eq(V4,V5), eq(V4,V6), eq('x',V7), eq('y',V8), "
        f"{cond}(V5,V9), {cond}(V6,V10), {cond}(V7,V8), {cond}(V8,V7).")


def test_inject_cfd_fixpoint_cap():
    schema = store.parse_schema("r(a:text, b:text, c:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints(
        "cfd: r : a -> b : (_ || _)\ncfd: r : b -> c : (_ || _)", schema)
    clause = logic.parse_clause("t(V0) :- r(V0,V1,V2), r(V0,V1,V3).")
    with pytest.raises(SaturationError):
        inject_cfd_repairs(clause, cfds, SaturationConfig(d=1, sample_size=1, rng_seed=0,
                                                          cfd_fixpoint_cap=1))


def test_a_key_with_too_many_names_for_the_default_cap_is_blamed_on_the_cap():
    # a round repairs each literal once, so the rounds grow with the names
    # a country key reaches: 16 fit the default cap and 17 do not
    schema = store.parse_schema("movies(id:text, title:text)\nmov2countries(id:text, cid:text)\n"
                                "countries(cid:text, name:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints("cfd: countries : cid -> name : (_ || _)", schema)
    cfg = LearnerConfig(d=3, sample_size=100)
    ex = Example("t", ("m0",))

    def ground(names):
        db = store.from_tuples(schema, {
            "movies": [(f"m{i}", f"Title {i}") for i in range(6)],
            "mov2countries": [(f"m{i}", f"c{i % 2}") for i in range(6)],
            "countries": [(f"c{k}", f"name {k}.{j}") for k in range(2) for j in range(names)]})
        idx = textsim.build_similarity_index(db, [ex], [], cfg.k_m, cfg.sim_threshold)
        return ground_bottom_clause(ex, db, [], cfds, idx, cfg)

    assert len(ground(16).body) == 530
    with pytest.raises(SaturationError) as err:
        ground(17)
    message = str(err.value)
    assert message.startswith("no repair fixpoint after 16 rounds: ")
    assert "shrink the bottom clause (--sample-size, --d)" in message
    assert message.index("--sample-size") < message.index("cfd_fixpoint_cap (--cfd-cap)")
    assert "inconsistent" not in message


def _injection_inputs(monkeypatch):
    """Every (clause, cfds, config) that inject_cfd_repairs receives while the
    bottom and ground bottom clauses of both cfd_micro_dataset variants and of
    the cfd_micro_db_clauses databases are built."""
    calls = []

    def record(clause, cfds, cfg):
        calls.append((clause, cfds, cfg))
        return inject_cfd_repairs(clause, cfds, cfg)

    monkeypatch.setattr(saturation, "inject_cfd_repairs", record)
    for by_title in (False, True):
        db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title)
        for ex in examples:
            bottom_clause(ex, db, mds, cfds, idx, cfg)
            ground_bottom_clause(ex, db, mds, cfds, idx, cfg)
    cfd_micro_db_clauses()
    monkeypatch.undo()
    return calls


def _same_clause(got: logic.Clause, want: logic.Clause) -> bool:
    # Clause equality ignores a repair literal's origin and group
    return got == want and [getattr(l, "origin", None) for l in got.body] == [
        getattr(l, "origin", None) for l in want.body]


def test_inject_cfd_repairs_equals_reference(monkeypatch):
    calls = _injection_inputs(monkeypatch)
    grown = 0
    for clause, cfds, cfg in calls:
        got = inject_cfd_repairs(clause, cfds, cfg)
        assert _same_clause(got, reference_inject_cfd_repairs(clause, cfds, cfg)), \
            logic.print_clause(clause)
        # again on the repaired clause, whose CFD swaps are all in place
        assert _same_clause(inject_cfd_repairs(got, cfds, cfg),
                            reference_inject_cfd_repairs(got, cfds, cfg))
        grown += len(got.body) > len(clause.body)
    # every clause of the two cfd_micro_dataset variants gets CFD repairs,
    # and 12 of the 230 of the micro databases do
    assert len(calls) == 16 + 230 and grown == 16 + 12


def test_left_side_split_keeps_its_value_through_an_anchoring_equality():
    # movies' title is the left side of the stored-to-stored match with aka:
    # its one occurrence gets a variable of its own, and the induced
    # equality keeps the title it stood for
    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    db = store.from_tuples(schema, {
        "movies": [("m1", "Superbad (2007)", "2007"), ("m2", "Orphanage (2008)", "2008")],
        "aka": [("m1", "Superbad [2007]")]})
    mds, _ = constraints.parse_constraints(TITLE_MD + "\n" + AKA_MD, schema)
    idx = textsim.SimilarityIndex(entries={
        (("highGrossing", "title"), ("movies", "title")): {"Superbad": [("Superbad (2007)", 0.8)]},
        (("movies", "title"), ("aka", "title")): {"Superbad (2007)": [("Superbad [2007]", 0.9)]}})
    ex = Example("highGrossing", ("Superbad",))
    cfg = SaturationConfig(d=3, sample_size=10, rng_seed=0)
    assert logic.print_clause(ground_bottom_clause(ex, db, mds, [], idx, cfg)) == (
        "highGrossing('Superbad') :- movies('m1',V0,'2007'), eq('Superbad (2007)',V0), "
        "sim('Superbad',V0), rep{sim('Superbad',V0)}('Superbad',V1), "
        "rep{sim('Superbad',V0)}(V0,V2), eq(V1,V2), aka('m1','Superbad [2007]'), "
        "sim(V0,'Superbad [2007]'), rep{sim(V0,'Superbad [2007]')}(V0,V3), "
        "rep{sim(V0,'Superbad [2007]')}('Superbad [2007]',V4), eq(V3,V4).")
    assert logic.print_clause(bottom_clause(ex, db, mds, [], idx, cfg)) == (
        "highGrossing(V0) :- movies(V1,V3,V2), eq('Superbad (2007)',V3), sim(V0,V3), "
        "rep{sim(V0,V3)}(V0,V4), rep{sim(V0,V3)}(V3,V5), eq(V4,V5), aka(V1,V6), "
        "sim(V3,V6), rep{sim(V3,V6)}(V3,V7), rep{sim(V3,V6)}(V6,V8), eq(V7,V8).")


def test_a_match_found_from_the_left_side_splits_the_probe_at_the_right_side():
    # m2 is reached only from aka's title, so the match is discovered from
    # the left side of movies~aka and its probe sits at aka: that occurrence
    # is split, as in the forward case, not repaired at the value level
    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    db = store.from_tuples(schema, {
        "movies": [("m1", "Superbad (2007)", "2007"), ("m2", "Superbad 2007!", "2007")],
        "aka": [("m1", "Superbad [2007]")]})
    mds, _ = constraints.parse_constraints(TITLE_MD + "\n" + AKA_MD, schema)
    idx = textsim.SimilarityIndex(entries={
        (("highGrossing", "title"), ("movies", "title")): {"Superbad": [("Superbad (2007)", 0.8)]},
        (("movies", "title"), ("aka", "title")): {"Superbad 2007!": [("Superbad [2007]", 0.9)]}})
    ex = Example("highGrossing", ("Superbad",))
    cfg = SaturationConfig(d=3, sample_size=10, rng_seed=0)
    assert logic.print_clause(ground_bottom_clause(ex, db, mds, [], idx, cfg)) == (
        "highGrossing('Superbad') :- movies('m1','Superbad (2007)','2007'), "
        "sim('Superbad','Superbad (2007)'), rep{sim('Superbad','Superbad (2007)')}('Superbad',V1), "
        "rep{sim('Superbad','Superbad (2007)')}('Superbad (2007)',V2), eq(V1,V2), "
        "aka('m1',V0), eq('Superbad [2007]',V0), movies('m2','Superbad 2007!','2007'), "
        "sim(V0,'Superbad 2007!'), rep{sim(V0,'Superbad 2007!')}(V0,V3), "
        "rep{sim(V0,'Superbad 2007!')}('Superbad 2007!',V4), eq(V3,V4).")
    assert logic.print_clause(bottom_clause(ex, db, mds, [], idx, cfg)) == (
        "highGrossing(V0) :- movies(V1,V6,V2), sim(V0,V6), rep{sim(V0,V6)}(V0,V7), "
        "rep{sim(V0,V6)}(V6,V8), eq(V7,V8), aka(V1,V5), eq('Superbad [2007]',V5), "
        "movies(V3,V9,V4), sim(V5,V9), rep{sim(V5,V9)}(V5,V10), rep{sim(V5,V9)}(V9,V11), "
        "eq(V10,V11).")


def test_learner_config_saturates_like_its_saturation_fields():
    for seed in range(12):
        db, mds, cfds, idx, examples = random_micro_db(random.Random(seed), with_cfd=seed % 2 == 0)
        fields = dict(d=3, sample_size=2, rng_seed=seed, cfd_fixpoint_cap=16)
        sat_cfg, learn_cfg = SaturationConfig(**fields), LearnerConfig(**fields, k_m=1, K=3)
        for ex in examples:
            for build in (bottom_clause, ground_bottom_clause):
                assert (build(ex, db, mds, cfds, idx, learn_cfg)
                        == build(ex, db, mds, cfds, idx, sat_cfg))


def test_self_coverage_micro_databases():
    hits = 0
    for seed in range(40):
        rng = random.Random(1000 + seed)
        db, mds, cfds, idx, examples = random_micro_db(rng, with_cfd=(seed % 3 == 0))
        cfg = SaturationConfig(d=3, sample_size=1000, rng_seed=seed)
        for ex in examples:
            c = bottom_clause(ex, db, mds, cfds, idx, cfg)
            g = ground_bottom_clause(ex, db, mds, cfds, idx, cfg)
            assert subsumption.covers_positive(c, g).covered, (seed, logic.print_clause(c))
            hits += 1
    assert hits >= 40


# the schema of test_a_key_with_too_many_names_for_the_default_cap_is_blamed_on_the_cap
KEY_SCHEMA_TEXT = ("movies(id:text, title:text)\nmov2countries(id:text, cid:text)\n"
                   "countries(cid:text, name:text)\nt(v:text)")


def _country_key(names: int):
    """(db, cfds, idx, example, config): six movies on two country keys with
    `names` names each, and the CFD cid -> name."""
    schema = store.parse_schema(KEY_SCHEMA_TEXT, target="t")
    _, cfds = constraints.parse_constraints("cfd: countries : cid -> name : (_ || _)", schema)
    cfg = LearnerConfig(d=3, sample_size=100)
    ex = Example("t", ("m0",))
    db = store.from_tuples(schema, {
        "movies": [(f"m{i}", f"Title {i}") for i in range(6)],
        "mov2countries": [(f"m{i}", f"c{i % 2}") for i in range(6)],
        "countries": [(f"c{k}", f"name {k}.{j}") for k in range(2) for j in range(names)]})
    idx = textsim.build_similarity_index(db, [ex], [], cfg.k_m, cfg.sim_threshold)
    return db, cfds, idx, ex, cfg


def _injected_inputs(monkeypatch, build, *args):
    """The clause that `build(*args)` hands to inject_cfd_repairs, with the
    CFDs and config, and the clause it returns."""
    calls = []

    def record(clause, cfds, cfg):
        calls.append((clause, cfds, cfg))
        return inject_cfd_repairs(clause, cfds, cfg)

    monkeypatch.setattr(saturation, "inject_cfd_repairs", record)
    out = build(*args)
    monkeypatch.undo()
    (call,) = calls
    return call, out


@pytest.mark.parametrize("names", [2, 5, 9])
def test_injection_equals_the_reference_on_wide_keys(monkeypatch, names):
    # many literals per key, where violations appear after earlier repairs
    # in every round and the handled pairs grow quadratically
    db, cfds, idx, ex, cfg = _country_key(names)
    for build in (ground_bottom_clause, bottom_clause):
        (clause, cfds, cfg), got = _injected_inputs(monkeypatch, build, ex, db, [], cfds, idx, cfg)
        assert _same_clause(got, reference_inject_cfd_repairs(clause, cfds, cfg))
        assert len(got.body) > len(clause.body) + names * names


def test_a_key_with_sixteen_names_prints_its_pinned_ground_clause():
    # the reference takes seconds here, so the printed clause of the
    # reference injection is pinned by its sha256
    db, cfds, idx, ex, cfg = _country_key(16)
    text = logic.print_clause(ground_bottom_clause(ex, db, [], cfds, idx, cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "a02454aa37ea0518c1a77f3e67a8c2a53be0ed59f3f805275cddf56b214752d6")


CHAINED_ROWS = {
    # (r rows, fixpoint cap): a -> b repairs make the b values of k0 equal,
    # which exposes b -> c violations among their c values
    "one swap": ([("k0", "b0", "c0"), ("k0", "b1", "c0"), ("k0", "b1", "c0")], 16),
    "b and c": ([("k0", "b0", "c0"), ("k0", "b1", "c1"), ("k0", "b0", "c0")], 64),
    "b, then c": ([("k0", "b0", "c0"), ("k0", "b0", "c1"), ("k0", "b1", "c1")], 64),
    "three c": ([("k0", "b0", "c0"), ("k0", "b1", "c1"), ("k0", "b1", "c2")], 64),
}


@pytest.mark.parametrize("case", sorted(CHAINED_ROWS))
def test_injection_equals_the_reference_on_chained_cfds(monkeypatch, case):
    rows, cap = CHAINED_ROWS[case]
    schema = store.parse_schema("r(a:text, b:text, c:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints(
        "cfd: r : a -> b : (_ || _)\ncfd: r : b -> c : (_ || _)", schema)
    db = store.from_tuples(schema, {"r": rows})
    ex = Example("t", ("k0",))
    cfg = SaturationConfig(d=2, sample_size=100)
    idx = textsim.build_similarity_index(db, [ex], [], 1, 0.5)
    # the clauses before injection
    clauses = []
    monkeypatch.setattr(saturation, "inject_cfd_repairs",
                        lambda clause, *_: clauses.append(clause) or clause)
    for build in (ground_bottom_clause, bottom_clause):
        build(ex, db, [], cfds, idx, cfg)
    monkeypatch.undo()
    for clause in clauses:
        if cap > cfg.cfd_fixpoint_cap:
            # both give up at the default cap
            for inject in (inject_cfd_repairs, reference_inject_cfd_repairs):
                with pytest.raises(SaturationError):
                    inject(clause, cfds, cfg)
        capped = SaturationConfig(d=2, sample_size=100, cfd_fixpoint_cap=cap)
        got = inject_cfd_repairs(clause, cfds, capped)
        assert _same_clause(got, reference_inject_cfd_repairs(clause, cfds, capped))
        assert len(got.body) > len(clause.body) + 10


def test_injection_builds_no_closure_and_finds_once_per_cfd_and_round(monkeypatch):
    # the closure and the occurrence counts are kept across rounds, not
    # rebuilt; a key with three names takes four rounds, the last finding
    # nothing left to repair
    db, cfds, idx, ex, cfg = _country_key(3)
    (clause, cfds, _), _ = _injected_inputs(monkeypatch, ground_bottom_clause,
                                            ex, db, [], cfds, idx, cfg)
    with pytest.raises(SaturationError):
        inject_cfd_repairs(clause, cfds, SaturationConfig(cfd_fixpoint_cap=3))
    for cfd_list in (cfds, cfds * 2):
        calls = []
        real = constraints.find_cfd_violations

        def finding(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(logic, "EqClosure", None)
        monkeypatch.setattr(constraints, "find_cfd_violations", finding)
        inject_cfd_repairs(clause, cfd_list, SaturationConfig(cfd_fixpoint_cap=4))
        monkeypatch.undo()
        assert calls == cfd_list * 4


def test_the_last_occurrence_of_a_split_term_keeps_it():
    # V2 occurs only in the two violating literals: splitting the first
    # occurrence leaves one, which keeps its term, so V2 gets one induced
    # equality; the right-hand constants feed the swaps and are split anyway
    schema = store.parse_schema("r(a:text, b:text)\nt(v:text)", target="t")
    _, cfds = constraints.parse_constraints("cfd: r : a -> b : (_ || _)", schema)
    clause = logic.parse_clause("t(V0) :- r(V0,V1), r(V2,'b0'), r(V2,'b1').")
    cfg = SaturationConfig()
    got = inject_cfd_repairs(clause, cfds, cfg)
    assert _same_clause(got, reference_inject_cfd_repairs(clause, cfds, cfg))
    assert logic.print_clause(got) == (
        "t(V0) :- r(V0,V1), r(V3,V4), r(V2,V5), eq(V2,V3), eq('b0',V4), eq('b1',V5), "
        "rep{eq(V3,V2);neq(V4,V5)}(V3,V6), rep{eq(V3,V2);neq(V4,V5)}(V2,V7), "
        "rep{eq(V3,V2);neq(V4,V5)}(V4,V5), rep{eq(V3,V2);neq(V4,V5)}(V5,V4).")
