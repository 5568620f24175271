import functools
import random

import pytest

from dlearn import constraints, learner, logic, oracle, saturation, store, textsim
from dlearn.logic import ClauseError, parse_clause, print_clause
from dlearn.oracle import (OracleCapExceeded, brute_force_covers,
                           brute_force_entails, canonical_instance, clause_set_key,
                           clause_sets_equal, clauses_isomorphic,
                           enumerate_repairs, exhaustive_subsumes,
                           fresh_value, is_fresh, normalize_clause)
from dlearn.store import Example
from helpers import (cfd_micro_db_clauses, clause_pair, genre_database, random_drop_variant,
                     reference_exhaustive_subsumes)


def test_fresh_value_symmetric_and_distinct():
    assert fresh_value("a", "b") == fresh_value("b", "a")
    assert is_fresh(fresh_value("a", "b"))
    assert not is_fresh("a")


def pair_index(entries):
    return textsim.SimilarityIndex(entries=entries)


def two_stars_case():
    schema = store.parse_schema(
        "movies(id:text, title:text, year:integer)\nhighBudgetMovies(title:text)\nt(x:text)",
        target="t")
    db = store.from_tuples(schema, {
        "movies": [("10", "Star Wars: Episode IV - 1977", "1977"),
                   ("40", "Star Wars: Episode III - 2005", "2005")],
        "highBudgetMovies": [("Star Wars",)],
    })
    mds, _ = constraints.parse_constraints(
        "md: movies[title] ~ highBudgetMovies[title] -> movies[title] <-> highBudgetMovies[title]",
        schema)
    idx = pair_index({(("movies", "title"), ("highBudgetMovies", "title")): {
        "Star Wars: Episode IV - 1977": [("Star Wars", 0.8)],
        "Star Wars: Episode III - 2005": [("Star Wars", 0.8)],
    }})
    return db, mds, idx


def test_enumerate_repairs_two_alternatives():
    db, mds, idx = two_stars_case()
    instances = enumerate_repairs(db, mds, [], idx, cap=8)
    assert len(instances) == 2
    # the single budget title unified with exactly one movie per instance
    for inst in instances:
        titles = [row[1] for row in inst["movies"]]
        assert sum(1 for v in titles if is_fresh(v)) == 1
        assert inst["highBudgetMovies"][0][0] in titles


def test_enumerate_repairs_no_constraints():
    db, _, idx = two_stars_case()
    instances = enumerate_repairs(db, [], [], idx, cap=8)
    assert len(instances) == 1
    assert instances[0]["movies"][0] == ("10", "Star Wars: Episode IV - 1977", "1977")


def test_enumerate_repairs_stability():
    db, mds, idx = two_stars_case()
    for inst in enumerate_repairs(db, mds, [], idx, cap=8):
        db2 = store.from_tuples(db.schema, {k: list(v) for k, v in inst.items() if k != "t"})
        again = enumerate_repairs(db2, mds, [], idx, cap=8)
        assert len(again) == 1


def hetero_case():
    schema = store.parse_schema("r(b:text)\ns(c:text)\nt(a:text)", target="t")
    db = store.from_tuples(schema, {"r": [("b",)], "s": [("c",)]})
    mds, _ = constraints.parse_constraints(
        "md: t[a] ~ r[b] -> t[a] <-> r[b]\nmd: t[a] ~ s[c] -> t[a] <-> s[c]", schema)
    idx = pair_index({(("t", "a"), ("r", "b")): {"a": [("b", 0.9)]},
                      (("t", "a"), ("s", "c")): {"a": [("c", 0.9)]}})
    return db, mds, idx


def test_enumerate_repairs_hetero_instances():
    db, mds, idx = hetero_case()
    instances = enumerate_repairs(db, mds, [], idx, cap=8, extra_rows={"t": [("a",)]})
    keys = {tuple(sorted((rel, tuple(rows)) for rel, rows in inst.items())) for inst in instances}
    v_ab, v_ac = fresh_value("a", "b"), fresh_value("a", "c")
    assert keys == {
        (("r", ((v_ab,),)), ("s", (("c",),)), ("t", ((v_ab,),))),
        (("r", (("b",),)), ("s", ((v_ac,),)), ("t", ((v_ac,),))),
    }


def test_enumerate_repairs_cap():
    db, mds, idx = hetero_case()
    with pytest.raises(OracleCapExceeded):
        enumerate_repairs(db, mds, [], idx, cap=1, extra_rows={"t": [("a",)]})


def test_enumerate_repairs_leaves_rows_outside_a_constant_cell_alone():
    # only the 'k0' pair matches the pattern: it is repaired either way, and
    # the pattern's constant X cell gets no replacement move
    schema = store.parse_schema("r(a:text, b:text)\nt(x:text)", target="t")
    db = store.from_tuples(schema, {"r": [("k0", "b0"), ("k0", "b1"), ("k1", "b0"), ("k1", "b1")]})
    _, cfds = constraints.parse_constraints("cfd: r : a -> b : ('k0' || _)", schema)
    instances = enumerate_repairs(db, [], cfds, textsim.SimilarityIndex(), cap=8)
    assert sorted(inst["r"] for inst in instances) == [
        [("k0", "b0"), ("k0", "b0"), ("k1", "b0"), ("k1", "b1")],
        [("k0", "b1"), ("k0", "b1"), ("k1", "b0"), ("k1", "b1")]]


def test_enumerate_repairs_tells_apart_values_with_commas():
    # printed as comma-separated text, the start instance would read as two
    # of the stable ones, r(k0,a,b,c) twice, and hide them as already seen
    schema = store.parse_schema("r(k:text, x:text, y:text)\nt(v:text)", target="t")
    db = store.from_tuples(schema, {"r": [("k0", "a", "b,c"), ("k0", "a,b", "c")]})
    _, cfds = constraints.parse_constraints(
        "cfd: r : k -> x : ('k0' || _)\ncfd: r : k -> y : ('k0' || _)", schema)
    instances = enumerate_repairs(db, [], cfds, textsim.SimilarityIndex(), cap=8)
    assert [inst["r"] for inst in instances] == [
        [("k0", x, y)] * 2 for x in ("a", "a,b") for y in ("b,c", "c")]


def test_enumerate_repairs_collapses_escapes_reached_in_either_order():
    # rows 0 and 1 each violate the CFD with row 2, so escaping both of their
    # keys is reached in either order, drawing the two escapes the other way
    # round; renamed by first occurrence, both paths key one instance
    schema = store.parse_schema("r(k:text, v:text)\nt(x:text)", target="t")
    db = store.from_tuples(schema, {"r": [("k0", "a"), ("k0", "a"), ("k0", "b")]})
    _, cfds = constraints.parse_constraints("cfd: r : k -> v : (_ || _)", schema)
    instances = enumerate_repairs(db, [], cfds, textsim.SimilarityIndex(), cap=64)
    shapes = [tuple(("_esc" if is_fresh(k) else k, v) for k, v in inst["r"])
              for inst in instances]
    assert len(set(shapes)) == len(shapes) == 32
    assert (("_esc", "a"), ("_esc", "a"), ("k0", "b")) in shapes


def test_enumerate_repairs_never_pairs_a_row_with_itself():
    # an MD whose two sides lie in one relation unifies cells of two rows,
    # never the two cells of one row
    schema = store.parse_schema("r(a:text, b:text)\nt(x:text)", target="t")
    mds, _ = constraints.parse_constraints("md: r[a] ~ r[b] -> r[a] <-> r[b]", schema)
    idx = pair_index({(("r", "a"), ("r", "b")): {"x": [("y", 0.9)]}})
    one = store.from_tuples(schema, {"r": [("x", "y")]})
    assert [inst["r"] for inst in enumerate_repairs(one, mds, [], idx, cap=8)] == [[("x", "y")]]
    two = store.from_tuples(schema, {"r": [("x", "y"), ("x", "y")]})
    v = fresh_value("x", "y")
    assert [inst["r"] for inst in enumerate_repairs(two, mds, [], idx, cap=8)] == [[(v, v)] * 2]


def test_canonical_instance_simple():
    c = parse_clause("highGrossing(V0) :- movies(V0,V1,V2).")
    db = canonical_instance(c)
    assert [t.values for t in db.tuples("movies")] == [("_V0", "_V1", "_V2")]
    assert [t.values for t in db.tuples("highGrossing")] == [("_V0",)]


def test_canonical_instance_ground():
    c = parse_clause("t('a') :- r('a','b').")
    db = canonical_instance(c)
    assert [t.values for t in db.tuples("r")] == [("a", "b")]


def test_canonical_instance_rejects_repairs():
    c = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2).")
    with pytest.raises(ClauseError):
        canonical_instance(c)


def test_canonical_instance_movie_clause():
    c = parse_clause(
        "highGrossing(V6) :- movies(V1,V7,V3), eq(V6,V7), mov2genres(V1,'comedy'), "
        "mov2countries(V1,V4), countries(V4,'USA'), englishMovies(V1), "
        "mov2releasedate(V1,'August',V5)."
    )
    db = canonical_instance(c)
    total = sum(len(db.tuples(r.name)) for r in db.schema.relations if r.name != "highGrossing")
    assert total == 6


def test_exhaustive_subsumes_basic():
    c = parse_clause("t(V0) :- r(V0,V1).")
    d = parse_clause("t('a') :- r('a','b'), s('b').")
    assert exhaustive_subsumes(c, d)
    assert not exhaustive_subsumes(parse_clause("t(V0) :- q(V0)."), d)
    assert exhaustive_subsumes(parse_clause("t(V0) :- r(V0,V1), eq(V0,V1)."),
                               parse_clause("t('a') :- r('a','a')."))



def test_exhaustive_subsumes_reads_sim_literals_both_ways_and_through_equality():
    c = parse_clause("t(V0) :- r(V1), sim(V0,V1).")
    for sim in ("sim('a','b')", "sim('b','a')", "eq('a','b')"):
        assert exhaustive_subsumes(c, parse_clause(f"t('a') :- r('b'), {sim}."))
    assert not exhaustive_subsumes(c, parse_clause("t('a') :- r('b')."))
    assert not exhaustive_subsumes(c, parse_clause("t('a') :- r('b'), sim('a','c')."))

def test_exhaustive_subsumes_var_cap():
    """The join takes no variable cap: an 11-variable clause is decided."""
    c = parse_clause("t(V0) :- r(V0,V1,V2,V3,V4,V5,V6,V7,V8,V9,V10).")
    assert exhaustive_subsumes(c, c)


def test_exhaustive_subsumes_rejects_repair_literals_and_another_head():
    plain = parse_clause("t(V0) :- r(V0,V1).")
    repaired = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2).")
    for c, d in ((repaired, plain), (plain, repaired)):
        with pytest.raises(ValueError):
            exhaustive_subsumes(c, d)
    for head in ("u('a')", "t('a','b')"):
        assert not exhaustive_subsumes(plain, parse_clause(f"{head} :- r('a','b')."))


def _genre_triples(seeds, family, k_m):
    """Per seed, a (bottom clause, drop variant, ground bottom clause)
    triple for each example of genre_database(10, seed, family)."""
    cases = []
    for seed in seeds:
        db, mds, cfds, pos, neg = genre_database(10, seed, family)
        cfg = learner.LearnerConfig(d=3, rng_seed=7, k_m=k_m)
        grounding = learner.Grounding(db, mds, cfds, pos + neg, cfg)
        rng = random.Random(seed)
        triples = []
        for e in pos + neg:
            bottom = saturation.bottom_clause(e, db, mds, cfds, grounding.idx, cfg)
            triples.append((bottom, random_drop_variant(bottom, rng), grounding.ground[e.key()]))
        cases.append(triples)
    return cases


def _join_pairs(source):
    """(c, d) clause pairs: per example, its bottom clause against its own
    ground clause and its drop variant against every ground clause of its
    database; or clause_pair's drop variants."""
    if source == "clause-pair":
        rng = random.Random(3)
        return [clause_pair(rng, with_cfd=i % 2 == 1, same_example=i % 3 == 0) for i in range(100)]
    cases = {"cfd-micro": cfd_micro_db_clauses,
             "genre": lambda: _genre_triples(range(5), 0, 1),
             "genre-fan-out": lambda: _genre_triples(range(5), 2, 5)}[source]()
    return [pair for triples in cases for bottom, drop, g in triples
            for pair in [(bottom, g)] + [(drop, other) for _, _, other in triples]]


# the enumeration's cost grows as |terms of d|^|variables of c|, so each
# source runs it under the cap that keeps it to about a second
@pytest.mark.parametrize("source, var_cap, covers, non_covers", [
    ("cfd-micro", 6, 450, 230), ("genre", 10, 420, 42), ("genre-fan-out", 6, 400, 125),
    ("clause-pair", 7, 180, 130)])
def test_join_agrees_with_the_retired_enumeration(source, var_cap, covers, non_covers):
    """The join returns the enumeration's verdict on every pair of
    repair-free expansions that the enumeration decides within `var_cap`
    variables, with at least the given numbers of covers and non-covers."""
    verdicts = {True: 0, False: 0}
    expand = functools.cache(logic.repaired_clauses)
    for c, d in _join_pairs(source):
        for cr in expand(c):
            for dr in expand(d):
                try:
                    expected = reference_exhaustive_subsumes(cr, dr, var_cap)
                except OracleCapExceeded:
                    continue
                assert exhaustive_subsumes(cr, dr) == expected, \
                    (print_clause(cr), print_clause(dr))
                verdicts[expected] += 1
    assert verdicts[True] >= covers and verdicts[False] >= non_covers, verdicts


def test_eval_clause_grounds_a_variable_only_eq_or_sim_names():
    """Such a variable ranges over the instance's values and the head row's:
    'c' is similar to the head value 'a' but occurs in neither."""
    instance = {"r": [("b",)]}
    sims = frozenset({frozenset(("a", "c"))})
    assert oracle._eval_clause(parse_clause("t(V0) :- r(V1), sim(V0,V2)."), instance, ("a",), sims)
    assert oracle._eval_clause(parse_clause("t(V0) :- r(V1), eq(V2,V1)."), instance, ("a",), sims)
    assert not oracle._eval_clause(parse_clause("t(V0) :- r(V1), sim(V0,V2), eq(V2,'c')."),
                                   instance, ("a",), sims)


def test_brute_force_entails_identity_and_plain():
    h = parse_clause(
        "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), eq(V2,V3), "
        "s(V4), sim(V0,V4), rep{sim(V0,V4)}(V0,V5), rep{sim(V0,V4)}(V4,V6), eq(V5,V6)."
    )
    assert brute_force_entails(h, h)
    a = parse_clause("t(V0) :- r(V0).")
    b = parse_clause("t(V0) :- r(V0), s(V1).")
    assert brute_force_entails(b, a) is False  # b does not subsume a
    assert brute_force_entails(a, b)


def test_brute_force_entails_onto_fails():
    h = parse_clause(
        "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), eq(V2,V3), "
        "s(V4), sim(V0,V4), rep{sim(V0,V4)}(V0,V5), rep{sim(V0,V4)}(V4,V6), eq(V5,V6)."
    )
    # a target matching only the first expansion: the second maps to nothing
    d = parse_clause("t(V0) :- r(V1), eq(V0,V1), s(V2).")
    assert not brute_force_entails(h, d)


def test_brute_force_covers_hetero():
    db, mds, idx = hetero_case()
    cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=0)
    ex = Example("t", ("a",))
    h = saturation.bottom_clause(ex, db, mds, [], idx, cfg)
    assert brute_force_covers([h], 0, "+", db, [ex.values], mds, [], idx)
    assert brute_force_covers([h], 0, "-", db, [ex.values], mds, [], idx)
    # an empty-body clause covers anything of the right shape
    assert brute_force_covers([parse_clause("t(V0).")], 0, "+", db, [ex.values], mds, [], idx)
    # a clause requiring an absent join does not
    assert not brute_force_covers([parse_clause("t(V0) :- r(V0), s(V0).")],
                                  0, "+", db, [ex.values], mds, [], idx)


def test_engine_positive_coverage_agrees_with_brute_force():
    db, mds, idx = hetero_case()
    cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=0)
    ex = Example("t", ("a",))
    from dlearn import subsumption

    h = saturation.bottom_clause(ex, db, mds, [], idx, cfg)
    g = saturation.ground_bottom_clause(ex, db, mds, [], idx, cfg)
    assert subsumption.covers_positive(h, g).covered == \
        brute_force_covers([h], 0, "+", db, [ex.values], mds, [], idx)


def test_normalize_clause_merges_and_prunes():
    c = parse_clause("t(V0) :- r(V1), eq(V0,V1), s(V2).")
    n = normalize_clause(c)
    assert print_clause(n) == "t(V0) :- r(V0)."
    c2 = parse_clause("t(V0) :- r(V1), eq(V1,'b').")
    assert print_clause(normalize_clause(c2)) == "t(V0)."


def test_normalize_clause_turns_fresh_values_into_variables():
    v = fresh_value("a", "b")
    c = parse_clause(f"t(V0) :- r(V0,'{v}'), s('{v}','c').")
    assert print_clause(normalize_clause(c)) == "t(V0) :- r(V0,V1), s(V1,'c')."


def test_clauses_isomorphic():
    a = parse_clause("t(V0) :- r(V0,V1), s(V1).")
    b = parse_clause("t(V5) :- s(V2), r(V5,V2).")
    assert clauses_isomorphic(a, b)
    c = parse_clause("t(V0) :- r(V0,V1), s(V0).")
    assert not clauses_isomorphic(a, c)
    assert not clauses_isomorphic(a, parse_clause("t(V0) :- r(V0,V1)."))


# a body of another length is test_clauses_isomorphic's last case
@pytest.mark.parametrize("left, right", [
    # literal type
    ("t(V0) :- r(V0,V1), sim(V0,V1).", "t(V0) :- r(V0,V1), eq(V0,V1)."),
    # repair origin
    ("t(V0) :- rep{sim(V0,V1)}(V0,V2).", "t(V0) :- rep{eq(V0,V1)}(V0,V2)."),
    # condition length
    ("t(V0) :- rep{sim(V0,V1)}(V0,V2).", "t(V0) :- rep{sim(V0,V1);sim(V0,V3)}(V0,V2)."),
    # condition atom type
    ("t(V0) :- rep{eq(V0,V1);eq(V1,V3)}(V0,V2).", "t(V0) :- rep{eq(V0,V1);neq(V1,V3)}(V0,V2)."),
    # head
    ("t(V0) :- r(V0).", "u(V0) :- r(V0)."),
])
def test_clauses_isomorphic_mismatches(left, right):
    a, b = parse_clause(left), parse_clause(right)
    assert clauses_isomorphic(a, a) and clauses_isomorphic(b, b)
    assert not clauses_isomorphic(a, b) and not clauses_isomorphic(b, a)


def commutativity_case(seed: int):
    rng = random.Random(seed)
    schema = store.parse_schema("a(k:text, x:text)\nb(k:text, y:text)\nt(v:text)", target="t")
    xs = [f"x{i}" for i in range(rng.randint(1, 3))]
    keys = [f"k{i}" for i in range(rng.randint(1, 2))]
    rows = {
        "a": [(rng.choice(keys), rng.choice(xs)) for _ in range(rng.randint(1, 3))],
        "b": [(rng.choice(keys), f"y{i}") for i in range(rng.randint(0, 2))],
    }
    db = store.from_tuples(schema, rows)
    mds, _ = constraints.parse_constraints("md: t[v] ~ a[x] -> t[v] <-> a[x]", schema)
    example = Example("t", ("e",))
    matched = sorted({x for _, x in rows["a"] if rng.random() < 0.7})
    entries = {}
    if matched:
        entries[(("t", "v"), ("a", "x"))] = {"e": [(x, 0.8) for x in matched]}
    idx = textsim.SimilarityIndex(entries=entries)
    return db, mds, idx, example


def test_saturation_commutes_with_repair():
    # d must exhaust reachability: over a repaired instance the unified value
    # joins through a chain that the similarity hop crosses in one step
    cfg = saturation.SaturationConfig(d=6, sample_size=1000, rng_seed=0)
    done = 0
    for seed in range(60):
        db, mds, idx, ex = commutativity_case(seed)
        try:
            instances = enumerate_repairs(db, mds, [], idx, cap=6, extra_rows={"t": [ex.values]})
        except OracleCapExceeded:
            continue
        dirty = saturation.bottom_clause(ex, db, mds, [], idx, cfg)
        left = logic.repaired_clauses(dirty, cap=64)
        right = []
        for inst in instances:
            db_j = store.from_tuples(db.schema, {r: list(v) for r, v in inst.items() if r != "t"})
            ex_j = Example("t", inst["t"][0])
            c_j = saturation.bottom_clause(ex_j, db_j, mds, [], idx, cfg)
            right.extend(logic.repaired_clauses(c_j, cap=64))
        assert clause_sets_equal(left, right), (seed, clause_set_key(left), clause_set_key(right))
        done += 1
    assert done >= 50


def test_generalization_commutes_on_proof_schema():
    """Single blocking-literal drops agree with dropping over each repair on
    the two-relation join schema the argument is phrased over, with both
    routes saturating the same dirty database."""
    from dlearn import generalization

    schema = store.parse_schema("r1(a:text, b:text)\nr2(b:text, c:text)\nt(v:text)", target="t")
    db = store.from_tuples(schema, {
        "r1": [("a", "b"), ("a2", "b")],
        "r2": [("b1", "c")],
    })
    mds, _ = constraints.parse_constraints("md: t[v] ~ r1[a] -> t[v] <-> r1[a]", schema)
    idx = pair_index({(("t", "v"), ("r1", "a")): {"e": [("a", 0.9)], "e2": [("a2", 0.9)]}})
    cfg = saturation.SaturationConfig(d=6, sample_size=1000, rng_seed=0)
    ex, ex2 = Example("t", ("e",)), Example("t", ("e2",))

    dirty = saturation.bottom_clause(ex, db, mds, [], idx, cfg)
    g2 = saturation.ground_bottom_clause(ex2, db, mds, [], idx, cfg)
    left = logic.repaired_clauses(generalization.armg(dirty, g2), cap=64)

    right = []
    for inst in enumerate_repairs(db, mds, [], idx, cap=16,
                                  extra_rows={"t": [ex.values, ex2.values]}):
        db_j = store.from_tuples(schema, {r: list(v) for r, v in inst.items() if r != "t"})
        c_j = saturation.bottom_clause(Example("t", inst["t"][0]), db_j, mds, [], idx, cfg)
        g2_j = saturation.ground_bottom_clause(Example("t", inst["t"][1]), db_j, mds, [], idx, cfg)
        right.append(generalization.armg(c_j, g2_j))
    assert right
    assert clause_sets_equal(left, right), (clause_set_key(left), clause_set_key(right))
