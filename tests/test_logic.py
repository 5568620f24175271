import random
import re
from collections import Counter
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlearn import logic, saturation
from dlearn.logic import (Clause, ClauseError, Constant, Eq, EqClosure, Neq,
                          Rel, RepairCapExceeded, RepairLit, Sim, Variable,
                          apply_repair_literal,
                          apply_substitution, clause_key, parse_clause,
                          partial_repairs, print_clause, repaired_clauses)
from dlearn.learner import Grounding, LearnerConfig
from helpers import (cfd_micro_dataset, cfd_micro_db_clauses, clause_pair, condition_holds,
                     random_drop_variant, random_eq_repair_clause, reference_apply_repair_literal,
                     reference_clause_key, reference_condition_holds,
                     reference_connected_repairs, reference_exhaust_repairs,
                     reference_head_reachable, reference_step_exhaust, title_database)

V = Variable
C = Constant


def test_apply_substitution_movie_shape():
    c = parse_clause("highGrossing(V0) :- movies(V0,V1,V2).")
    theta = {V(0): C("a"), V(1): C("b"), V(2): C("c")}
    got = apply_substitution(c, theta)
    assert print_clause(got) == "highGrossing('a') :- movies('a','b','c')."


def test_apply_substitution_identity():
    c = parse_clause("t(V0) :- r(V0,V1), rep{sim(V0,V1)}(V0,V2).")
    assert apply_substitution(c, {}) == c
    assert apply_substitution(c, {V(9): C("x")}) == c


def test_apply_substitution_rewrites_conditions():
    c = parse_clause("t(V0) :- rep{sim(V0,V1)}(V1,V2).")
    got = apply_substitution(c, {V(1): C("z")})
    assert print_clause(got) == "t(V0) :- rep{sim(V0,'z')}('z',V2)."


def test_apply_substitution_rewrites_constant_keys():
    c = parse_clause("t('a') :- r('a',V0), eq(V0,'1'), rep{eq('a',V0)}('a',V1).")
    got = apply_substitution(c, {C("a"): V(5), V(0): C("b")})
    assert print_clause(got) == "t(V5) :- r(V5,'b'), eq('b','1'), rep{eq(V5,'b')}(V5,V1)."
    # keys are type-strict: V1 is rewritten, the constant '1' is not
    got = apply_substitution(c, {V(1): V(8)})
    assert print_clause(got) == "t('a') :- r('a',V0), eq(V0,'1'), rep{eq('a',V0)}('a',V8)."


def test_condition_holds_cases():
    c = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1), eq(V2,V3), r(V2,V3).")
    assert condition_holds((Sim(V(0), V(1)),), c)
    assert condition_holds((Eq(C("a"), C("a")),), c)
    assert condition_holds((Eq(V(2), V(3)),), c)
    assert not condition_holds((Eq(V(0), V(1)),), c)
    assert condition_holds((Neq(V(0), V(1)),), c)
    assert not condition_holds((Neq(V(2), V(3)),), c)
    assert not condition_holds((Sim(V(2), V(0)),), c)
    # reflexive similarity on one term / equal constants
    assert condition_holds((Sim(V(7), V(7)),), c)
    assert condition_holds((Sim(C("u"), C("u")),), c)


def test_closure_is_equivalence():
    rng = random.Random(2)
    terms = [V(i) for i in range(5)] + [C("a"), C("b")]
    for _ in range(50):
        body = tuple(Eq(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(0, 6)))
        cl = EqClosure(body)
        for x in terms:
            assert cl.same(x, x)
        for x in terms:
            for y in terms:
                assert cl.same(x, y) == cl.same(y, x)
                for z in terms:
                    if cl.same(x, y) and cl.same(y, z):
                        assert cl.same(x, z)


def test_apply_repair_literal_md_pair():
    c = parse_clause(
        "highGrossing(V0) :- movies(V1,V2,V3), sim(V0,V2), rep{sim(V0,V2)}(V0,V6), "
        "rep{sim(V0,V2)}(V2,V7), eq(V6,V7), mov2genres(V1,'comedy'), highBudgetMovies(V0)."
    )
    i = next(k for k, l in enumerate(c.body) if isinstance(l, RepairLit))
    got = apply_repair_literal(c, i)
    assert print_clause(got) == (
        "highGrossing(V6) :- movies(V1,V7,V3), eq(V6,V7), mov2genres(V1,'comedy'), "
        "highBudgetMovies(V6)."
    )


def test_apply_repair_literal_unsatisfied_condition_only_removes():
    c = parse_clause("t(V0) :- r(V0,V1), rep{sim(V0,V1)}(V0,V2).")
    got = apply_repair_literal(c, 1)
    assert print_clause(got) == "t(V0) :- r(V0,V1)."


def test_apply_repair_literal_cfd_drops_dead_repairs():
    c = parse_clause(
        "hg(V0) :- m2l(V1,'English',V3), m2l(V2,'English',V4), eq(V1,V2), "
        "rep{eq(V1,V2);neq(V3,V4)}(V1,V5), rep{eq(V1,V2);neq(V3,V4)}(V2,V6), "
        "rep{eq(V1,V2);neq(V3,V4)}(V3,V4), rep{eq(V1,V2);neq(V3,V4)}(V4,V3)."
    )
    i = next(k for k, l in enumerate(c.body) if isinstance(l, RepairLit))
    got = apply_repair_literal(c, i)
    # replacing V1 breaks the equality, so every other repair literal dies
    assert print_clause(got) == "hg(V0) :- m2l(V5,'English',V3), m2l(V2,'English',V4)."


def test_apply_repair_literal_index_errors():
    c = parse_clause("t(V0) :- r(V0).")
    with pytest.raises(ClauseError):
        apply_repair_literal(c, 0)
    with pytest.raises(ClauseError):
        apply_repair_literal(c, 5)


def test_repaired_clauses_two_matches():
    h = parse_clause(
        "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), eq(V2,V3), "
        "s(V4), sim(V0,V4), rep{sim(V0,V4)}(V0,V5), rep{sim(V0,V4)}(V4,V6), eq(V5,V6)."
    )
    got = {print_clause(c) for c in repaired_clauses(h)}
    assert got == {
        "t(V2) :- r(V3), eq(V2,V3), s(V4).",
        "t(V5) :- r(V1), s(V6), eq(V5,V6).",
    }


def test_repaired_clauses_identity_and_single():
    plain = parse_clause("t(V0) :- r(V0,V1).")
    assert repaired_clauses(plain) == [plain]
    single = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2).")
    got = repaired_clauses(single)
    assert len(got) == 1
    assert print_clause(got[0]) == "t(V2) :- r(V2,V1)."


def test_repaired_clauses_no_repair_or_neq_left():
    h = parse_clause(
        "t(V0) :- r(V1,V2), r(V1,V3), rep{eq(V1,V1);neq(V2,V3)}(V2,V3), "
        "rep{eq(V1,V1);neq(V2,V3)}(V3,V2), sim(V0,V1), rep{sim(V0,V1)}(V0,V4), "
        "rep{sim(V0,V1)}(V1,V5), eq(V4,V5)."
    )
    for r in repaired_clauses(h):
        assert not any(isinstance(l, RepairLit) for l in r.body)


def test_repaired_clauses_cap():
    body = []
    vid = 10
    for k in range(1, 7):
        a, b = V(vid), V(vid + 1)
        vid += 2
        body.append(Rel(f"r{k}", (V(k),)))
        body.append(Sim(V(0), V(k)))
        body.append(RepairLit((Sim(V(0), V(k)),), V(0), a))
        body.append(RepairLit((Sim(V(0), V(k)),), V(k), b))
        body.append(Eq(a, b))
    c = Clause(Rel("t", (V(0),)), tuple(body))
    assert len(repaired_clauses(c, cap=64)) == 6
    with pytest.raises(RepairCapExceeded):
        repaired_clauses(c, cap=2)


def test_parse_print_round_trip_fixtures():
    fixtures = [
        "t(V0) :- r(V0,V1), eq(V1,'a').",
        "t(V0) :- rep{sim(V0,V1)}(V0,V2), r(V1).",
        "t('x () :- weird, ''quoted''').",
        "highGrossing(V0) :- movies(V1,V2,V3), sim(V0,V2), rep{sim(V0,V2)}(V0,V6), "
        "rep{sim(V0,V2)}(V2,V7), eq(V6,V7), mov2genres(V1,'comedy'), mov2countries(V1,V4), "
        "countries(V4,'USA'), englishMovies(V1), mov2releasedate(V1,'August',V5).",
    ]
    for text in fixtures:
        assert print_clause(parse_clause(text)) == text


def test_parse_errors():
    for bad in ["t(V0)", "t(V0) :- .", "t(V0) :- r(V0", "t(V0) :- r(V0,).", "eq(V0,V1) :- r(V0).",
                "t(V0) :- r(V0). trailing"]:
        with pytest.raises(ClauseError):
            parse_clause(bad)


# relation names; the reserved literal names are no relation's
# (store.parse_schema rejects them)
_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: name not in ("eq", "sim", "rep"))
_term = st.one_of(
    st.integers(min_value=0, max_value=5).map(Variable),
    st.text(alphabet="abc ':-,()", min_size=0, max_size=6).map(Constant),
)


@st.composite
def _clauses(draw):
    head = Rel(draw(_ident), tuple(draw(st.lists(_term, min_size=1, max_size=3))))
    body = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append(Rel(draw(_ident), tuple(draw(st.lists(_term, min_size=1, max_size=3)))))
        elif kind == 1:
            body.append(Sim(draw(_term), draw(_term)))
        elif kind == 2:
            body.append(Eq(draw(_term), draw(_term)))
        else:
            atoms = tuple(
                draw(st.sampled_from([Eq, Neq, Sim]))(draw(_term), draw(_term))
                for _ in range(draw(st.integers(1, 2)))
            )
            body.append(RepairLit(atoms, draw(_term), Variable(draw(st.integers(0, 5)))))
    return Clause(head, tuple(body))


@settings(max_examples=150, deadline=None)
@given(_clauses())
def test_parse_print_round_trip_random(clause):
    text = print_clause(clause)
    again = parse_clause(text)
    assert print_clause(again) == text
    # terms come back as equal terms of the same kind
    assert again == clause
    kinds = [type(t) for l in (clause.head, *clause.body) for t in logic.literal_terms(l)]
    assert kinds == [type(t) for l in (again.head, *again.body) for t in logic.literal_terms(l)]


def test_same_group_is_decided_by_the_condition():
    # MD repair literals built apart with one condition form one group,
    # whatever the order of the condition's atoms
    s01, s23 = Sim(V(0), V(1)), Sim(V(2), V(3))
    a = RepairLit((s01, s23), V(0), V(8))
    b = RepairLit((s23, s01), V(2), V(9))
    assert a.origin == b.origin == "md"
    assert logic.same_group(a, b) and logic.same_group(b, a)
    assert logic.same_group(a, RepairLit((s01, s23), V(1), V(7)))
    assert not logic.same_group(a, RepairLit((s01,), V(0), V(8)))
    # a CFD repair literal applies alone, even beside an equal literal
    cond = (Eq(V(0), V(1)), Neq(V(2), V(3)))
    c, d = RepairLit(cond, V(2), V(3)), RepairLit(cond, V(2), V(3))
    assert c.origin == "cfd" and c == d
    assert logic.same_group(c, c) and not logic.same_group(c, d)
    assert not logic.same_group(c, RepairLit(cond, V(3), V(2)))
    assert not logic.same_group(a, RepairLit((s01, s23, Neq(V(2), V(3))), V(0), V(8)))


def test_match_index_groups_key_md_literals_by_condition_and_cfd_literals_alone():
    """Clause.groups maps each repair literal's body index to its
    group's indices (group_key): MD literals with one set of condition
    atoms share a group, the empty set included, and a CFD literal is its
    own group even beside an equal one."""
    s01 = Sim(V(0), V(1))
    cfd = (Eq(V(0), V(1)), Neq(V(2), V(3)))
    body = (Rel("r", (V(0), V(1))), RepairLit((s01,), V(0), V(4)), RepairLit((), V(0), V(5)),
            RepairLit(cfd, V(2), V(3)), RepairLit((s01,), V(1), V(6)), RepairLit(cfd, V(2), V(3)),
            RepairLit((), V(1), V(7)))
    assert logic.group_key(body[2]) == frozenset() and logic.group_key(body[3]) is None
    groups = Clause(Rel("t", (V(0),)), body).groups
    assert groups == {1: {1, 4}, 4: {1, 4}, 2: {2, 6}, 6: {2, 6}, 3: {3}, 5: {5}}
    assert groups[1] is groups[4]


def _groups(clause):
    """The partition of a clause's repair literals into groups, as sets of
    body indices."""
    reps = [i for i, l in enumerate(clause.body) if isinstance(l, RepairLit)]
    return {frozenset(j for j in reps if logic.same_group(clause.body[i], clause.body[j]))
            for i in reps}


def test_printed_clauses_parse_back_with_their_origins_and_groups(
        movie_db, movie_mds, movie_idx, movie_examples):
    """Every ground and bottom clause of the movie example, of
    title_database(4, seed, family=2) at seeds 0-2 and of both
    cfd_micro_dataset variants, and every partial and full repair expansion
    of them, parses back from its text with the same body, each repair
    literal with its origin and the repair literals in the same groups.
    Each clause's Clause.groups are those groups."""
    sources = [(movie_db, movie_mds, [], movie_idx, list(movie_examples.values()),
                saturation.SaturationConfig(d=3, sample_size=1000, rng_seed=1))]
    for seed in range(3):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, rng_seed=seed)
        sources.append((db, mds, [], Grounding(db, mds, [], examples, cfg).idx, examples, cfg))
    sources += [cfd_micro_dataset(by_title) for by_title in (False, True)]
    clauses = []
    for db, mds, cfds, idx, examples, cfg in sources:
        for e in examples:
            for build in (saturation.bottom_clause, saturation.ground_bottom_clause):
                c = build(e, db, mds, cfds, idx, cfg)
                clauses += [c, *partial_repairs(c, "md"), *partial_repairs(c, "cfd"),
                            *repaired_clauses(c)]
    clauses = list(dict.fromkeys(clauses))
    grouped = 0
    for c in clauses:
        again = parse_clause(print_clause(c))
        assert again.body == c.body, print_clause(c)
        assert [getattr(l, "origin", None) for l in again.body] == \
            [getattr(l, "origin", None) for l in c.body]
        assert _groups(again) == _groups(c), print_clause(c)
        assert set(c.groups.values()) == _groups(c), print_clause(c)
        grouped += any(len(g) > 1 for g in _groups(c))
    assert len(clauses) >= 150 and grouped >= 50
    assert sum(_has_repairs(c, "cfd") for c in clauses) >= 20


# ---------------------------------------------------------------------------
# the term contract: native hashing, type-strict equality
# ---------------------------------------------------------------------------

# the frozen dataclasses the terms used to be, for their repr
_DataclassVariable = make_dataclass("Variable", [("id", int)], frozen=True)
_DataclassConstant = make_dataclass("Constant", [("value", str)], frozen=True)


_ints = st.integers(min_value=-2, max_value=10**6)
_strs = st.text(max_size=5)
_values = st.one_of(_ints, _strs, _ints.map(Variable), _strs.map(Constant))


@given(_ints, _strs)
def test_terms_never_equal_raw_values_or_the_other_kind(i, s):
    v, c = Variable(i), Constant(s)
    for term, raw in ((v, i), (c, s), (v, Constant(str(i))), (c, Variable(i))):
        assert not term == raw and not raw == term
        assert term != raw and raw != term
    assert Variable(i) == v and not Variable(i) != v
    assert Constant(s) == c and not Constant(s) != c


@given(_values, _values)
def test_not_equal_is_always_not_equal(a, b):
    assert (a != b) is (not a == b)
    assert (b != a) is (not b == a)
    assert (a == b) is (b == a)


@given(_ints, _strs)
def test_equal_terms_hash_equally_and_keep_the_dataclass_repr(i, s):
    for make in (lambda: Variable(i), lambda: Constant(s)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
    assert repr(Variable(i)) == str(Variable(i)) == repr(_DataclassVariable(i))
    assert repr(Constant(s)) == str(Constant(s)) == repr(_DataclassConstant(s))
    assert f"{Variable(i)}" == repr(Variable(i)) and f"{Constant(s)}" == repr(Constant(s))


@given(_ints, _strs)
def test_term_fields_are_plain_values(i, s):
    assert type(Variable(i).id) is int and Variable(i).id == i
    assert type(Constant(s).value) is str and Constant(s).value == s


@given(st.lists(_values, max_size=12))
def test_terms_and_raw_values_are_distinct_keys(values):
    # repr tells every kind and value apart: 3, '3', Variable(id=3), Constant(value='3')
    d = {x: repr(x) for x in values}
    assert len(d) == len(set(values)) == len({repr(x) for x in values})
    assert all(d[x] == repr(x) for x in values)


def test_canonical_ignores_renaming():
    a = parse_clause("t(V3) :- r(V3,V7), s(V7).")
    b = parse_clause("t(V0) :- r(V0,V5), s(V5).")
    assert clause_key(a) == clause_key(b)


def test_canonical_sorted_ignores_order():
    a = parse_clause("t(V0) :- r(V0,V1), s(V1).")
    b = parse_clause("t(V0) :- s(V2), r(V0,V2).")
    assert clause_key(a) == clause_key(b)


@settings(max_examples=200, deadline=None)
@given(_clauses(), st.text(alphabet="%d{}'V0", max_size=4))
def test_clause_key_equals_reference_key(clause, text):
    # constants with % and braces stress the printed literal templates
    clause = apply_substitution(clause, {V(0): C(text)})
    key = clause_key(clause)
    assert key == reference_clause_key(clause)
    assert print_clause(logic.canonical(clause)) == key
    assert print_clause(logic.canonical(clause)) == clause_key(clause)


def test_a_repair_literal_with_an_empty_condition_parses_back():
    # an MD literal's condition may be empty (group_key), so `rep{}` parses
    # and canonical, which parses what clause_key prints, keeps the literal
    c = Clause(Rel("t", (V(3),)), (RepairLit((), V(3), V(1)),))
    assert parse_clause(print_clause(c)) == c
    assert print_clause(logic.canonical(c)) == clause_key(c) == "t(V0) :- rep{}(V0,V1)."
    with pytest.raises(ClauseError):
        parse_clause("t(V0) :- rep{sim(V0,V1);}(V0,V1).")


def test_head_connected_filter():
    c = parse_clause("t(V0) :- r(V0,V1), s(V1), q(V5).")
    got = logic.head_connected(c)
    assert print_clause(got) == "t(V0) :- r(V0,V1), s(V1)."


def test_reachable_equals_the_reference_closures(movie_db, movie_mds, movie_idx,
                                                  movie_examples):
    # one closure serves both questions. From each body literal of every
    # distinct micro-database, movie and clause_pair clause, the repair links
    # reach the repair literals the retired subsumption loop reached; with
    # that literal left out, the head reaches what the retired logic loop did
    cfg = saturation.SaturationConfig(d=3, sample_size=1000, rng_seed=1)
    movie = [build(ex, movie_db, movie_mds, [], movie_idx, cfg)
             for ex in movie_examples.values()
             for build in (saturation.bottom_clause, saturation.ground_bottom_clause)]
    pairs = [clause_pair(random.Random(seed), with_cfd=seed % 2 == 1) for seed in range(100)]
    clauses = dict.fromkeys([c for case in cfd_micro_db_clauses() for triple in case
                             for c in triple] + movie + [c for pair in pairs for c in pair])
    repairs_reached = cut_off = cases = 0
    for c in clauses:
        for i, lit in enumerate(c.body):
            got = logic.reachable(logic.literal_terms(lit), c.repair_links)
            assert got == reference_connected_repairs(c.reps, logic.literal_terms(lit)), (
                print_clause(c), i)
            rest = [(j, l) for j, l in enumerate(c.body) if j != i]
            reached = logic.head_reachable(c.head, rest)
            assert reached == reference_head_reachable(c.head, rest), (print_clause(c), i)
            repairs_reached += bool(got)
            cut_off += len(reached) < len(rest)
            cases += 1
    # 6145 literals: from 5210 the links reach some repair literal, and
    # leaving out 366 of them cuts some other literal off from the head
    assert cases >= 6000 and repairs_reached >= 5000 and cut_off >= 300


def _least_closed_set(terms, linked):
    """The smallest set of keys of `linked` that takes in every pair whose
    terms meet `terms` or the terms of a pair in the set, found by trying
    every set of keys."""
    keys = [key for key, _ in linked]
    closed = []
    for mask in range(2 ** len(keys)):
        chosen = {key for bit, key in enumerate(keys) if mask >> bit & 1}
        pool = set(terms).union(*(ts for key, ts in linked if key in chosen))
        if all(key in chosen for key, ts in linked if pool & ts):
            closed.append(chosen)
    least = min(closed, key=len)
    assert all(least <= other for other in closed)
    return least


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=3),
       st.lists(st.frozensets(st.integers(0, 7), max_size=3), max_size=8))
def test_reachable_is_the_least_closed_set(terms, term_sets):
    linked = list(enumerate(term_sets))
    assert logic.reachable(terms, linked) == _least_closed_set(terms, linked)


def test_apply_substitution_distributes_over_concatenation():
    rng = random.Random(17)
    terms = [V(i) for i in range(4)] + [C("a"), C("b")]
    for _ in range(40):
        body1 = tuple(Rel("r", (rng.choice(terms), rng.choice(terms))) for _ in range(2))
        body2 = tuple(Sim(rng.choice(terms), rng.choice(terms)) for _ in range(2))
        head = Rel("t", (rng.choice(terms),))
        theta = {V(i): rng.choice(terms) for i in range(4)}
        joined = apply_substitution(Clause(head, body1 + body2), theta)
        left = apply_substitution(Clause(head, body1), theta)
        right = apply_substitution(Clause(head, body2), theta)
        assert joined == Clause(left.head, left.body + right.body)


# ---------------------------------------------------------------------------
# repair exhaustion against the reference loop
# ---------------------------------------------------------------------------

def _has_repairs(clause, origin):
    return any(isinstance(l, RepairLit) and l.origin == origin for l in clause.body)


@pytest.fixture(scope="module")
def micro_db_clauses():
    """Bottom clauses, generalizations of them and ground bottom clauses of
    seeded micro databases with a CFD, saturated at d=3."""
    return list(dict.fromkeys(c for case in cfd_micro_db_clauses() for triple in case
                              for c in triple))


def _outcome(expand, *args):
    try:
        return expand(*args)
    except RepairCapExceeded as exc:
        return ("cap", str(exc))


def test_repair_exhaustion_equals_reference_loop(micro_db_clauses):
    cases = [c for c in micro_db_clauses if _has_repairs(c, "md")]
    assert sum(_has_repairs(c, "cfd") for c in cases) >= 6
    assert len(cases) >= 60
    for c in cases:
        full = repaired_clauses(c)
        assert full == reference_exhaust_repairs(c, None, 256)
        for origin in ("cfd", "md"):
            assert partial_repairs(c, origin) == reference_exhaust_repairs(c, origin, 256)
        for r in full:
            assert partial_repairs(r, "cfd") == reference_exhaust_repairs(r, "cfd", 256) == [r]


def test_repair_cap_hits_equal_reference_loop(micro_db_clauses):
    cases = [c for c in micro_db_clauses if _has_repairs(c, "cfd")]
    hits = 0
    for c in cases:
        for cap in (1, 2, 3, 5):
            got = _outcome(repaired_clauses, c, cap)
            assert got == _outcome(reference_exhaust_repairs, c, None, cap)
            assert _outcome(partial_repairs, c, "cfd", cap) == _outcome(
                reference_exhaust_repairs, c, "cfd", cap)
            hits += isinstance(got, tuple)
    assert hits >= 6


def test_each_state_tests_conditions_against_its_own_closure():
    # firing the first repair drops both equalities, so only afterwards does
    # neq(V2,V5) hold and the second repair fire
    c = parse_clause("t(V0) :- r(V1,V2,V5), s('a'), eq(V1,V2), eq(V1,V5), "
                     "rep{sim(V0,V0)}(V1,V3), rep{neq(V2,V5)}('a',V6).")
    got = repaired_clauses(c)
    assert [print_clause(r) for r in got] == ["t(V0) :- r(V3,V2,V5), s('a').",
                                              "t(V0) :- r(V3,V2,V5), s(V6)."]
    assert got == reference_exhaust_repairs(c, None, 256)


def test_fired_group_that_drops_an_eq_rechecks_conditions_on_the_child():
    # eq(V2,V4) holds only through V1; firing the repair of V1 drops both
    # equalities, so the CFD repair guarded by eq(V2,V4) must go too
    c = parse_clause("t(V0) :- r(V1,V2,V4), eq(V2,V1), eq(V1,V4), "
                     "rep{sim(V0,V0)}(V1,V3), rep{eq(V2,V4)}(V2,V5).")
    assert condition_holds((Eq(V(2), V(4)),), c)
    got = apply_repair_literal(c, 3, EqClosure(c.body))
    assert print_clause(got) == "t(V0) :- r(V3,V2,V4)."


def _rewrite_repair(lit, mapping):
    def rw(t):
        return mapping.get(t, t)
    return RepairLit(tuple(type(a)(rw(a.a), rw(a.b)) for a in lit.cond), rw(lit.target),
                     rw(lit.replacement))


def test_applied_repairs_keep_exactly_the_literals_whose_condition_holds(micro_db_clauses):
    # the child's repair literals are judged by the parent's closure unless
    # an equality was dropped; either way they must be those whose condition
    # holds under a closure built afresh from the child
    fired = reused = filtered = 0
    for c in micro_db_clauses:
        closure = EqClosure(c.body)
        for i, lit in enumerate(c.body):
            if not isinstance(lit, RepairLit):
                continue
            child = apply_repair_literal(c, i, closure)
            fresh = EqClosure(child.body)
            kept = [l for l in child.body if isinstance(l, RepairLit)]
            assert all(condition_holds(l.cond, child, fresh) for l in kept)
            if not condition_holds(lit.cond, c, closure):
                continue
            fired += 1
            group = [l for l in c.body if isinstance(l, RepairLit) and logic.same_group(l, lit)]
            mapping = {l.target: l.replacement for l in group}
            reused += not any(isinstance(l, Eq) and (l.a in mapping or l.b in mapping)
                              for l in c.body)
            rest = [_rewrite_repair(l, mapping) for l in c.body
                    if isinstance(l, RepairLit) and not any(l is m for m in group)]
            holding = [l for l in rest if condition_holds(l.cond, child, fresh)]
            assert kept == holding
            filtered += len(rest) - len(holding)
    assert fired >= 1000 and 100 <= reused <= fired - 1000 and filtered >= 1000


def test_exhaustion_keys_each_distinct_state_once(monkeypatch, micro_db_clauses):
    c = max((c for c in micro_db_clauses if _has_repairs(c, "cfd")), key=lambda c: len(c.body))
    keyed, produced = Counter(), Counter()
    real_key, real_apply = logic.clause_key, logic.apply_repair_literal

    def counting_key(clause, *args, **kwargs):
        keyed[clause] += 1
        return real_key(clause, *args, **kwargs)

    def counting_apply(clause, *args, **kwargs):
        child = real_apply(clause, *args, **kwargs)
        produced[child] += 1
        return child

    monkeypatch.setattr(logic, "clause_key", counting_key)
    monkeypatch.setattr(logic, "apply_repair_literal", counting_apply)
    expected = reference_exhaust_repairs(c, None, 256)
    assert repaired_clauses(c) == expected
    # states are reached along several application orders, yet each value is keyed once
    assert max(produced.values()) > 1
    assert max(keyed.values()) == 1


# ---------------------------------------------------------------------------
# what positive coverage's one-path rejection rests on
# ---------------------------------------------------------------------------

def _ground_clauses_with_repairs():
    """The ground bottom clauses of both cfd_micro_dataset variants (CFD and
    MD repairs) and of title_database(4, seed, family=2) at seeds 0-2 (MD
    repairs under similarity fan-out)."""
    grounds = []
    for by_title in (False, True):
        db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title)
        grounds += [saturation.ground_bottom_clause(e, db, mds, cfds, idx, cfg) for e in examples]
    for seed in range(3):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, rng_seed=seed)
        grounds += Grounding(db, mds, [], examples, cfg).ground.values()
    return grounds


def test_expansions_of_a_ground_clause_use_only_its_terms():
    grounds = _ground_clauses_with_repairs()
    assert sum(_has_repairs(g, "cfd") for g in grounds) >= 8
    assert sum(_has_repairs(g, "md") for g in grounds) >= 12
    for g in grounds:
        terms = set(g.terms)
        for expansion in partial_repairs(g, "cfd") + repaired_clauses(g):
            assert set(expansion.terms) <= terms, print_clause(expansion)


def test_first_partial_repair_is_one_of_the_partial_repairs(micro_db_clauses):
    clauses = [c for c in micro_db_clauses if _has_repairs(c, "cfd")]
    for by_title in (False, True):
        db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title)
        rng = random.Random(0)
        for e in examples:
            bottom = saturation.bottom_clause(e, db, mds, cfds, idx, cfg)
            clauses += [bottom] + [random_drop_variant(bottom, rng, 6) for _ in range(4)]
    assert sum(_has_repairs(c, "cfd") for c in clauses) >= 25
    for c in clauses:
        path = logic.first_partial_repair(c, "cfd")
        assert not _has_repairs(path, "cfd")
        keys = {clause_key(r) for r in partial_repairs(c, "cfd")}
        assert clause_key(path) in keys, print_clause(c)


# ---------------------------------------------------------------------------
# the repair step against the step it replaced
# ---------------------------------------------------------------------------

def test_fired_group_that_drops_a_sim_rechecks_conditions_on_the_child():
    # the group swaps V0 and V1, so both live on and the dropped sim(V0,V1)
    # must not keep deciding the rewritten sim(V1,V0) of the CFD repair
    c = parse_clause("t(V0) :- r(V0,V1,V2), sim(V0,V1), rep{sim(V0,V1)}(V0,V1), "
                     "rep{sim(V0,V1)}(V1,V0), rep{sim(V0,V1);neq(V2,V0)}(V2,V3).")
    got = apply_repair_literal(c, 2)
    assert print_clause(got) == "t(V1) :- r(V1,V0,V2)."
    assert got == reference_apply_repair_literal(c, 2)


def _repair_indices(clause):
    return [i for i, l in enumerate(clause.body) if isinstance(l, RepairLit)]


def _fired_targets(clause, i):
    """The terms the group of the repair literal at body index i replaces,
    or None when its condition fails and it is only discarded."""
    lit = clause.body[i]
    if not reference_condition_holds(lit.cond, clause):
        return None
    return {l.target for l in clause.body
            if isinstance(l, RepairLit) and logic.same_group(l, lit)}


def test_repair_step_equals_reference_step(micro_db_clauses):
    steps = 0
    for c in micro_db_clauses:
        closure = EqClosure(c.body)
        for i in _repair_indices(c):
            assert apply_repair_literal(c, i) == reference_apply_repair_literal(c, i)
            assert apply_repair_literal(c, i, closure) == reference_apply_repair_literal(c, i, closure)
            steps += 1
    assert steps >= 1000


def test_expansions_equal_the_loop_on_the_reference_step(micro_db_clauses):
    hits = 0
    for c in micro_db_clauses:
        for cap in (1, 2, 3, 5, 256):
            got = _outcome(repaired_clauses, c, cap)
            assert got == _outcome(reference_step_exhaust, c, None, cap)
            assert _outcome(partial_repairs, c, "cfd", cap) == _outcome(
                reference_step_exhaust, c, "cfd", cap)
            hits += isinstance(got, tuple)
    assert hits >= 100


def _flips(clause, i, child):
    """Whether firing the repair literal at body index i drops an equality
    and changes the truth of a repair literal whose terms it leaves alone."""
    targets = _fired_targets(clause, i)
    if targets is None or not any(isinstance(l, Eq) and (l.a in targets or l.b in targets)
                                  for l in clause.body):
        return False
    lit = clause.body[i]
    return any(reference_condition_holds(l.cond, clause) != reference_condition_holds(l.cond, child)
               for l in clause.body
               if isinstance(l, RepairLit) and not logic.same_group(l, lit)
               and targets.isdisjoint(logic.literal_terms(l)))


def test_dropped_equality_rechecks_the_conditions_it_decides():
    # conditions over a chain of equalities: replacing a chain variable
    # drops its equalities and flips conditions that mention only other
    # variables, so a step that kept their old truth would keep or drop them
    # wrongly
    flips = 0
    for seed in range(80):
        c = random_eq_repair_clause(random.Random(seed))
        closure = EqClosure(c.body)
        for i in _repair_indices(c):
            child = reference_apply_repair_literal(c, i)
            assert apply_repair_literal(c, i) == child
            assert apply_repair_literal(c, i, closure) == child
            flips += _flips(c, i, child)
        assert repaired_clauses(c) == reference_step_exhaust(c, None, 256)
        assert partial_repairs(c, "cfd") == reference_step_exhaust(c, "cfd", 256)
    assert flips >= 50


def test_step_keeps_equalities_and_untouched_literals_as_parent_objects(micro_db_clauses):
    # a clause's children reuse its closure because Eq and Sim literals are
    # never rewritten, only dropped; and the keys of an expansion share
    # printed literal forms across application orders because an untouched
    # literal is kept as it is. Checked on every clause reachable from the
    # clauses.
    seen, stack, steps = set(), list(micro_db_clauses), 0
    while stack:
        parent = stack.pop()
        key = clause_key(parent)
        if key in seen:
            continue
        seen.add(key)
        for i in _repair_indices(parent):
            child = apply_repair_literal(parent, i)
            stack.append(child)
            steps += 1
            targets = _fired_targets(parent, i) or set()
            for l in child.body:
                if isinstance(l, (Eq, Sim)):
                    assert any(l is m for m in parent.body)
            for k, m in enumerate(parent.body):
                if k == i or not targets.isdisjoint(logic.literal_terms(m)):
                    continue
                # only a repair literal whose condition now fails may go
                assert any(l is m for l in child.body) or (
                    isinstance(m, RepairLit) and m not in child.body)
    assert steps >= 2000


# ---------------------------------------------------------------------------
# clause parser fuzz
# ---------------------------------------------------------------------------

_VALID_CLAUSES = (
    "t('x () :- weird, ''quoted''').",
    "highGrossing(V0) :- movies(V1,V2,V3), sim(V0,V2), rep{sim(V0,V2)}(V0,V6), "
    "rep{sim(V0,V2)}(V2,V7), eq(V6,V7), mov2genres(V1,'comedy').",
    "t(V0) :- c(V1,V2), c(V1,V3), rep{eq(V1,V1);neq(V2,V3)}(V2,V4), eq(V3,'50%').",
)
_CLAUSE_TOKEN_RE = re.compile(r"'(?:[^']|'')*'|\w+|\s+|:-|.")
_CLAUSE_FUZZ_TOKENS = ("'", "''", ",", ";", ".", ":-", ":", "-", "(", ")", "{", "}", " ", "\n",
                       "V", "V0", "V12", "V²", "V١", "'a''b'", "rep", "sim", "eq", "neq", "r",
                       "%", "%d", "_x")
_CLAUSE_MUTATION = st.tuples(
    st.sampled_from(("insert", "delete", "replace")), st.integers(0, 80),
    st.sampled_from(_CLAUSE_FUZZ_TOKENS) | st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_VALID_CLAUSES), st.lists(_CLAUSE_MUTATION, min_size=1, max_size=3))
def test_mutated_clauses_raise_only_clause_errors_and_round_trip(text, mutations):
    tokens = _CLAUSE_TOKEN_RE.findall(text)
    for op, at, token in mutations:
        at %= len(tokens) + 1
        if op == "insert":
            tokens.insert(at, token)
        elif at < len(tokens):
            tokens[at:at + 1] = [] if op == "delete" else [token]
    try:
        clause = parse_clause("".join(tokens))
    except ClauseError:
        return
    assert parse_clause(print_clause(clause)) == clause


def test_variable_digits_int_cannot_read_are_a_clause_error():
    for bad in ("t(V²).", "t(V0) :- r(V0,V³)."):
        with pytest.raises(ClauseError, match="expected a term"):
            parse_clause(bad)
    assert parse_clause("t(V١).") == Clause(Rel("t", (V(1),)))
