import random

from dlearn import generalization, logic, oracle, saturation, subsumption
from dlearn.logic import parse_clause, print_clause
from dlearn.subsumption import (covers_negative, covers_positive, md_part,
                                subsumes_with_repairs, theta_subsumes)
from helpers import clause_pair, count_repair_literals


def test_theta_subsumes_movie_pair():
    c1 = parse_clause("highGrossing(V0) :- movies(V0,V1,V2).")
    c2 = parse_clause("highGrossing('a') :- movies('a','b','c'), mov2genres('b','comedy').")
    v = theta_subsumes(c1, c2)
    assert v.covered
    assert v.witness == {logic.Variable(0): logic.Constant("a"),
                         logic.Variable(1): logic.Constant("b"),
                         logic.Variable(2): logic.Constant("c")}


def test_theta_subsumes_self():
    c = parse_clause("t(V0) :- r(V0,V1), s(V1,'k').")
    v = theta_subsumes(c, c)
    assert v.covered
    assert all(k == val for k, val in v.witness.items())


def test_theta_subsumes_head_mismatch():
    assert not theta_subsumes(parse_clause("t(V0) :- r(V0)."), parse_clause("u(V0) :- r(V0).")).covered
    assert not theta_subsumes(parse_clause("t(V0,V1) :- r(V0)."), parse_clause("t(V0) :- r(V0).")).covered


def test_theta_subsumes_eq_and_sim_semantics():
    c = parse_clause("t(V0) :- r(V0,V1), eq(V0,V1).")
    d_yes = parse_clause("t('a') :- r('a','b'), eq('a','b').")
    d_no = parse_clause("t('a') :- r('a','b').")
    assert theta_subsumes(c, d_yes).covered
    assert not theta_subsumes(c, d_no).covered
    # reflexive similarity: equal images satisfy a similarity literal
    c2 = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1).")
    assert theta_subsumes(c2, parse_clause("t('a') :- r('a','a').")).covered
    assert not theta_subsumes(c2, parse_clause("t('a') :- r('a','b').")).covered
    assert theta_subsumes(c2, parse_clause("t('a') :- r('a','b'), sim('b','a').")).covered


def test_theta_subsumes_budget_exhaustion():
    body_c = ", ".join(f"r(V{i},V{i+1})" for i in range(8))
    body_d = ", ".join(f"r('a{i}','b{i}')" for i in range(8))
    c = parse_clause(f"t(V0) :- {body_c}.")
    d = parse_clause(f"t('a0') :- {body_d}.")
    v = theta_subsumes(c, d, budget=5)
    assert not v.covered and v.budget_exhausted


def test_subsumes_with_repairs_matches_repair_literals():
    c = parse_clause(
        "t(V0) :- r(V1,V2), sim(V0,V2), rep{sim(V0,V2)}(V0,V3), rep{sim(V0,V2)}(V2,V4), eq(V3,V4).")
    g = parse_clause(
        "t('e') :- r('k','w'), sim('e','w'), rep{sim('e','w')}('e',V0), rep{sim('e','w')}('w',V1), eq(V0,V1).")
    assert subsumes_with_repairs(c, g).covered
    assert subsumes_with_repairs(c, c).covered


def test_side_condition_rejects_missing_repair():
    # d's repair literals touch the mapped region through variables, so a
    # pattern without them cannot claim the region
    c = parse_clause("t(V0) :- r(V1,V2).")
    d = parse_clause(
        "t(V0) :- r(V1,V2), sim(V0,V2), rep{sim(V0,V2)}(V0,V3), rep{sim(V0,V2)}(V2,V4), eq(V3,V4).")
    assert not subsumes_with_repairs(c, d).covered
    # plain mode has no side condition
    assert theta_subsumes(c, d).covered


def test_with_repairs_reduces_to_plain_when_repair_free():
    c = parse_clause("t(V0) :- r(V0,V1).")
    d = parse_clause("t('a') :- r('a','b'), s('b').")
    assert subsumes_with_repairs(c, d).covered == theta_subsumes(c, d).covered


def test_md_part_splits_by_origin():
    c = parse_clause(
        "t(V0) :- r(V1,V2), sim(V0,V2), rep{sim(V0,V2)}(V0,V3), rep{sim(V0,V2)}(V2,V4), eq(V3,V4), "
        "s(V5,V6), s(V5,V7), rep{eq(V5,V5);neq(V6,V7)}(V6,V7), rep{eq(V5,V5);neq(V6,V7)}(V7,V6)."
    )
    part = md_part(c)
    kept = {print_clause(logic.Clause(c.head, (lit,))) for lit in part.body}
    assert any("r(" in k for k in kept)
    assert not any("s(" in k for k in kept)  # s literals carry CFD repairs
    assert sum(1 for l in part.body if isinstance(l, logic.RepairLit)) == 2


def test_md_part_follows_cfd_chain_through_replacement_variable():
    # the first MD group's replacement V4 is the target of a CFD swap, whose
    # replacement V7 is in turn repaired to V8: every literal reaching that
    # chain through a variable (sim, eq, n, both k literals, p) leaves the MD
    # part; m reaches only the MD repair on V1, and the second MD group, u
    # and the unrepaired k literal touch no CFD repair at all
    c = parse_clause(
        "t(V0) :- m(V0,V1), sim(V1,V2), rep{sim(V1,V2)}(V1,V3), rep{sim(V1,V2)}(V2,V4), "
        "eq(V3,V4), n(V2,V5), k(V6,V4), k(V6,V7), rep{eq(V6,V6);neq(V4,V7)}(V4,V7), "
        "rep{eq(V6,V6);neq(V4,V7)}(V7,V4), rep{eq(V6,V6);neq(V7,V8)}(V7,V8), p(V8), "
        "q(V0,V9), sim(V9,V10), rep{sim(V9,V10)}(V9,V11), rep{sim(V9,V10)}(V10,V12), "
        "eq(V11,V12), u(V10), k(V13,V14)."
    )
    assert print_clause(md_part(c)) == (
        "t(V0) :- m(V0,V1), rep{sim(V1,V2)}(V1,V3), rep{sim(V1,V2)}(V2,V4), q(V0,V9), "
        "sim(V9,V10), rep{sim(V9,V10)}(V9,V11), rep{sim(V9,V10)}(V10,V12), eq(V11,V12), "
        "u(V10), k(V13,V14)."
    )


def test_covers_positive_worked_example(movie_db, movie_mds, movie_idx, movie_examples):
    cfg = saturation.SaturationConfig(d=3, sample_size=1000, rng_seed=1)
    c = saturation.bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [], movie_idx, cfg)
    g = saturation.ground_bottom_clause(movie_examples["Superbad"], movie_db, movie_mds, [],
                                        movie_idx, cfg)
    assert covers_positive(c, g).covered
    g2 = saturation.ground_bottom_clause(movie_examples["Zoolander"], movie_db, movie_mds, [],
                                         movie_idx, cfg)
    assert not covers_positive(c, g2).covered


def test_covers_positive_single_match_definition():
    # one training example matching one tuple through a dependency
    h = parse_clause(
        "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), eq(V2,V3).")
    g = parse_clause(
        "t('a') :- r(V0), eq('b',V0), sim('a',V0), rep{sim('a',V0)}('a',V1), "
        "rep{sim('a',V0)}(V0,V2), eq(V1,V2).")
    assert covers_positive(h, g).covered


def test_covers_negative_through_second_expansion():
    h = parse_clause(
        "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), eq(V2,V3), "
        "s(V4), sim(V0,V4), rep{sim(V0,V4)}(V0,V5), rep{sim(V0,V4)}(V4,V6), eq(V5,V6)."
    )
    g = parse_clause("t('a') :- r('b'), s('a').")
    v = covers_negative(h, g)
    assert v.covered
    # and a target matching neither expansion
    g2 = parse_clause("t('a') :- r('b'), s('c').")
    assert not covers_negative(h, g2).covered


def test_covers_negative_repair_free_equals_positive():
    c = parse_clause("t(V0) :- r(V0,V1).")
    g = parse_clause("t('a') :- r('a','b').")
    assert covers_negative(c, g).covered == covers_positive(c, g).covered


def test_covers_negative_cap_flags():
    body = []
    vid = 20
    for k in range(1, 10):
        a, b = logic.Variable(vid), logic.Variable(vid + 1)
        vid += 2
        body.append(logic.Rel(f"r{k}", (logic.Variable(k),)))
        body.append(logic.Sim(logic.Variable(0), logic.Variable(k)))
        body.append(logic.RepairLit((logic.SimAtom(logic.Variable(0), logic.Variable(k)),),
                                    logic.Variable(0), a, origin="md", group=k))
        body.append(logic.RepairLit((logic.SimAtom(logic.Variable(0), logic.Variable(k)),),
                                    logic.Variable(k), b, origin="md", group=k))
        body.append(logic.Eq(a, b))
    c = logic.Clause(logic.Rel("t", (logic.Variable(0),)), tuple(body))
    v = covers_negative(c, parse_clause("t('a') :- r1('a')."), repair_cap=2)
    assert not v.covered and v.budget_exhausted


def test_soundness_engine_implies_oracle():
    rng = random.Random(77)
    positives = 0
    for _ in range(120):
        c, d = clause_pair(rng, with_cfd=(rng.random() < 0.4))
        if count_repair_literals(c) > 4 or count_repair_literals(d) > 4:
            continue
        if len(logic.clause_vars(c)) > 8:
            continue
        if subsumes_with_repairs(c, d).covered:
            positives += 1
            assert oracle.brute_force_entails(c, d), (print_clause(c), print_clause(d))
    assert positives >= 20


def _groups_overlap(clause):
    """True when two distinct repair groups of the clause share a target, so
    firing one can eliminate the other: the regime where the mapping test is
    sound but not complete for entailment between the expansions."""
    reps = [l for l in clause.body if isinstance(l, logic.RepairLit)]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if not logic.same_group(reps[i], reps[j]) and reps[i].target == reps[j].target:
                return True
    return False


def test_md_only_completeness_engine_equals_oracle():
    rng = random.Random(13)
    checked = 0
    for _ in range(150):
        c, d = clause_pair(rng, with_cfd=False, same_example=True)
        if count_repair_literals(c) > 4 or count_repair_literals(d) > 4:
            continue
        if len(logic.clause_vars(c)) > 7 or _groups_overlap(d):
            continue
        engine = subsumes_with_repairs(c, d).covered
        brute = oracle.brute_force_entails(c, d)
        checked += 1
        assert engine == brute, (print_clause(c), print_clause(d))
    assert checked >= 60


def test_covers_negative_agrees_with_exhaustive():
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        c, d = clause_pair(rng, with_cfd=(rng.random() < 0.3))
        if count_repair_literals(c) > 5 or len(logic.clause_vars(c)) > 7:
            continue
        # repair-free ground targets: each expansion of d is one
        try:
            targets = logic.repaired_clauses(d, cap=16)
        except logic.RepairCapExceeded:
            continue
        for g in targets[:2]:
            engine = covers_negative(c, g).covered
            brute = any(oracle.exhaustive_subsumes(r, g)
                        for r in logic.repaired_clauses(c, cap=64))
            checked += 1
            assert engine == brute, (print_clause(c), print_clause(g))
    assert checked >= 60


def test_plain_subsumes_agrees_with_exhaustive_enumeration():
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        c, d = clause_pair(rng, with_cfd=False)
        cr = logic.repaired_clauses(c, cap=16)
        dr = logic.repaired_clauses(d, cap=16)
        for a in cr[:2]:
            if len(logic.clause_vars(a)) > 6:
                continue
            for b in dr[:2]:
                assert theta_subsumes(a, b).covered == oracle.exhaustive_subsumes(a, b)
                checked += 1
    assert checked >= 100


def test_reflexivity_and_transitivity_on_random_clauses():
    rng = random.Random(21)
    clauses = []
    for _ in range(12):
        c, d = clause_pair(rng, with_cfd=False)
        clauses += [c, d]
    for c in clauses:
        assert subsumes_with_repairs(c, c).covered
    for _ in range(60):
        a, b, c = rng.sample(clauses, 3)
        if subsumes_with_repairs(a, b).covered and subsumes_with_repairs(b, c).covered:
            assert subsumes_with_repairs(a, c).covered


def _locale_pair():
    from dlearn import constraints as cn
    from dlearn import store

    schema = store.parse_schema(
        "mov2locale(title:text, language:text, country:text)\nhg(title:text)", target="hg")
    _, cfds = cn.parse_constraints(
        "cfd: mov2locale : title, language -> country : (_, 'English' || _)", schema)
    cfg = saturation.SaturationConfig(d=1, sample_size=1, rng_seed=0)
    c = saturation.inject_cfd_repairs(parse_clause(
        "hg(V1) :- mov2locale(V1,'English',V3), mov2locale(V2,'English',V4), eq(V1,V2)."),
        cfds, cfg)
    g = saturation.inject_cfd_repairs(parse_clause(
        "hg('t1') :- mov2locale(V1,'English',V3), eq('t1',V1), eq('usa',V3), "
        "mov2locale(V2,'English',V4), eq('t1',V2), eq('ireland',V4), eq(V1,V2)."),
        cfds, cfg)
    return c, g


def test_covers_positive_cfd_expansion_stage():
    c, g = _locale_pair()
    # dropping one left-hand repair leaves a pattern whose expansions are a
    # subset of the target's: direct mapping fails (the target's repair on
    # that side is connected but unmapped), the expansion stage accepts
    ordered = generalization.order_clause(c)
    idx = next(i for i, l in enumerate(ordered.clause.body)
               if isinstance(l, logic.RepairLit) and isinstance(l.replacement, logic.Variable)
               and l.target == l.cond[0].a)
    c_sub = generalization.drop_with_repair(ordered, idx).clause
    assert sum(1 for l in c_sub.body if isinstance(l, logic.RepairLit)) == 3
    assert not subsumes_with_repairs(c_sub, g).covered
    assert covers_positive(c_sub, g).covered


def test_covers_positive_cfd_branch_mismatch():
    from dlearn import constraints as cn
    from dlearn import store

    _, g = _locale_pair()
    # a pattern whose countries are pinned to usa/belgium has an equalize
    # expansion (everything at belgium) that no expansion of the usa/ireland
    # target can absorb
    schema = store.parse_schema(
        "mov2locale(title:text, language:text, country:text)\nhg(title:text)", target="hg")
    _, cfds = cn.parse_constraints(
        "cfd: mov2locale : title, language -> country : (_, 'English' || _)", schema)
    cfg = saturation.SaturationConfig(d=1, sample_size=1, rng_seed=0)
    c2 = saturation.inject_cfd_repairs(parse_clause(
        "hg(V1) :- mov2locale(V1,'English',V3), mov2locale(V2,'English',V4), "
        "eq('usa',V3), eq('belgium',V4), eq(V1,V2)."), cfds, cfg)
    assert not subsumes_with_repairs(c2, g).covered
    assert subsumes_with_repairs(md_part(c2), md_part(g)).covered
    assert not covers_positive(c2, g).covered
