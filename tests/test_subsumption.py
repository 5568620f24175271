import os
import random

import pytest

from dlearn import generalization, logic, oracle, saturation, store, subsumption, textsim
from dlearn.logic import parse_clause, print_clause
from dlearn.subsumption import (covers_negative, covers_positive, md_part,
                                subsumes_with_repairs)
from dlearn.learner import Grounding, LearnerConfig
from helpers import (_ReferenceMatcher, cfd_micro_dataset, cfd_micro_db_clauses, clause_pair,
                     count_repair_literals, cyclic_garbage, random_drop_variant,
                     random_eq_repair_clause, reference_covers_positive, reference_md_part,
                     reference_subsumes, title_database)


def test_theta_subsumes_movie_pair():
    c1 = parse_clause("highGrossing(V0) :- movies(V0,V1,V2).")
    c2 = parse_clause("highGrossing('a') :- movies('a','b','c'), mov2genres('b','comedy').")
    v = subsumes_with_repairs(c1, c2)
    assert v.covered
    assert v.witness == {logic.Variable(0): logic.Constant("a"),
                         logic.Variable(1): logic.Constant("b"),
                         logic.Variable(2): logic.Constant("c")}


def test_theta_subsumes_self():
    c = parse_clause("t(V0) :- r(V0,V1), s(V1,'k').")
    v = subsumes_with_repairs(c, c)
    assert v.covered
    assert all(k == val for k, val in v.witness.items())


def test_theta_subsumes_head_mismatch():
    c = parse_clause("t(V0) :- r(V0).")
    assert not subsumes_with_repairs(c, parse_clause("u(V0) :- r(V0).")).covered
    assert not subsumes_with_repairs(parse_clause("t(V0,V1) :- r(V0)."), c).covered


def test_theta_subsumes_eq_and_sim_semantics():
    c = parse_clause("t(V0) :- r(V0,V1), eq(V0,V1).")
    d_yes = parse_clause("t('a') :- r('a','b'), eq('a','b').")
    d_no = parse_clause("t('a') :- r('a','b').")
    assert subsumes_with_repairs(c, d_yes).covered
    assert not subsumes_with_repairs(c, d_no).covered
    # reflexive similarity: equal images satisfy a similarity literal
    c2 = parse_clause("t(V0) :- r(V0,V1), sim(V0,V1).")
    assert subsumes_with_repairs(c2, parse_clause("t('a') :- r('a','a').")).covered
    assert not subsumes_with_repairs(c2, parse_clause("t('a') :- r('a','b').")).covered
    assert subsumes_with_repairs(c2, parse_clause("t('a') :- r('a','b'), sim('b','a').")).covered


def test_theta_subsumes_budget_exhaustion():
    body_c = ", ".join(f"r(V{i},V{i+1})" for i in range(8))
    body_d = ", ".join(f"r('a{i}','b{i}')" for i in range(8))
    c = parse_clause(f"t(V0) :- {body_c}.")
    d = parse_clause(f"t('a0') :- {body_d}.")
    v = subsumes_with_repairs(c, d, budget=5)
    assert not v.covered and v.budget_exhausted


def test_subsumes_with_repairs_matches_repair_literals():
    c = parse_clause(
        "t(V0) :- r(V1,V2), sim(V0,V2), rep{sim(V0,V2)}(V0,V3), rep{sim(V0,V2)}(V2,V4), eq(V3,V4).")
    g = parse_clause(
        "t('e') :- r('k','w'), sim('e','w'), rep{sim('e','w')}('e',V0), rep{sim('e','w')}('w',V1), eq(V0,V1).")
    assert subsumes_with_repairs(c, g).covered
    assert subsumes_with_repairs(c, c).covered


def _chain(n):
    return parse_clause("t(V0) :- " + ", ".join(f"r{i}(V{i},V{i + 1})" for i in range(n)) + ".")


def test_a_search_deeper_than_the_recursion_limit_is_a_flagged_non_cover():
    # the search binds one literal per level; past the interpreter's
    # recursion limit it stops like one out of budget, never with a crash
    deep, shallow = _chain(1500), _chain(200)
    assert subsumes_with_repairs(deep, deep, budget=10 ** 8) == subsumption.CoverageVerdict(
        False, budget_exhausted=True)
    verdict = subsumes_with_repairs(shallow, shallow, budget=10 ** 8)
    assert verdict.covered and not verdict.budget_exhausted


def test_side_condition_rejects_missing_repair():
    # d's repair literals touch the mapped region through variables, so a
    # pattern without them cannot claim the region
    c = parse_clause("t(V0) :- r(V1,V2).")
    d = parse_clause(
        "t(V0) :- r(V1,V2), sim(V0,V2), rep{sim(V0,V2)}(V0,V3), rep{sim(V0,V2)}(V2,V4), eq(V3,V4).")
    assert not subsumes_with_repairs(c, d).covered


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


def test_md_part_equals_the_per_literal_reference():
    # one closure from the CFD repair literals drops what one closure per
    # body literal dropped, and returns the clause itself in the same cases
    def relation_and_constraint_literals(clause):
        return sum(not isinstance(lit, logic.RepairLit) for lit in clause.body)

    micro = [c for case in cfd_micro_db_clauses() for triple in case for c in triple]
    rng = random.Random(11)
    drawn = [random_eq_repair_clause(rng) for _ in range(3000)]
    for clauses, floor in ((micro, 10), (drawn, 2500)):
        dropped = 0
        for c in clauses:
            part, ref = md_part(c), reference_md_part(c)
            assert part == ref and (part is c) == (ref is c), print_clause(c)
            dropped += relation_and_constraint_literals(part) < relation_and_constraint_literals(c)
        assert dropped >= floor


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


def test_covers_negative_never_expands_a_repair_free_clause(monkeypatch):
    # such a clause is its own one expansion, already tested as a positive
    calls = []
    real = logic.repaired_clauses
    monkeypatch.setattr(logic, "repaired_clauses", lambda *args: calls.append(args) or real(*args))
    c = parse_clause("t(V0) :- r(V0,V1).")
    assert not covers_negative(c, parse_clause("t('a') :- r('b','c').")).covered
    assert covers_negative(c, parse_clause("t('a') :- r('a','c').")).covered
    assert calls == []


def test_covers_negative_cap_flags():
    body = []
    vid = 20
    for k in range(1, 10):
        a, b = logic.Variable(vid), logic.Variable(vid + 1)
        vid += 2
        body.append(logic.Rel(f"r{k}", (logic.Variable(k),)))
        body.append(logic.Sim(logic.Variable(0), logic.Variable(k)))
        body.append(logic.RepairLit((logic.Sim(logic.Variable(0), logic.Variable(k)),),
                                    logic.Variable(0), a))
        body.append(logic.RepairLit((logic.Sim(logic.Variable(0), logic.Variable(k)),),
                                    logic.Variable(k), b))
        body.append(logic.Eq(a, b))
    c = logic.Clause(logic.Rel("t", (logic.Variable(0),)), tuple(body))
    v = covers_negative(c, parse_clause("t('a') :- r1('a')."), repair_cap=2)
    assert not v.covered and v.budget_exhausted


def test_a_repair_cap_hit_leaves_no_reference_cycle():
    # the RepairCapExceeded kept in a clause's views must not hold the clause
    # through its traceback
    g = parse_clause("t('a') :- r('c'), s('c').")

    def cover_twice():
        h = parse_clause(
            "t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V2), rep{sim(V0,V1)}(V1,V3), "
            "eq(V2,V3), s(V4), sim(V0,V4), rep{sim(V0,V4)}(V0,V5), rep{sim(V0,V4)}(V4,V6), "
            "eq(V5,V6).")
        for _ in range(2):
            v = covers_negative(h, g, repair_cap=1)
            assert not v.covered and v.budget_exhausted

    assert cyclic_garbage(cover_twice) == 0


def _cfd_micro_case_pairs():
    """Per case of cfd_micro_db_clauses: each bottom clause and its drop
    variant against every ground clause of the case."""
    return [(c, g) for case in cfd_micro_db_clauses() for bottom, drop, _ in case
            for c in (bottom, drop) for _, _, g in case]


def test_no_clause_keeps_itself_as_a_coverage_view():
    # a view that is its own clause, or a list of only it, would be a
    # reference cycle through Clause.views
    kept = 0
    for case in cfd_micro_db_clauses(30):
        seen = set()
        todo = []
        for bottom, drop, _ in case:
            for c in (bottom, drop):
                for _, _, g in case:
                    covers_positive(c, g)
                    covers_negative(c, g)
                    todo += [c, g]
        while todo:
            clause = todo.pop()
            if id(clause) in seen:
                continue
            seen.add(id(clause))
            for view in clause.views.values():
                assert view is not clause
                if isinstance(view, list):
                    assert not any(v is clause for v in view)
                    todo += view
                elif isinstance(view, logic.Clause):
                    todo.append(view)
                kept += 1
    assert kept >= 50


def _title_bottom_pairs():
    """On title_database(4, seed, family=2) at seeds 0-5 (similarity
    fan-out, k_m 5): every bottom clause against every ground clause."""
    pairs = []
    for seed in range(6):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, k_m=5, sim_threshold=0.65, sample_size=100, rng_seed=seed)
        grounding = Grounding(db, mds, [], examples, cfg)
        for e in examples:
            bottom = saturation.bottom_clause(e, db, mds, [], grounding.idx, cfg)
            pairs += [(bottom, g) for g in grounding.ground.values()]
    return pairs


@pytest.mark.parametrize("make_pairs, floor", [(_cfd_micro_case_pairs, 200),
                                               (_title_bottom_pairs, 40)],
                         ids=["cfd-micro", "title-fanout"])
def test_a_clause_covering_an_example_as_a_positive_covers_it_as_a_negative(make_pairs, floor):
    # c entailing g means every expansion of c entails it, so some does
    covered, missed = 0, []
    for c, g in make_pairs():
        if covers_positive(c, g).covered:
            covered += 1
            if not covers_negative(c, g).covered:
                missed.append((print_clause(c), print_clause(g)))
    assert covered >= floor
    assert missed == []


def _has_cfd_repair(clause):
    return any(isinstance(l, logic.RepairLit) and l.origin == "cfd" for l in clause.body)


def test_covers_negative_is_sound_on_cfd_carrying_pairs():
    # criterion 6 on clauses with CFD repair literals: a negative cover
    # claims that some repair-free expansion of c entails g
    carrying = covers = carrying_covers = 0
    unsound = []
    for c, g in _cfd_micro_case_pairs():
        cfd = _has_cfd_repair(c) or _has_cfd_repair(g)
        carrying += cfd
        if covers_negative(c, g).covered:
            covers += 1
            carrying_covers += cfd
            if not any(oracle.brute_force_entails(r, g, var_cap=16)
                       for r in logic.repaired_clauses(c)):
                unsound.append((print_clause(c), print_clause(g)))
    assert carrying >= 19 and carrying_covers >= 15 and covers >= 350
    assert unsound == []


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


def test_covers_negative_agrees_with_exhaustive_on_cfd_repairs():
    """On both cfd_micro_dataset variants at n = 4 and 6, each bottom clause
    and four random drop variants of it cover a negative exactly when one of
    their expansions plainly subsumes it. The negatives are the first three
    expansions of every ground clause."""
    rng = random.Random(0)
    checked = with_cfd = with_cfd_covered = 0
    for by_title in (False, True):
        for n in (4, 6):
            db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title, n)
            targets = [r for e in examples
                       for r in logic.repaired_clauses(
                           saturation.ground_bottom_clause(e, db, mds, cfds, idx, cfg))[:3]]
            for e in examples:
                bottom = saturation.bottom_clause(e, db, mds, cfds, idx, cfg)
                for c in [bottom] + [random_drop_variant(bottom, rng, 6) for _ in range(4)]:
                    expansions = logic.repaired_clauses(c)
                    has_cfd = any(isinstance(lit, logic.RepairLit) and lit.origin == "cfd"
                                  for lit in c.body)
                    for g in targets:
                        engine = covers_negative(c, g).covered
                        brute = any(oracle.exhaustive_subsumes(r, g) for r in expansions)
                        assert engine == brute, (print_clause(c), print_clause(g))
                        checked += 1
                        with_cfd += has_cfd
                        with_cfd_covered += has_cfd and engine
    assert checked == 1560 and with_cfd >= 500 and with_cfd_covered >= 100


def test_repair_conditions_match_only_atom_sets_of_one_size():
    # every atom of c's condition has an image in d's, whose third atom is
    # left over: the sets are no bijection
    c = parse_clause("t(V0) :- r(V0,V1), s(V1,V2), rep{eq(V0,V1);neq(V1,V2)}(V1,V3).")
    d = parse_clause("t('a') :- r('a','k'), s('k','x'), "
                     "rep{eq('a','k');neq('k','x');neq('a','x')}('k',V0).")
    assert not subsumes_with_repairs(c, d).covered
    assert subsumes_with_repairs(c, parse_clause(
        "t('a') :- r('a','k'), s('k','x'), rep{eq('a','k');neq('k','x')}('k',V0).")).covered


def test_a_repair_group_of_c_lands_in_one_group_of_d():
    # sim('a','b') and sim('b','a') are two conditions, so two groups of d:
    # c's one group cannot be split across them
    c = parse_clause("t(V0) :- r(V1), sim(V0,V1), rep{sim(V0,V1)}(V0,V3), "
                     "rep{sim(V0,V1)}(V1,V4), eq(V3,V4).")
    d = "t('a') :- r('b'), sim('a','b'), rep{sim('a','b')}('a',V0), rep{%s}('b',V1), eq(V0,V1)."
    assert not subsumes_with_repairs(c, parse_clause(d % "sim('b','a')")).covered
    assert subsumes_with_repairs(c, parse_clause(d % "sim('a','b')")).covered


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
                assert subsumes_with_repairs(a, b).covered == oracle.exhaustive_subsumes(a, b)
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


def _cfd_micro_pairs():
    """On both cfd_micro_dataset variants, every bottom clause and its ARMG
    with every ground clause (each distinct clause once), against every
    ground clause."""
    pairs = []
    for by_title in (False, True):
        db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title)
        grounds = [saturation.ground_bottom_clause(e, db, mds, cfds, idx, cfg) for e in examples]
        clauses = []
        for e in examples:
            bottom = saturation.bottom_clause(e, db, mds, cfds, idx, cfg)
            clauses += [bottom] + [generalization.armg(bottom, g) for g in grounds]
        pairs += [(c, g) for c in dict.fromkeys(clauses) for g in grounds]
    return pairs


def test_covers_positive_agrees_with_the_oracle_on_cfd_repair_literals():
    # clause_pair yields no CFD repair literal; here every ground clause
    # carries CFD repairs on the literals a clause maps onto
    pairs = _cfd_micro_pairs()
    assert all(_has_cfd_repairs(g) for _, g in pairs)
    covered = 0
    for c, g in pairs:
        engine = covers_positive(c, g).covered
        assert engine == oracle.brute_force_entails(c, g), (print_clause(c), print_clause(g))
        covered += engine
    assert covered >= 20


@pytest.mark.xfail(strict=True, reason="stage 2 of covers_positive rejects a clause that a "
                   "CFD-repaired ground clause entails (ROADMAP items 1-2)")
def test_covers_positive_stage_two_failure_is_not_conclusive():
    from dlearn import constraints, store

    schema = store.parse_schema("m(t:text, id:text)\ncountries(id:text, name:text)\nt(v:text)",
                                target="t")
    _, cfds = constraints.parse_constraints("cfd: countries : id -> name : (_ || _)", schema)
    cfg = saturation.SaturationConfig(d=1, sample_size=1, rng_seed=0)
    g = saturation.inject_cfd_repairs(parse_clause(
        "t('a') :- m('a','c1'), countries('c1','USA'), countries('c1','US')."), cfds, cfg)
    c = parse_clause("t(V0) :- countries(V1,V2).")
    assert covers_positive(c, g).covered == oracle.brute_force_entails(c, g)


@pytest.mark.xfail(strict=True, reason="covers_positive demands an image for a repair literal "
                   "that the clause's only expansion drops")
def test_covers_positive_of_a_repair_literal_without_image_is_not_conclusive():
    # on the movie example without constraints no ground clause has a
    # similarity or repair literal, so the clause's only expansion is its
    # bare head: the oracle and covers_negative count it as covering every
    # example, and covers_positive as covering none
    data = os.path.join(os.path.dirname(__file__), "data", "movieexample")
    with open(os.path.join(data, "schema.txt"), encoding="utf-8") as fh:
        schema = store.parse_schema(fh.read(), target="highGrossing")
    db = store.load_csv(schema, os.path.join(data, "data"))
    idx = textsim.SimilarityIndex(entries={})
    cfg = saturation.SaturationConfig(d=3)
    c = parse_clause("highGrossing(V0) :- rep{sim(V0,V1)}(V0,V2).")
    assert [print_clause(r) for r in logic.repaired_clauses(c)] == ["highGrossing(V0)."]
    for title in ("Superbad", "Zoolander", "Orphanage"):
        g = saturation.ground_bottom_clause(store.Example("highGrossing", (title,)), db, [], [],
                                            idx, cfg)
        assert oracle.brute_force_entails(c, g) and covers_negative(c, g).covered
        assert covers_positive(c, g).covered


# ---------------------------------------------------------------------------
# stage 3 of positive coverage against the retired stage 3
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stage_three_pairs():
    """On both cfd_micro_dataset variants at n=4 and n=6: every bottom
    clause, its ARMG with every ground clause and 8 random generalizations
    of it (each distinct clause once), against every ground clause."""
    rng = random.Random(0)
    pairs = []
    for by_title in (False, True):
        for n in (4, 6):
            db, mds, cfds, idx, examples, cfg = cfd_micro_dataset(by_title, n)
            grounds = [saturation.ground_bottom_clause(e, db, mds, cfds, idx, cfg)
                       for e in examples]
            clauses = []
            for e in examples:
                bottom = saturation.bottom_clause(e, db, mds, cfds, idx, cfg)
                clauses += [bottom] + [generalization.armg(bottom, g) for g in grounds]
                clauses += [random_drop_variant(bottom, rng, 6) for _ in range(8)]
            pairs += [(c, g) for c in dict.fromkeys(clauses) for g in grounds]
    return pairs


def _fresh(clause):
    """An equal clause with none of its coverage views built yet."""
    return logic.Clause(clause.head, clause.body)


def _reaches_stage_three(c, g):
    return (not subsumes_with_repairs(c, g).covered
            and subsumes_with_repairs(md_part(c), md_part(g)).covered)


@pytest.fixture
def partial_calls(monkeypatch):
    """The argument tuples of every logic.partial_repairs call."""
    calls = []
    real = logic.partial_repairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(logic, "partial_repairs", counting)
    return calls


def test_covers_positive_equals_the_retired_stage_three(stage_three_pairs, partial_calls):
    proven = full = 0
    for c, g in stage_three_pairs:
        ref = reference_covers_positive(c, g)
        partial_calls.clear()
        new = covers_positive(_fresh(c), _fresh(g))
        expanded = bool(partial_calls)
        assert new == ref, (print_clause(c), print_clause(g))
        for limits in ({"repair_cap": 2}, {"budget": 20}):
            assert (covers_positive(c, g, **limits).covered
                    == reference_covers_positive(c, g, **limits).covered), limits
        # sound on every pair; some pairs that stage 2 rejects are entailed
        # (the stage-2 gap), but stage 3 agrees with the oracle
        entailed = oracle.brute_force_entails(c, g)
        assert entailed or not new.covered, (print_clause(c), print_clause(g))
        if _reaches_stage_three(c, g):
            assert new.covered == entailed, (print_clause(c), print_clause(g))
            proven += not expanded
            full += expanded and new.covered
    assert len(stage_three_pairs) >= 500
    # the one-path test decides most pairs that reach stage 3; some pass it
    # and are accepted by the full stage
    assert proven >= 15 and full >= 1


def test_rejection_proved_by_one_path_expands_nothing_and_is_not_flagged(stage_three_pairs,
                                                                          partial_calls):
    flags_dropped, full = 0, []
    for c, g in stage_three_pairs:
        if not _reaches_stage_three(c, g):
            continue
        ref = reference_covers_positive(_fresh(c), _fresh(g), repair_cap=2)
        partial_calls.clear()
        new = covers_positive(_fresh(c), _fresh(g), repair_cap=2)
        if partial_calls:
            full.append((new, ref))
            continue
        # proved without the cap, so the cap is not reported
        assert new == subsumption.CoverageVerdict(False)
        flags_dropped += ref.budget_exhausted
    assert flags_dropped >= 15
    # a pair that needs the full stage still meets the cap and says so
    assert full and all(new == ref and new.budget_exhausted for new, ref in full)


# ---------------------------------------------------------------------------
# stage 2 of positive coverage only where it can differ from stage 1
# ---------------------------------------------------------------------------

@pytest.fixture
def subsume_calls(monkeypatch):
    """The argument tuples of every subsumes_with_repairs call that
    covers_positive makes."""
    calls = []
    real = subsumption.subsumes_with_repairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subsumption, "subsumes_with_repairs", counting)
    return calls


def test_md_only_rejection_runs_one_search(subsume_calls):
    c = parse_clause("t(V0) :- r(V0,V1), s(V1,'k').")
    g = parse_clause("t('a') :- r('a',V1), r('a','b'), sim('b','c'), "
                     "rep{sim('b','c')}('b',V1), rep{sim('b','c')}('c',V1), s('c','k').")
    assert md_part(c) is c and md_part(g) is g
    verdict = covers_positive(c, g)
    assert verdict == subsumption.CoverageVerdict(False)
    assert len(subsume_calls) == 1
    # a CFD repair literal on either side still runs stage 2
    _, g2 = _locale_pair()
    c2 = parse_clause("hg(V0) :- mov2locale(V0,'French',V1).")
    subsume_calls.clear()
    assert not covers_positive(c2, g2).covered
    assert [args[:2] for args in subsume_calls] == [(c2, g2), (c2, md_part(g2))]


def _title_pairs():
    """On title_database(4, seed, family=2) at seeds 0-2 (MD repairs under
    similarity fan-out, no CFD): every bottom clause and its ARMG with every
    ground clause (each distinct clause once), against every ground clause."""
    pairs = []
    for seed in range(3):
        db, mds, examples = title_database(4, seed, family=2)
        cfg = LearnerConfig(d=2, rng_seed=seed)
        grounding = Grounding(db, mds, [], examples, cfg)
        grounds = list(grounding.ground.values())
        clauses = []
        for e in examples:
            bottom = saturation.bottom_clause(e, db, mds, [], grounding.idx, cfg)
            clauses += [bottom] + [generalization.armg(bottom, g) for g in grounds]
        pairs += [(c, g) for c in dict.fromkeys(clauses) for g in grounds]
    return pairs


def test_covers_positive_equals_the_reference_on_md_only_pairs():
    pairs = _title_pairs()
    assert len(pairs) >= 50
    assert not any(_has_cfd_repairs(c) or _has_cfd_repairs(g) for c, g in pairs)
    rejected = exhausted = 0
    for c, g in pairs:
        for budget in (subsumption.DEFAULT_BUDGET, 1, 2, 5, 20):
            new = covers_positive(_fresh(c), _fresh(g), budget)
            ref = reference_covers_positive(_fresh(c), _fresh(g), budget)
            assert (new.covered, new.budget_exhausted) == (ref.covered, ref.budget_exhausted), (
                budget, print_clause(c), print_clause(g))
            rejected += not new.covered
            exhausted += new.budget_exhausted
    # rejections both within the budget and out of it, and some acceptances
    assert exhausted >= 100 and rejected - exhausted >= 50 and rejected <= 5 * len(pairs) - 20


# ---------------------------------------------------------------------------
# the pruned search against the reference matcher
# ---------------------------------------------------------------------------

def _has_cfd_repairs(clause):
    return any(isinstance(l, logic.RepairLit) and l.origin == "cfd" for l in clause.body)


@pytest.fixture(scope="module")
def differential_pairs():
    """clause_pair pairs, and on each CFD micro database every d=3 bottom
    clause and generalization of it against every ground bottom clause."""
    pairs = []
    for case in cfd_micro_db_clauses():
        for bottom, variant, _ in case:
            for _, _, ground in case:
                pairs += [(bottom, ground), (variant, ground)]
    for seed in range(200):
        rng = random.Random(seed)
        pairs.append(clause_pair(rng, with_cfd=rng.random() < 0.5,
                                 same_example=rng.random() < 0.5))
    return pairs


def test_search_gives_the_reference_verdict_and_witness(differential_pairs):
    # the fan-out title pairs are the shape of the workloads; on every pair
    # the search spends no more than the reference, and less on some
    assert sum(_has_cfd_repairs(c) or _has_cfd_repairs(d) for c, d in differential_pairs) >= 10
    pairs = differential_pairs + _title_pairs()
    covered = cheaper = 0
    for c, d in pairs:
        ref_search = _ReferenceMatcher(c, d, True, subsumption.DEFAULT_BUDGET)
        new_search = subsumption._Matcher(c, d, subsumption.DEFAULT_BUDGET)
        ref, new = ref_search.solve(), new_search.solve()
        assert not ref.budget_exhausted
        assert (new.covered, new.witness, new.budget_exhausted) == (
            ref.covered, ref.witness, False), (print_clause(c), print_clause(d))
        assert new_search.budget >= ref_search.budget, (print_clause(c), print_clause(d))
        covered += new.covered
        cheaper += new_search.budget > ref_search.budget
    assert 0 < covered < len(pairs)
    assert cheaper > 0


def test_search_within_a_budget_spends_no_more_than_the_reference(differential_pairs):
    only_reference_exhausted = 0
    for c, d in differential_pairs:
        for budget in range(1, 51):
            ref = reference_subsumes(c, d, True, budget)
            new = subsumes_with_repairs(c, d, budget)
            if new.budget_exhausted:
                assert ref.budget_exhausted, (budget, print_clause(c), print_clause(d))
            elif ref.budget_exhausted:
                only_reference_exhausted += 1
            else:
                assert (new.covered, new.witness) == (ref.covered, ref.witness)
    assert only_reference_exhausted > 0


@pytest.mark.parametrize("n", [100, 400, 900])
def test_search_charges_a_candidate_list_once_per_binding_that_changes_it(n):
    # the root computes the n lists, one unit each, and each binding
    # recomputes only the one list that shares its new variable
    c = _chain(n)
    verdict = subsumes_with_repairs(c, c, budget=2 * n - 1)
    assert verdict.covered and not verdict.budget_exhausted
    assert subsumes_with_repairs(c, c, budget=2 * n - 2) == subsumption.CoverageVerdict(
        False, budget_exhausted=True)


def test_failed_equality_prunes_before_the_remaining_literals_are_mapped():
    # eq('USA',V6) fails as soon as countries binds V6 to 'Spain'; the
    # reference tries every mapping of the three mov2genres literals first
    c = parse_clause("highGrossing(V0) :- movies(V1,V0,V2), mov2genres(V1,V3), mov2genres(V1,V4), "
                     "mov2genres(V1,V7), mov2countries(V1,V5), countries(V5,V6), eq('USA',V6).")
    genres = ", ".join(f"mov2genres('m3','g{i}')" for i in range(5))
    d = parse_clause(f"highGrossing('Orphanage') :- movies('m3','Orphanage','2007'), {genres}, "
                     "mov2countries('m3','c2'), countries('c2','Spain').")
    assert reference_subsumes(c, d, True, budget=100).budget_exhausted
    assert subsumes_with_repairs(c, d, budget=100) == subsumption.CoverageVerdict(False)
    assert subsumes_with_repairs(c, d) == reference_subsumes(c, d, True)
    assert subsumes_with_repairs(c, d) == subsumption.CoverageVerdict(False)
    usa = parse_clause(print_clause(d).replace("Spain", "USA"))
    assert subsumes_with_repairs(c, usa).covered


def test_match_index_is_built_once_per_clause_object():
    # the parts a search looks up in a clause are built once per Clause
    # object, and a second search against it reuses them
    c = parse_clause("t(V0) :- r(V0,V1), eq(V1,'k').")
    d = parse_clause("t('a') :- r('a','k'), s('k').")
    assert subsumes_with_repairs(c, d).covered
    c_parts, d_parts = dict(vars(c)), dict(vars(d))
    assert {"body_vars", "binders", "constraints"} <= c_parts.keys()
    assert {"closure", "rels"} <= d_parts.keys()
    assert subsumes_with_repairs(c, d).covered
    assert all(vars(c)[k] is v for k, v in c_parts.items())
    assert all(vars(d)[k] is v for k, v in d_parts.items())
    # the parts are not fields: equal clauses stay equal and hash alike
    fresh = parse_clause(print_clause(d))
    assert fresh == d and hash(fresh) == hash(d) and set(vars(fresh)) == {"head", "body"}
