"""Generalization by dropping blocking literals against a target example.

Clauses are put into a total literal order. The blocking literal is the
earliest one whose prefix already fails to cover the target's ground bottom
clause; it is dropped together with everything that loses its anchoring, and
the scan repeats until the clause covers the target (or collapses to its
head). Prefixes never cut through a repair group: similarity, restriction and
repair literals ride along with the last relation literal that anchors their
variables, keeping every tested prefix well formed.

Generalized candidates are scored by how many positive and negative ground
bottom clauses they cover, and the best one is picked by one ranking key.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import logic, subsumption
from .logic import Clause, Constant, Eq, Rel, RepairLit, Sim, Variable
from .subsumption import DEFAULT_BUDGET, DEFAULT_REPAIR_CAP
from .util import DisjointSet


@dataclass(frozen=True)
class OrderedClause:
    clause: Clause


def _literal_key(lit, position: int):
    if isinstance(lit, Rel):
        return (0, lit.relation, position)
    if isinstance(lit, Sim):
        return (1, "sim", position)
    if isinstance(lit, Eq):
        return (2, "eq", position)
    key = lit.origin + "|" + ";".join(
        type(a).__name__ + logic.print_term(a.a) + logic.print_term(a.b) for a in lit.cond
    ) + "|" + logic.print_term(lit.target) + logic.print_term(lit.replacement)
    return (3, key, position)


def order_clause(clause: Clause) -> OrderedClause:
    body = [lit for _, lit in sorted(
        ((_literal_key(lit, i), lit) for i, lit in enumerate(clause.body)), key=lambda p: p[0]
    )]
    return OrderedClause(Clause(clause.head, tuple(body)))


def _component_anchors(clause: Clause):
    """Assign every non-relation body literal the position of the last
    relation literal anchoring its component.

    Two kinds of terms tie non-relation literals into one component:
    variables occurring in no relation literal and not in the head (fresh
    replacement variables and their restrictions), and the targets of repair
    literals (so induced equality anchors travel with the repair group of the
    occurrence they describe). The component becomes available once all the
    relation literals its grounded variables live in are available.
    """
    body = clause.body
    head_terms = set(clause.head.args)
    last_rel_pos: dict = {}
    for i, lit in enumerate(body):
        if isinstance(lit, Rel):
            for t in lit.args:
                last_rel_pos[t] = i
    linking: set = set()
    for lit in body:
        if isinstance(lit, RepairLit):
            linking.add(lit.target)
            linking.add(lit.replacement)
    # a head term is carried by every prefix already and must not merge the
    # repair groups that all touch the example's own value
    linking -= head_terms
    dsu = DisjointSet()
    nonrel = [i for i, lit in enumerate(body) if not isinstance(lit, Rel)]
    floating_home: dict = {}
    for i in nonrel:
        for t in logic.literal_terms(body[i]):
            floats = isinstance(t, Variable) and t not in last_rel_pos and t not in head_terms
            if floats or t in linking:
                if t in floating_home:
                    dsu.union(floating_home[t], i)
                else:
                    floating_home[t] = i
            dsu.find(i)
    anchor: dict[int, int] = {}
    for i in nonrel:
        root = dsu.find(i)
        pos = max((last_rel_pos.get(t, -1) for t in logic.literal_terms(body[i])), default=-1)
        anchor[root] = max(anchor.get(root, -1), pos)
    return {i: anchor[dsu.find(i)] for i in nonrel}


def _prefix(clause: Clause, anchors, i: int) -> Clause:
    body = []
    for j, lit in enumerate(clause.body):
        if isinstance(lit, Rel):
            if j <= i:
                body.append(lit)
        elif anchors[j] <= i:
            body.append(lit)
    return Clause(clause.head, tuple(body))


def find_blocking_literal(ordered: OrderedClause, g: Clause,
                          budget: int = DEFAULT_BUDGET,
                          repair_cap: int = DEFAULT_REPAIR_CAP):
    """(index, budget_exhausted) of the first literal whose prefix fails to
    cover g; index None when the whole clause covers."""
    clause = ordered.clause
    anchors = _component_anchors(clause)
    previous: Clause | None = None
    for i in range(len(clause.body)):
        prefix = _prefix(clause, anchors, i)
        if previous is not None and prefix.body == previous.body:
            continue
        previous = prefix
        verdict = subsumption.covers_positive(prefix, g, budget, repair_cap)
        if not verdict.covered:
            return i, verdict.budget_exhausted
    return None, False


def drop_with_repair(ordered: OrderedClause, index: int) -> OrderedClause:
    """Remove the literal at `index` and everything that loses its footing:
    partner literals of the same repair group, repair literals whose target or
    condition variables vanished from the head and relation literals,
    restriction and induced equality literals over vanished variables, and
    finally any literal no longer connected to the head."""
    body = list(ordered.clause.body)
    head = ordered.clause.head
    removed = {index}
    seed = body[index]
    if isinstance(seed, RepairLit):
        removed.update(i for i, l in enumerate(body)
                       if isinstance(l, RepairLit) and logic.same_group(l, seed))
    while True:
        before = set(removed)
        remaining = [i for i in range(len(body)) if i not in removed]
        visible: set = set(head.args)
        for i in remaining:
            if isinstance(body[i], Rel):
                visible.update(body[i].args)
        replacements = {body[i].replacement for i in remaining if isinstance(body[i], RepairLit)}
        allowed = visible | replacements
        sims = {frozenset((l.a, l.b)) for l in (body[i] for i in remaining) if isinstance(l, Sim)}
        for i in remaining:
            lit = body[i]
            if isinstance(lit, RepairLit):
                cond_vars = [t for a in lit.cond for t in (a.a, a.b)]
                pool = visible if isinstance(lit.target, Constant) else allowed
                dead = lit.target not in pool or any(
                    isinstance(t, Variable) and t not in allowed for t in cond_vars
                )
                # a similarity condition whose witnessing literal is gone can
                # never hold again, so the repair group it guards is dead
                dead = dead or any(
                    isinstance(a, logic.SimAtom) and a.a != a.b
                    and frozenset((a.a, a.b)) not in sims
                    for a in lit.cond
                )
                if dead:
                    removed.add(i)
                    removed.update(j for j in remaining
                                   if isinstance(body[j], RepairLit)
                                   and logic.same_group(body[j], lit))
            elif isinstance(lit, (Sim, Eq)):
                if any(isinstance(t, Variable) and t not in allowed for t in (lit.a, lit.b)):
                    removed.add(i)
        # similarity literals travel with their repair group: one without a
        # guarded group left is dropped too
        guarded = {
            frozenset((a.a, a.b))
            for j in remaining if j not in removed and isinstance(body[j], RepairLit)
            for a in body[j].cond if isinstance(a, logic.SimAtom)
        }
        for i in remaining:
            lit = body[i]
            if i not in removed and isinstance(lit, Sim) and frozenset((lit.a, lit.b)) not in guarded:
                removed.add(i)
        # connectivity pass over what is left
        keep = [i for i in range(len(body)) if i not in removed]
        connected_terms = set(head.args)
        connected: set[int] = set()
        changed = True
        while changed:
            changed = False
            for i in keep:
                if i in connected:
                    continue
                terms = set(logic.literal_terms(body[i]))
                if terms & connected_terms:
                    connected.add(i)
                    connected_terms |= terms
                    changed = True
        removed.update(i for i in keep if i not in connected)
        if removed == before:
            break
    pruned = Clause(head, tuple(body[i] for i in range(len(body)) if i not in removed))
    return order_clause(pruned)


def armg(clause: Clause, g: Clause, budget: int = DEFAULT_BUDGET,
         repair_cap: int = DEFAULT_REPAIR_CAP) -> Clause:
    """Drop blocking literals until the clause covers g's example (or nothing
    is left to drop)."""
    ordered = order_clause(clause)
    while ordered.clause.body:
        index, _ = find_blocking_literal(ordered, g, budget, repair_cap)
        if index is None:
            return ordered.clause
        ordered = drop_with_repair(ordered, index)
    return ordered.clause


@dataclass(frozen=True)
class ClauseStats:
    pos: int
    neg: int
    covered_pos: tuple = ()
    budget_exhausted: bool = False


def score_clause(clause: Clause, positives, neg_gs, budget: int = DEFAULT_BUDGET,
                 repair_cap: int = DEFAULT_REPAIR_CAP) -> tuple[int, ClauseStats]:
    """(covered positives minus covered negatives, stats) of a clause.

    `positives` pairs each positive's key with its ground bottom clause, and
    the stats keep the keys of the covered ones in order. Every example is
    tested, and the stats record whether any verdict ran out of budget.
    """
    covered, neg, exhausted = [], 0, False
    for key, g in positives:
        verdict = subsumption.covers_positive(clause, g, budget, repair_cap)
        exhausted = exhausted or verdict.budget_exhausted
        if verdict.covered:
            covered.append(key)
    for g in neg_gs:
        verdict = subsumption.covers_negative(clause, g, budget, repair_cap)
        exhausted = exhausted or verdict.budget_exhausted
        neg += verdict.covered
    stats = ClauseStats(pos=len(covered), neg=neg, covered_pos=tuple(covered),
                        budget_exhausted=exhausted)
    return len(covered) - neg, stats


def best_scored(candidates, positives, neg_gs, budget: int = DEFAULT_BUDGET,
                repair_cap: int = DEFAULT_REPAIR_CAP) -> tuple[Clause, int, ClauseStats]:
    """(clause, score, stats) of the highest scoring candidate (see
    score_clause); ties go to the clause with fewer body literals, then to
    the lexicographically smaller printed form."""
    if not candidates:
        raise ValueError("no candidate clauses")
    scored = [(clause, *score_clause(clause, positives, neg_gs, budget, repair_cap))
              for clause in candidates]
    return min(scored, key=lambda s: (-s[1], len(s[0].body), logic.print_clause(s[0])))


def best_candidate(candidates, pos_gs, neg_gs, budget: int = DEFAULT_BUDGET,
                   repair_cap: int = DEFAULT_REPAIR_CAP):
    """(clause, score, covered positive count, covered negative count) of
    the best candidate over plain lists of ground bottom clauses."""
    clause, score, stats = best_scored(candidates, list(enumerate(pos_gs)), neg_gs,
                                       budget, repair_cap)
    return clause, score, stats.pos, stats.neg
