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

    An equality literal with a constant argument pins one value, which other
    examples rarely share. It joins no component and is anchored at its own
    position, after every relation literal, so it is a prefix step of its
    own: a blocking constant drops alone instead of taking the relation
    literal, similarity and repair group of its variable with it.
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
    pinned = {i for i in nonrel if isinstance(body[i], Eq)
              and (isinstance(body[i].a, Constant) or isinstance(body[i].b, Constant))}
    grouped = [i for i in nonrel if i not in pinned]
    floating_home: dict = {}
    for i in grouped:
        for t in logic.literal_terms(body[i]):
            floats = isinstance(t, Variable) and t not in last_rel_pos and t not in head_terms
            if floats or t in linking:
                if t in floating_home:
                    dsu.union(floating_home[t], i)
                else:
                    floating_home[t] = i
            dsu.find(i)
    anchor: dict[int, int] = {i: i for i in pinned}
    for i in grouped:
        root = dsu.find(i)
        pos = max((last_rel_pos.get(t, -1) for t in logic.literal_terms(body[i])), default=-1)
        anchor[root] = max(anchor.get(root, -1), pos)
    return {i: anchor[dsu.find(i)] for i in nonrel}


def find_blocking_literal(ordered: OrderedClause, g: Clause,
                          budget: int = DEFAULT_BUDGET,
                          repair_cap: int = DEFAULT_REPAIR_CAP, covering=None):
    """(index, budget_exhausted) of the first literal whose prefix fails to
    cover g; index None when the whole clause covers.

    The prefix at index i holds the literals that join it by then: a
    relation literal at its own position, any other at its anchor. Only the
    indices where a literal joins start a new prefix, so each distinct
    prefix is tested once. `covering` is a set of prefix bodies (under this
    clause's head) known to cover g: a prefix whose body is in it is not
    tested again, since an equal clause gets an equal verdict, and each
    prefix found to cover is added to it."""
    clause = ordered.clause
    covering = set() if covering is None else covering
    anchors = _component_anchors(clause)
    joins = [j if isinstance(lit, Rel) else anchors[j] for j, lit in enumerate(clause.body)]
    for i in sorted({0, *(j for j in joins if j > 0)}) if joins else ():
        body = tuple(lit for lit, j in zip(clause.body, joins) if j <= i)
        if body in covering:
            continue
        verdict = subsumption.covers_positive(Clause(clause.head, body), g, budget, repair_cap)
        if not verdict.covered:
            return i, verdict.budget_exhausted
        covering.add(body)
    return None, False


def drop_with_repair(ordered: OrderedClause, index: int) -> OrderedClause:
    """Remove the literal at `index`, with its repair group, and everything
    that loses its footing. Each round applies these rules to the literals
    still kept, and the rounds stop when one drops nothing:
    - a term is allowed while it occurs in the head, in a kept relation
      literal or as a kept replacement; a repair literal dies with its whole
      group when a variable of its condition is no longer allowed, when its
      target is not (a constant target only counts the head and relation
      literals), or when a similarity atom of its condition lost its
      similarity literal;
    - an equality or similarity literal over a variable that is no longer
      allowed is dropped;
    - a similarity literal that guards no repair literal left after this
      round's repair deaths is dropped;
    - a literal no longer connected to the head is dropped.
    Each rule drops at least as much from fewer literals, so the order of
    the rules does not matter: the rounds end at the one greatest kept set
    that no rule shrinks."""
    head, body = ordered.clause.head, ordered.clause.body
    groups = ordered.clause.groups
    kept = set(range(len(body))) - groups.get(index, {index})
    while True:
        visible = set(head.args).union(*(body[i].args for i in kept if isinstance(body[i], Rel)))
        allowed = visible | {body[i].replacement for i in kept if isinstance(body[i], RepairLit)}
        sims = {frozenset((body[i].a, body[i].b)) for i in kept if isinstance(body[i], Sim)}
        dead: set = set()
        for i in kept:
            lit = body[i]
            if isinstance(lit, RepairLit):
                pool = visible if isinstance(lit.target, Constant) else allowed
                if (lit.target not in pool
                        or any(isinstance(t, Variable) and t not in allowed
                               for a in lit.cond for t in (a.a, a.b))
                        # a similarity condition whose witnessing literal is
                        # gone can never hold again
                        or any(isinstance(a, Sim) and a.a != a.b
                               and frozenset((a.a, a.b)) not in sims for a in lit.cond)):
                    dead |= groups[i]
            elif isinstance(lit, (Sim, Eq)):
                if any(isinstance(t, Variable) and t not in allowed for t in (lit.a, lit.b)):
                    dead.add(i)
        guarded = {frozenset((a.a, a.b)) for i in kept - dead if isinstance(body[i], RepairLit)
                   for a in body[i].cond if isinstance(a, Sim)}
        dead.update(i for i in kept if isinstance(body[i], Sim)
                    and frozenset((body[i].a, body[i].b)) not in guarded)
        alive = logic.head_reachable(head, ((i, l) for i, l in enumerate(body)
                                            if i in kept and i not in dead))
        if alive == kept:
            break
        kept = alive
    # what is left of an ordered body is in order: positions only break ties
    # within one sort key, and removal keeps the relative order of the rest
    return OrderedClause(Clause(head, tuple(l for i, l in enumerate(body) if i in kept)))


def armg(clause: Clause, g: Clause, budget: int = DEFAULT_BUDGET,
         repair_cap: int = DEFAULT_REPAIR_CAP) -> Clause:
    """Drop blocking literals until the clause covers g's example (or nothing
    is left to drop).

    g keeps the result (Clause.kept) under the clause's head and body, and
    under its own: it is in ARMG literal order (order_clause is idempotent)
    and its last prefix walk against g found no blocking literal, so its
    armg against g is itself. A repeat runs no coverage test and returns the
    clause kept first, with the coverage views it has built. Within one
    call, the prefix walk after each drop skips the prefix bodies that an
    earlier walk found to cover g."""

    def walk() -> Clause:
        ordered = order_clause(clause)
        covering: set = set()
        while ordered.clause.body:
            index, _ = find_blocking_literal(ordered, g, budget, repair_cap, covering)
            if index is None:
                break
            ordered = drop_with_repair(ordered, index)
        return ordered.clause

    out = g.kept(("armg", clause.head, clause.body, budget, repair_cap), walk)
    return g.kept(("armg", out.head, out.body, budget, repair_cap), lambda: out)


@dataclass(frozen=True)
class ClauseStats:
    pos: int
    neg: int
    covered_pos: tuple = ()
    budget_exhausted: bool = False


def score_clause(clause: Clause, positives, neg_gs, budget: int = DEFAULT_BUDGET,
                 repair_cap: int = DEFAULT_REPAIR_CAP, *,
                 beat: int | None = None) -> tuple[int, ClauseStats] | None:
    """(covered positives minus covered negatives, stats) of a clause.

    `positives` pairs each positive's key with its ground bottom clause, and
    the stats keep the keys of the covered ones in order. Every example is
    tested, and the stats record whether any verdict ran out of budget.
    The clause and each ground clause are expanded once, not once per
    example: their coverage views stay with them (Clause.kept).

    With `beat` set, testing stops as soon as the score is known to be at
    most `beat`: after each uncovered positive and each covered negative the
    bound covered + untested positives - covered negatives is checked, and
    None is returned once it is <= beat. A clause that the bound does not
    rule out gets the exact result, as without `beat`, even when its score
    turns out to be <= beat.
    """
    covered, neg, exhausted = [], 0, False
    untested = len(positives)
    for key, g in positives:
        verdict = subsumption.covers_positive(clause, g, budget, repair_cap)
        untested -= 1
        exhausted = exhausted or verdict.budget_exhausted
        if verdict.covered:
            covered.append(key)
        elif beat is not None and len(covered) + untested <= beat:
            return None
    for g in neg_gs:
        verdict = subsumption.covers_negative(clause, g, budget, repair_cap)
        exhausted = exhausted or verdict.budget_exhausted
        if verdict.covered:
            neg += 1
            if beat is not None and len(covered) - neg <= beat:
                return None
    stats = ClauseStats(pos=len(covered), neg=neg, covered_pos=tuple(covered),
                        budget_exhausted=exhausted)
    return len(covered) - neg, stats


def best_scored(candidates, positives, neg_gs, budget: int = DEFAULT_BUDGET,
                repair_cap: int = DEFAULT_REPAIR_CAP) -> tuple[Clause, int, ClauseStats]:
    """(clause, score, stats) of the highest scoring candidate (see
    score_clause); ties go to the clause with fewer body literals, then to
    the lexicographically smaller printed form."""
    scored = [(clause, *score_clause(clause, positives, neg_gs, budget, repair_cap))
              for clause in candidates]
    return min(scored, key=lambda s: (-s[1], len(s[0].body), logic.print_clause(s[0])))
