"""Bottom-clause construction over dirty data.

Starting from one example, the collector walks the database for a fixed
number of iterations, pulling in tuples reachable through exact joins on each
relation's leading (key) attribute and through similarity joins on attributes
covered by a matching dependency. Per relation, attribute and iteration the
candidate tuples are down-sampled to a fixed size, so the resulting clause is
an approximation whose size is controlled.

The clause builder then turns the gathered tuples into literals. Values are
variabilized by role: example values and values seen at a leading position
share one variable per value, integer-domain values become a fresh variable
per occurrence, and remaining text values stay as constants, except that each
similarity-matched occurrence gets a variable of its own, anchored back to
the original term by an induced equality when that value stays visible
elsewhere or competes with a rival match. Each similarity match contributes a
similarity literal, a pair of repair literals that stand for unifying the two
values, and a restriction equality literal tying the two replacements
together. Violations of the conditional functional dependencies (including
violations only reachable after earlier repairs) are given repair literals
until a fixpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import constraints as cn
from . import logic, store
from .store import Database, Example
from .textsim import SimilarityIndex
from .util import derive_rng


class SaturationError(Exception):
    pass


@dataclass(frozen=True)
class SaturationConfig:
    d: int = 4
    sample_size: int = 10
    rng_seed: int = 0
    cfd_fixpoint_cap: int = 16

    def __post_init__(self):
        if self.d < 1 or self.sample_size < 1 or self.cfd_fixpoint_cap < 1:
            raise SaturationError("d, sample_size and cfd_fixpoint_cap must be positive")


@dataclass(frozen=True)
class SimProvenance:
    """One value-level similarity match that pulled a tuple in."""

    probe_value: str
    matched_value: str
    attribute: str
    score: float
    pair: tuple = ()

    def value_pair(self):
        return (self.pair, frozenset((self.probe_value, self.matched_value)))


@dataclass
class RelevantTuple:
    tuple: store.Tuple
    sims: list[SimProvenance] = field(default_factory=list)


@dataclass
class RelevantSet:
    example: Example
    tuples: list[RelevantTuple] = field(default_factory=list)
    constants: set = field(default_factory=set)


def naive_sample(candidates: list, sample_size: int, rng: random.Random) -> list:
    """Uniform, order-preserving sample of exactly sample_size candidates
    (everything when there are fewer)."""
    if sample_size < 1:
        raise SaturationError("sample_size must be positive")
    if len(candidates) <= sample_size:
        return list(candidates)
    picked = sorted(rng.sample(range(len(candidates)), sample_size))
    return [candidates[i] for i in picked]


def _probe_plan(db: Database, idx: SimilarityIndex):
    """(relation, attribute, use_sim) probes: the leading attribute of every
    stored relation joins exactly; attributes covered by a matching
    dependency join both exactly and by similarity."""
    plan = []
    for rel in db.schema.stored_relations:
        for pos, attr in enumerate(rel.attributes):
            use_sim = idx.covers(rel.name, attr.name)
            if pos == 0 or use_sim:
                plan.append((rel.name, attr.name, use_sim))
    return plan


def collect_relevant(example: Example, db: Database, mds, idx: SimilarityIndex,
                     cfg: SaturationConfig) -> RelevantSet:
    """Gather the tuples reachable from the example in at most d hops."""
    rng = derive_rng(cfg.rng_seed, "saturate", example.relation, example.values)
    relevant = RelevantSet(example=example, constants=set(example.values))
    gathered: dict[tuple[str, int], RelevantTuple] = {}
    plan = _probe_plan(db, idx)
    for _ in range(cfg.d):
        # probe with the constants known at the start of the iteration, so d
        # bounds the join distance from the example
        frontier = set(relevant.constants)
        for relation, attribute, use_sim in plan:
            exact = store.select_eq(db, relation, attribute, frontier)
            sims = store.select_sim(db, relation, attribute, frontier, idx) if use_sim else []
            by_tid: dict[int, tuple[store.Tuple, list[SimProvenance]]] = {}
            for t in exact:
                by_tid.setdefault(t.tid, (t, []))
            for sel in sims:
                entry = by_tid.setdefault(sel.tuple.tid, (sel.tuple, []))
                entry[1].append(SimProvenance(sel.probe_value, sel.matched_value, attribute,
                                              sel.score, sel.pair))
            new_candidates = []
            for tid in sorted(by_tid):
                t, provs = by_tid[tid]
                key = (relation, tid)
                if key in gathered:
                    known = gathered[key].sims
                    for p in provs:
                        if p not in known:
                            known.append(p)
                else:
                    new_candidates.append((t, provs))
            for t, provs in naive_sample(new_candidates, cfg.sample_size, rng):
                rt = RelevantTuple(tuple=t, sims=list(provs))
                gathered[(relation, t.tid)] = rt
                relevant.tuples.append(rt)
                relevant.constants.update(t.values)
    for rt in relevant.tuples:
        rt.sims.sort(key=lambda p: (p.attribute, p.probe_value, p.matched_value))
    return relevant


class _VarAllocator:
    def __init__(self):
        self.next_id = 0
        self.by_value: dict[str, logic.Variable] = {}

    def fresh(self) -> logic.Variable:
        v = logic.Variable(self.next_id)
        self.next_id += 1
        return v

    def shared(self, value: str) -> logic.Variable:
        if value not in self.by_value:
            self.by_value[value] = self.fresh()
        return self.by_value[value]


def _occurrences(head: logic.Rel, rels: list[logic.Rel], term) -> int:
    n = sum(1 for t in head.args if t == term)
    for lit in rels:
        n += sum(1 for t in lit.args if t == term)
    return n


def build_bottom_clause(example: Example, relevant: RelevantSet, cfds, schema: store.Schema,
                        cfg: SaturationConfig, variabilize: bool = True) -> logic.Clause:
    """Turn a relevant-tuple set into a clause; with variabilize=False the
    constants are retained (the ground form used as a coverage target)."""
    alloc = _VarAllocator()
    key_values = {rt.tuple.values[0] for rt in relevant.tuples}
    head_values = set(example.values)

    def term_for(value: str, relation: str, pos: int) -> logic.Term:
        if not variabilize:
            return logic.Constant(value)
        if value in head_values or value in key_values:
            return alloc.shared(value)
        if schema.relation(relation).attributes[pos].domain == "integer":
            return alloc.fresh()
        return logic.Constant(value)

    head = logic.Rel(example.relation,
                     tuple(term_for(v, example.relation, i) for i, v in enumerate(example.values)))
    rels: list[logic.Rel] = []
    for rt in relevant.tuples:
        rels.append(logic.Rel(rt.tuple.relation,
                              tuple(term_for(v, rt.tuple.relation, i)
                                    for i, v in enumerate(rt.tuple.values))))

    # one trailing segment per relation literal: induced equalities from
    # splitting plus the similarity/repair group of each match
    # collect the matches to emit: one per value pair (a match may have been
    # discovered from either side), with its resolved left-hand term
    segments: list[list[logic.Literal]] = [[] for _ in rels]
    left_splits: dict[tuple, logic.Term] = {}

    def left_term_for(probe: str, pair) -> logic.Term:
        if variabilize and probe in head_values | key_values:
            return alloc.shared(probe)
        left_rel, left_attr = pair[0] if pair else (None, None)
        if left_rel is not None and left_rel != example.relation:
            # the probe value sits in a stored relation: give its occurrence
            # at the pair's left attribute its own anchored variable, so the
            # repair targets the occurrence (exact for a single occurrence,
            # value-level beyond that)
            key = (left_rel, left_attr, probe)
            if key in left_splits:
                return left_splits[key]
            pos = schema.relation(left_rel).attr_index(left_attr)
            homes = [k for k, r in enumerate(rels)
                     if r.relation == left_rel and r.args[pos] == logic.Constant(probe)]
            if len(homes) == 1:
                split = alloc.fresh()
                li2 = homes[0]
                segments[li2].append(logic.Eq(logic.Constant(probe), split))
                args = list(rels[li2].args)
                args[pos] = split
                rels[li2] = logic.Rel(rels[li2].relation, tuple(args))
                left_splits[key] = split
                return split
        return logic.Constant(probe)

    emissions: list[tuple[int, int, logic.Term]] = []
    emitted_pairs: set = set()
    ordered_provs = []
    for li, rt in enumerate(relevant.tuples):
        for prov in rt.sims:
            side = (rt.tuple.relation, prov.attribute)
            forward = prov.pair and prov.pair[1] == side
            ordered_provs.append((0 if forward else 1, li, rt, prov))
    # matches discovered on the right side of their attribute pair come
    # first; a mirror discovery of the same value pair from the left side
    # describes the same unification and is skipped
    ordered_provs.sort(key=lambda e: e[0])
    for backward, li, rt, prov in ordered_provs:
        if backward and prov.value_pair() in emitted_pairs:
            continue
        emitted_pairs.add(prov.value_pair())
        pos = schema.relation(rt.tuple.relation).attr_index(prov.attribute)
        emissions.append((li, pos, left_term_for(prov.probe_value, prov.pair)))
    emissions.sort(key=lambda e: (e[0], e[1]))
    left_fanout: dict[logic.Term, int] = {}
    for _, _, left in emissions:
        left_fanout[left] = left_fanout.get(left, 0) + 1

    group_id = 0
    for li, pos, left_term in emissions:
        right_term = rels[li].args[pos]
        # the matched occurrence gets its own term. When the original term
        # occurs elsewhere, or the left value has several matches (so this
        # group may be discarded in favor of a rival and the original value
        # must stay known), the split keeps an induced equality anchor; a
        # constant matched exactly once simply turns into a variable.
        anchored = _occurrences(head, rels, right_term) > 1 or left_fanout[left_term] > 1
        if anchored or (variabilize and isinstance(right_term, logic.Constant)):
            split = alloc.fresh()
            if anchored:
                segments[li].append(logic.Eq(right_term, split))
            args = list(rels[li].args)
            args[pos] = split
            rels[li] = logic.Rel(rels[li].relation, tuple(args))
            right_term = split
        cond = (logic.SimAtom(left_term, right_term),)
        v_left, v_right = alloc.fresh(), alloc.fresh()
        segments[li] += [
            logic.Sim(left_term, right_term),
            logic.RepairLit(cond, left_term, v_left, origin="md", group=group_id),
            logic.RepairLit(cond, right_term, v_right, origin="md", group=group_id),
            logic.Eq(v_left, v_right),
        ]
        group_id += 1

    body: list[logic.Literal] = []
    for li, rel_lit in enumerate(rels):
        body.append(rel_lit)
        body.extend(segments[li])
    clause = logic.Clause(head, tuple(body))
    return inject_cfd_repairs(clause, cfds, cfg)


def inject_cfd_repairs(clause: logic.Clause, cfds, cfg: SaturationConfig) -> logic.Clause:
    """Add repair literals for every violation of the given dependencies.

    Each violating literal pair gets, under the condition that its X terms
    are equal (and match the pattern) while the right-hand terms differ:
    replacement repairs for the wildcard X positions on both sides, and the
    two right-hand swaps that equalize the differing values in either
    direction. Violations that only arise after some repair fired are found
    by treating every repair literal's replacement as an alternative value of
    its target, and their repairs reference those replacement variables
    directly. Scanning repeats until no unhandled violation remains.
    """
    if not cfds or not any(isinstance(l, logic.Rel) for l in clause.body):
        return clause
    head = clause.head
    body = list(clause.body)
    for _ in range(cfg.cfd_fixpoint_cap):
        closure = logic.EqClosure(body)
        alternatives: dict[logic.Term, list[logic.Term]] = {}
        for lit in body:
            if isinstance(lit, logic.RepairLit):
                alternatives.setdefault(lit.target, []).append(lit.replacement)
        pending = []
        for cfd in cfds:
            for v in cn.find_cfd_violations(body, cfd, closure, alternatives):
                pending.append((cfd, v))
        emitted = False
        deferred = False
        touched: set[int] = set()
        for cfd, violation in pending:
            # splits mutate literals in place, so violations that share a
            # literal with one already handled this round wait for the rescan
            if {violation.first, violation.second} & touched:
                deferred = True
                continue
            if _repair_one_violation(head, body, cfd, violation):
                emitted = True
                touched.update((violation.first, violation.second))
        if not emitted and not deferred:
            return logic.Clause(head, tuple(body))
    raise SaturationError(
        f"no repair fixpoint after {cfg.cfd_fixpoint_cap} rounds; the dependency set looks inconsistent"
    )


def _split_position(head, body, lit_index: int, pos: int, alloc_counter: list[int]) -> logic.Term:
    """Give the occurrence at (lit_index, pos) its own variable when its term
    appears anywhere else among the head and relation literals; an induced
    equality literal keeps the connection."""
    lit = body[lit_index]
    term = lit.args[pos]
    rel_lits = [head] + [b for b in body if isinstance(b, logic.Rel)]
    occurrences = sum(sum(1 for t in l.args if t == term) for l in rel_lits)
    if occurrences <= 1:
        return term
    fresh = logic.Variable(alloc_counter[0])
    alloc_counter[0] += 1
    args = list(lit.args)
    args[pos] = fresh
    body[lit_index] = logic.Rel(lit.relation, tuple(args))
    body.append(logic.Eq(term, fresh))
    return fresh


def _repair_one_violation(head, body, cfd: cn.CFD, violation: cn.CfdViolation) -> bool:
    counter = [logic.fresh_var(logic.Clause(head, tuple(body))).id]
    i, j = violation.first, violation.second
    z, t = violation.rhs_terms

    # a swap pair over these right-hand terms (in either orientation) means
    # the violation, or an equivalent alternative-choice view of it, is done
    def has_swap(a, b):
        return any(isinstance(l, logic.RepairLit) and l.origin == "cfd"
                   and l.target == a and l.replacement == b for l in body)

    if has_swap(z, t) and has_swap(t, z):
        return False

    # resolve terms per position, splitting shared occurrences of wildcard
    # cells (constant cells get no replacement repair, so no split either);
    # alternative terms (replacement variables) are used as they are
    x_pairs = []
    for k, p in enumerate(cfd.x_positions):
        t1, t2 = violation.x_terms[k]
        if cfd.pattern.cells[k] is None:
            if t1 == body[i].args[p]:
                t1 = _split_position(head, body, i, p, counter)
            if t2 == body[j].args[p]:
                t2 = _split_position(head, body, j, p, counter)
        x_pairs.append((t1, t2))
    if z == body[i].args[cfd.rhs_position]:
        z = _maybe_split_rhs(head, body, i, cfd.rhs_position, counter)
    if t == body[j].args[cfd.rhs_position]:
        t = _maybe_split_rhs(head, body, j, cfd.rhs_position, counter)

    atoms: list[logic.Atom] = []
    for (t1, t2), cell in zip(x_pairs, cfd.pattern.cells):
        if t1 != t2:
            atoms.append(logic.EqAtom(t1, t2))
        if cell is not None:
            const = logic.Constant(cell)
            for side in (t1, t2):
                atom = logic.EqAtom(side, const)
                if side != const and atom not in atoms:
                    atoms.append(atom)
    atoms.append(logic.NeqAtom(z, t))
    cond = tuple(atoms)

    new_lits: list[logic.Literal] = []
    for (t1, t2), cell in zip(x_pairs, cfd.pattern.cells):
        if cell is not None:
            continue
        for side in (t1, t2):
            fresh = logic.Variable(counter[0])
            counter[0] += 1
            new_lits.append(logic.RepairLit(cond, side, fresh, origin="cfd"))
    new_lits += [logic.RepairLit(cond, z, t, origin="cfd"),
                 logic.RepairLit(cond, t, z, origin="cfd")]
    body.extend(l for l in new_lits if l not in body)
    return True


def _maybe_split_rhs(head, body, lit_index: int, pos: int, counter: list[int]) -> logic.Term:
    """Right-hand terms feed the swap repairs, whose replacement slot must be
    a variable; constants are split unconditionally."""
    lit = body[lit_index]
    term = lit.args[pos]
    if isinstance(term, logic.Constant):
        fresh = logic.Variable(counter[0])
        counter[0] += 1
        args = list(lit.args)
        args[pos] = fresh
        body[lit_index] = logic.Rel(lit.relation, tuple(args))
        body.append(logic.Eq(term, fresh))
        return fresh
    return _split_position(head, body, lit_index, pos, counter)


def bottom_clause(example: Example, db: Database, mds, cfds, idx: SimilarityIndex,
                  cfg: SaturationConfig) -> logic.Clause:
    """Variabilized bottom clause for an example (the generalization seed)."""
    relevant = collect_relevant(example, db, mds, idx, cfg)
    return build_bottom_clause(example, relevant, cfds, db.schema, cfg, variabilize=True)


def ground_bottom_clause(example: Example, db: Database, mds, cfds, idx: SimilarityIndex,
                         cfg: SaturationConfig) -> logic.Clause:
    """Bottom clause with constants retained; the target of coverage tests."""
    relevant = collect_relevant(example, db, mds, idx, cfg)
    return build_bottom_clause(example, relevant, cfds, db.schema, cfg, variabilize=False)
