"""Bottom-clause construction over dirty data.

Starting from one example, the collector walks the database for a fixed number
of iterations, pulling in tuples reachable through exact joins on each
relation's leading (key) attribute and through similarity joins on attributes
covered by a matching dependency. Each iteration probes the constants that no
earlier one probed and keeps a fixed-size sample of the new candidate tuples
per relation and attribute, so the clause is an approximation of bounded size.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from . import constraints as cn
from . import logic, store
from .store import Database, Example
from .textsim import SimilarityIndex
from .util import DisjointSet, derive_rng


class SaturationError(Exception):
    pass


@dataclass(frozen=True)
class SaturationConfig:
    """Saturation settings, checked when the config is constructed: every
    field named in `_positive` must be at least 1, else SaturationError."""

    d: int = 4
    sample_size: int = 10
    rng_seed: int = 0
    cfd_fixpoint_cap: int = 16

    _positive = ("d", "sample_size", "cfd_fixpoint_cap")

    def __post_init__(self):
        for name in self._positive:
            if getattr(self, name) < 1:
                raise SaturationError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class RelevantTuple:
    """A gathered tuple and the similarity matches that reached it
    (store.SimSelection, as select_sim returned them), sorted by attribute,
    probe value and matched value; each match once, as each constant is probed once."""

    tuple: store.Tuple
    sims: list[store.SimSelection] = field(default_factory=list)


@dataclass
class RelevantSet:
    tuples: list[RelevantTuple] = field(default_factory=list)
    constants: set = field(default_factory=set)


def naive_sample(candidates: list, sample_size: int, rng: random.Random) -> list:
    """Uniform, order-preserving sample of exactly sample_size candidates
    (everything when there are fewer)."""
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


def collect_relevant(example: Example, db: Database, idx: SimilarityIndex,
                     cfg: SaturationConfig) -> RelevantSet:
    """Gather the tuples reachable from the example in at most d hops,
    probing each constant once: a tuple that an older constant joins was
    gathered, or dropped by sampling, when that constant was probed."""
    rng = derive_rng(cfg.rng_seed, "saturate", example.relation, example.values)
    relevant = RelevantSet(constants=set(example.values))
    gathered: dict[tuple[str, int], RelevantTuple] = {}
    plan = _probe_plan(db, idx)
    probed: set = set()
    for _ in range(cfg.d):
        # only constants new at this hop's start: d bounds the join distance
        frontier, probed = relevant.constants - probed, set(relevant.constants)
        for relation, attribute, use_sim in plan:
            exact = store.select_eq(db, relation, attribute, frontier)
            sims = store.select_sim(db, relation, attribute, frontier, idx) if use_sim else []
            by_tid: dict[int, tuple[store.Tuple, list[store.SimSelection]]] = {}
            for t in exact:
                by_tid.setdefault(t.tid, (t, []))
            for sel in sims:
                by_tid.setdefault(sel.tuple.tid, (sel.tuple, []))[1].append(sel)
            new_candidates = []
            for tid in sorted(by_tid):
                t, provs = by_tid[tid]
                if (relation, tid) in gathered:
                    gathered[(relation, tid)].sims.extend(provs)
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
    """Hands out variables numbered upwards from `start`, one shared
    variable per value on request."""

    def __init__(self, start: int = 0):
        self.next_id = start
        self.by_value: dict[str, logic.Variable] = {}

    def fresh(self) -> logic.Variable:
        v = logic.Variable(self.next_id)
        self.next_id += 1
        return v

    def shared(self, value: str) -> logic.Variable:
        if value not in self.by_value:
            self.by_value[value] = self.fresh()
        return self.by_value[value]


def _occurrence_counts(head: logic.Rel, body) -> Counter:
    """Occurrences of each term among the head and the relation literals of
    `body`."""
    return Counter(chain(head.args, *(lit.args for lit in body if isinstance(lit, logic.Rel))))


def _split(rels: list, i: int, pos: int, alloc: _VarAllocator, counts: Counter) -> logic.Variable:
    """Replace argument `pos` of the relation literal rels[i] by a fresh
    variable, move that occurrence to it in `counts`, and return it."""
    lit = rels[i]
    split = alloc.fresh()
    counts[lit.args[pos]] -= 1
    counts[split] = 1
    rels[i] = logic.Rel(lit.relation, lit.args[:pos] + (split,) + lit.args[pos + 1:])
    return split


def build_bottom_clause(example: Example, relevant: RelevantSet, cfds, schema: store.Schema,
                        cfg: SaturationConfig, variabilize: bool = True) -> logic.Clause:
    """Turn a relevant-tuple set into a clause; with variabilize=False the
    constants are retained (the ground form used as a coverage target)."""
    alloc = _VarAllocator()
    # the example's values and those at a leading position share one variable per value
    shared = {*example.values, *(rt.tuple.values[0] for rt in relevant.tuples)}

    def term_for(value: str, relation: str, pos: int) -> logic.Term:
        if not variabilize:
            return logic.Constant(value)
        if value in shared:
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
    counts = _occurrence_counts(head, rels)

    # one trailing segment per relation literal: induced equalities from
    # splitting plus the similarity/repair group of each match
    # collect the matches to emit: one per value pair (a match may have been
    # discovered from either side), with its resolved left-hand term
    segments: list[list[logic.Literal]] = [[] for _ in rels]
    left_splits: dict[tuple, logic.Term] = {}

    def left_term_for(probe: str, probe_side) -> logic.Term:
        if variabilize and probe in shared:
            return alloc.shared(probe)
        probe_rel, probe_attr = probe_side
        if probe_rel != example.relation:
            # the probe value sits in a stored relation: give its occurrence
            # at the probe's side of the pair its own anchored variable, so
            # the repair targets the occurrence (exact for a single
            # occurrence, value-level beyond that)
            key = (probe_rel, probe_attr, probe)
            if key in left_splits:
                return left_splits[key]
            pos = schema.relation(probe_rel).attr_index(probe_attr)
            homes = [k for k, r in enumerate(rels)
                     if r.relation == probe_rel and r.args[pos] == logic.Constant(probe)]
            if len(homes) == 1:
                split = left_splits[key] = _split(rels, homes[0], pos, alloc, counts)
                segments[homes[0]].append(logic.Eq(logic.Constant(probe), split))
                return split
        return logic.Constant(probe)

    emissions: list[tuple[int, int, logic.Term]] = []
    emitted_pairs: set = set()
    ordered_provs = []
    for li, rt in enumerate(relevant.tuples):
        for prov in rt.sims:
            side = (rt.tuple.relation, prov.attribute)
            forward = prov.pair[1] == side
            ordered_provs.append((0 if forward else 1, li, rt, prov))
    # matches discovered on the right side of their attribute pair (probe at
    # pair[0]) come first; a mirror discovery of the same value pair from the
    # left side (probe at pair[1]) is the same unification and is skipped
    ordered_provs.sort(key=lambda e: e[0])
    for backward, li, rt, prov in ordered_provs:
        if backward and prov.value_pair() in emitted_pairs:
            continue
        emitted_pairs.add(prov.value_pair())
        pos = schema.relation(rt.tuple.relation).attr_index(prov.attribute)
        emissions.append((li, pos, left_term_for(prov.probe_value, prov.pair[backward])))
    emissions.sort(key=lambda e: (e[0], e[1]))
    left_fanout: dict[logic.Term, int] = {}
    for _, _, left in emissions:
        left_fanout[left] = left_fanout.get(left, 0) + 1

    for li, pos, left_term in emissions:
        right_term = rels[li].args[pos]
        # the matched occurrence gets its own term. When the original term
        # occurs elsewhere, or the left value has several matches (so this
        # group may be discarded in favor of a rival and the original value
        # must stay known), the split keeps an induced equality anchor; a
        # constant matched exactly once simply turns into a variable.
        anchored = counts[right_term] > 1 or left_fanout[left_term] > 1
        if anchored or (variabilize and isinstance(right_term, logic.Constant)):
            split = _split(rels, li, pos, alloc, counts)
            if anchored:
                segments[li].append(logic.Eq(right_term, split))
            right_term = split
        # the similarity literal is also the one atom of the group's condition
        cond = (logic.Sim(left_term, right_term),)
        v_left, v_right = alloc.fresh(), alloc.fresh()
        segments[li] += [
            cond[0],
            logic.RepairLit(cond, left_term, v_left),
            logic.RepairLit(cond, right_term, v_right),
            logic.Eq(v_left, v_right),
        ]

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
    directly. Scanning repeats until a round repairs nothing: a violation
    is skipped only when it is handled or shares a literal with one
    repaired in the same round, so such a round leaves none unhandled.

    Each round calls find_cfd_violations once per CFD, and the rounds keep
    what they share up to date instead of rebuilding it (a semi-naive
    fixpoint). A split rewrites one argument of a relation literal in place
    to a fresh variable and appends eq(old term, fresh variable); every
    other appended literal is a repair literal. So each part is exact: the
    equality closure is one union-find that only adds each fresh variable
    to an existing class, never merging two; a split moves one occurrence
    of the head and relation literals' terms to the fresh variable; each
    CFD's relation literals keep their positions. A violation is handled
    when the swap pairs swap its right-hand terms both ways
    (constraints.swapped_both_ways). The finder leaves out those handled at
    the round's start and the round skips those handled since, by that one
    rule, so the finder's cut changes nothing the round does.

    Precondition: each CFD swap rep{cond}(z, t) of the input comes with
    rep{cond}(t, z), as in this function's output (build_bottom_clause passes
    none). So no appended literal is in the body already: an X-cell repair
    takes a fresh variable, and a swap the body held would mark its violation
    handled, and the round would skip it.
    """
    if not cfds or not any(isinstance(l, logic.Rel) for l in clause.body):
        return clause
    state = _SplitBody(clause)
    # the body's CFD swap pairs and each repaired term's alternatives, kept
    # up to date as literals are appended (splits replace relation literals only)
    swaps = {(l.target, l.replacement) for l in state.lits
             if isinstance(l, logic.RepairLit) and l.origin == "cfd"}
    alternatives: dict[logic.Term, list[logic.Term]] = {}
    for lit in state.lits:
        if isinstance(lit, logic.RepairLit):
            alternatives.setdefault(lit.target, []).append(lit.replacement)
    # no appended literal is a relation literal, so each CFD's literals stay
    # where they are
    positions = [cn.cfd_literals(state.lits, cfd) for cfd in cfds]
    for _ in range(cfg.cfd_fixpoint_cap):
        pending = [(cfd, v) for cfd, at in zip(cfds, positions)
                   for v in cn.find_cfd_violations(state.lits, cfd, state.closure, alternatives,
                                                   swaps, at)]
        touched: set[int] = set()
        for cfd, violation in pending:
            # splits mutate literals in place, so a violation that shares a
            # literal with one repaired this round waits for the rescan
            if (cn.swapped_both_ways(*violation.rhs_terms, swaps)
                    or {violation.first, violation.second} & touched):
                continue
            for lit in _repair_one_violation(state, cfd, violation):
                swaps.add((lit.target, lit.replacement))
                alternatives.setdefault(lit.target, []).append(lit.replacement)
                state.lits.append(lit)
            touched.update((violation.first, violation.second))
        if not touched:
            return logic.Clause(clause.head, tuple(state.lits))
    raise SaturationError(f"no repair fixpoint after {cfg.cfd_fixpoint_cap} rounds: a round "
                          "repairs each literal once, so the rounds grow with the literals that "
                          "share a CFD's left-hand values; shrink the bottom clause (--sample-size, "
                          "--d) or, for a key just past the cap, raise cfd_fixpoint_cap (--cfd-cap)")


class _SplitBody:
    """The body that CFD injection splits and extends, with the state its
    rounds share: the next free variable id (every id handed out lands in
    the body), each term's occurrences among the head and relation
    literals, and the equality closure of the eq literals as a union-find."""

    def __init__(self, clause: logic.Clause):
        self.lits = list(clause.body)
        self.alloc = _VarAllocator(logic.fresh_var(clause).id)
        self.counts = _occurrence_counts(clause.head, clause.body)
        self.closure = DisjointSet()
        for lit in self.lits:
            if isinstance(lit, logic.Eq):
                self.closure.union(lit.a, lit.b)


def _split_position(state: _SplitBody, i: int, pos: int, rhs: bool = False) -> logic.Term:
    """The term for the occurrence at argument `pos` of body literal i. When
    its term appears anywhere else among the head and relation literals, the
    occurrence gets its own variable, and an induced equality literal keeps
    the connection. A right-hand term (rhs=True) feeds the swap repairs,
    whose replacement slot must be a variable, so a constant there is split
    unconditionally."""
    body = state.lits
    term = body[i].args[pos]
    if not (rhs and isinstance(term, logic.Constant)) and state.counts[term] <= 1:
        return term
    split = _split(body, i, pos, state.alloc, state.counts)
    body.append(logic.Eq(term, split))
    state.closure.union(term, split)
    return split


def _repair_one_violation(state: _SplitBody, cfd: cn.CFD,
                          violation: cn.CfdViolation) -> list[logic.RepairLit]:
    """The repair literals of one violation, after splitting the shared
    occurrences of its terms in the body."""
    body = state.lits
    i, j = violation.first, violation.second
    z, t = violation.rhs_terms

    # resolve terms per position, splitting shared occurrences of wildcard
    # cells (constant cells get no replacement repair, so no split either);
    # alternative terms (replacement variables) are used as they are
    x_pairs = []
    for k, p in enumerate(cfd.x_positions):
        t1, t2 = violation.x_terms[k]
        if cfd.cells[k] is None:
            if t1 == body[i].args[p]:
                t1 = _split_position(state, i, p)
            if t2 == body[j].args[p]:
                t2 = _split_position(state, j, p)
        x_pairs.append((t1, t2))
    if z == body[i].args[cfd.rhs_position]:
        z = _split_position(state, i, cfd.rhs_position, rhs=True)
    if t == body[j].args[cfd.rhs_position]:
        t = _split_position(state, j, cfd.rhs_position, rhs=True)

    atoms: list[logic.Atom] = []
    for (t1, t2), cell in zip(x_pairs, cfd.cells):
        if t1 != t2:
            atoms.append(logic.Eq(t1, t2))
        if cell is not None:
            const = logic.Constant(cell)
            for side in (t1, t2):
                atom = logic.Eq(side, const)
                if side != const and atom not in atoms:
                    atoms.append(atom)
    atoms.append(logic.Neq(z, t))
    cond = tuple(atoms)

    new_lits: list[logic.RepairLit] = []
    for (t1, t2), cell in zip(x_pairs, cfd.cells):
        if cell is not None:
            continue
        for side in (t1, t2):
            new_lits.append(logic.RepairLit(cond, side, state.alloc.fresh()))
    return new_lits + [logic.RepairLit(cond, z, t), logic.RepairLit(cond, t, z)]


def bottom_clause(example: Example, db: Database, mds, cfds, idx: SimilarityIndex,
                  cfg: SaturationConfig) -> logic.Clause:
    """Variabilized bottom clause for an example (the generalization seed)."""
    relevant = collect_relevant(example, db, idx, cfg)
    return build_bottom_clause(example, relevant, cfds, db.schema, cfg, variabilize=True)


def ground_bottom_clause(example: Example, db: Database, mds, cfds, idx: SimilarityIndex,
                         cfg: SaturationConfig) -> logic.Clause:
    """Bottom clause with constants retained; the target of coverage tests."""
    relevant = collect_relevant(example, db, idx, cfg)
    return build_bottom_clause(example, relevant, cfds, db.schema, cfg, variabilize=False)
