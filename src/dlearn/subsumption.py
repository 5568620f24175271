"""Theta-subsumption for clauses with repair literals, and the positive and
negative coverage procedures built on it.

A clause C subsumes D when some substitution maps C's head onto D's head and
every body literal of C onto D: relation literals map onto relation literals,
equality literals are checked against D's equality closure, similarity
literals against D's similarity literals (or reflexively, since two equal
values are trivially similar), and repair literals map onto repair literals
with the same origin, target, replacement and condition. On top of the plain
mapping, every repair literal of D that is connected to a mapped literal must
itself be mapped; this is what makes the test sound as a proxy for entailment
between the repair-free expansions of the two clauses. Those repair literals
come from one closure, logic.reachable over D's Clause.repair_links: the
closure that also keeps a clause connected to its head, and that md_part
seeds with the CFD repair literals.

The search (_Matcher) prunes and reuses work without changing a verdict or a
witness of the unpruned search; its docstring states how, and what its budget
counts. Like the parts the search looks up in a clause (Clause.closure,
Clause.rels and the rest), the clauses that the coverage tests derive from a
clause (md_part, logic.first_partial_repair, logic.partial_repairs,
logic.repaired_clauses) are built once per Clause object and kept in
Clause.views, never the clause itself (_view). A ground clause also keeps
there the ARMG results computed against it, so a repeated
generalization.armg runs no coverage test. covers_positive's docstring
states when its stages 2 and 3 run and why the stage-3 shortcut is exact.

Coverage is sound: when subsumes_with_repairs or covers_positive reports
that c covers g, c entails g (oracle.brute_force_entails), and when
covers_negative does, some repair-free expansion of c entails g; it starts
from covers_positive, so a positive cover is a negative one too. It is not
complete, and three gaps are known: stage 2 of covers_positive can reject a
clause that g entails, covers_negative misses a negative covered only
through its own repairs that c does not match structurally (see their
docstrings), and covers_positive demands an image in g for every repair
literal of c, also for one whose condition no expansion of c can meet
(README, "What coverage guarantees").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import logic
from .logic import DEFAULT_REPAIR_CAP, Clause, Constant, Eq, Rel, RepairLit, Sim, Variable

DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class CoverageVerdict:
    covered: bool
    witness: dict | None = None
    budget_exhausted: bool = False


class _OutOfBudget(Exception):
    pass


class _Matcher:
    """One search for a substitution theta mapping clause c into clause d.

    The search binds c's relation and repair literals one at a time, always
    the one with the fewest candidate images under the current theta (the
    first such literal on ties), and backtracks over its candidates in d's
    body order. It prunes and reuses work without changing which theta it
    returns:

    - Forward checking. An equality or similarity literal of c is checked as
      soon as both of its terms are bound: after the head unification and
      after each candidate binding. A failed check cuts the branch. Only the
      still-unbound constraints go down the search, and the leaf enumerates
      their free variables over d's terms.
    - Candidate reuse. A literal's candidates are binding deltas, the new
      bindings only; theta is copied only for the chosen literal's
      candidates. Each unbound literal's list goes down the search and is
      recomputed, in body order up to the first empty one, only when a new
      binding touches the literal's variables, which is all it depends on.
    - Per-clause parts. d's equality closure, relation buckets, repair and
      similarity lists, repair links and groups and term list, and c's
      per-literal variable tuples and repair groups, are cached properties
      of the Clause: built once per Clause object, kept as long as it
      lives, and shared by every search against it.
    - Leaf checks. A leaf checks only what the mapping decides: the
      connected-repair side condition (logic.reachable from the mapped
      region over d's repair_links) and the group condition. The
      pinned-constant rule depends on c and d alone and is decided once.

    The budget counts candidate unifications tried (one per d literal
    examined as an image, one per condition-atom pairing, one per leaf
    assignment of a free constraint variable), and a list is charged only
    when it is computed. At every node the search charges a subset of what
    the unpruned search (tests/helpers._ReferenceMatcher) charges there, so
    it never spends more: it can only finish within a budget that the
    unpruned search exhausts. A chain of n literals against itself costs
    2n - 1. A search that binds more literals than the interpreter's
    recursion limit allows ends like one that runs out of budget: a
    non-cover flagged budget_exhausted.
    """

    def __init__(self, c: Clause, d: Clause, budget: int):
        self.c = c
        self.d = d
        self.budget = budget

    # -- unification ------------------------------------------------------

    def _charge(self, n):
        self.budget -= n
        if self.budget < 0:
            raise _OutOfBudget

    def _bind(self, ct, dt, theta, delta):
        """`delta` extended so that theta plus delta maps ct to dt (a new
        dict when a binding is added), or None."""
        if isinstance(ct, Constant):
            return delta if ct == dt else None
        bound = theta.get(ct)
        if bound is None:
            bound = delta.get(ct)
        if bound is None:
            out = dict(delta)
            out[ct] = dt
            return out
        return delta if bound == dt else None

    def _match_conditions(self, c_atoms, d_atoms, theta, delta):
        """Bijections between condition atom sets under theta plus delta
        (atoms are symmetric in their two arguments), as deltas."""
        if len(c_atoms) != len(d_atoms):
            return
        if not c_atoms:
            yield delta
            return
        first, rest = c_atoms[0], c_atoms[1:]
        for k, datom in enumerate(d_atoms):
            if type(datom) is not type(first):
                continue
            for pair in ((first.a, first.b), (first.b, first.a)):
                self._charge(1)
                t1 = self._bind(pair[0], datom.a, theta, delta)
                if t1 is None:
                    continue
                t2 = self._bind(pair[1], datom.b, theta, t1)
                if t2 is None:
                    continue
                yield from self._match_conditions(rest, d_atoms[:k] + d_atoms[k + 1:], theta, t2)

    def _candidates(self, ci, theta):
        """(delta, d body index) pairs for c's body literal ci under theta."""
        lit = self.c.body[ci]
        out = []
        if isinstance(lit, Rel):
            bucket = self.d.rels.get((lit.relation, len(lit.args)), ())
            self._charge(len(bucket))
            # _bind inlined: one fresh delta per image, filled in place
            for di, dlit in bucket:
                delta = {}
                for ct, dt in zip(lit.args, dlit.args):
                    if isinstance(ct, Constant):
                        if ct != dt:
                            break
                        continue
                    bound = theta.get(ct)
                    if bound is None:
                        bound = delta.setdefault(ct, dt)
                    if bound != dt:
                        break
                else:
                    out.append((delta, di))
        else:
            cond = tuple(lit.cond)
            for di, dlit in self.d.reps:
                if dlit.origin != lit.origin:
                    continue
                self._charge(1)
                delta = self._bind(lit.target, dlit.target, theta, {})
                if delta is None:
                    continue
                delta = self._bind(lit.replacement, dlit.replacement, theta, delta)
                if delta is None:
                    continue
                for final in self._match_conditions(cond, tuple(dlit.cond), theta, delta):
                    out.append((final, di))
        return out

    # -- constraint literals ----------------------------------------------

    def _holds(self, lit, theta):
        """An Eq/Sim literal of c whose terms theta binds, checked in d."""
        a = theta.get(lit.a, lit.a)
        b = theta.get(lit.b, lit.b)
        # terms with provably equal values are trivially similar; otherwise a
        # similarity literal of d must relate exactly these terms (matching
        # through the equality closure would survive expansions that the
        # repairs of d actually destroy)
        if self.d.closure.same(a, b):
            return True
        return isinstance(lit, Sim) and (a, b) in self.d.sim_pairs

    def _split_bound(self, constraints, bound, extra=()):
        """(the literals of `constraints` whose variables are all in `bound`
        or `extra`, the body indices of the rest), both in order."""
        body, body_vars = self.c.body, self.c.body_vars
        now, later = [], []
        for k in constraints:
            for v in body_vars[k]:
                if v not in bound and v not in extra:
                    later.append(k)
                    break
            else:
                now.append(body[k])
        return now, later

    def _check_constraints(self, constraints, theta):
        """Verify Sim/Eq literals, enumerating any still-unbound variables."""
        pending = []
        for lit in constraints:
            if any(isinstance(t, Variable) and t not in theta for t in (lit.a, lit.b)):
                pending.append(lit)
            elif not self._holds(lit, theta):
                return None
        if not pending:
            return theta
        var = next(t for lit in pending for t in (lit.a, lit.b)
                   if isinstance(t, Variable) and t not in theta)
        for dt in self.d.terms:
            self._charge(1)
            out = dict(theta)
            out[var] = dt
            final = self._check_constraints(pending, out)
            if final is not None:
                return final
        return None

    # -- side condition ----------------------------------------------------

    def _side_condition(self, lit_map):
        # every repair literal of d reachable from the mapped body region must
        # be mapped too. The head does not seed the region; candidate heads
        # are always variables, and a variable head argument tracks whatever
        # value a repair gives it.
        mapped = set(lit_map.values())
        mapped_rep = {di for di in mapped if isinstance(self.d.body[di], RepairLit)}
        region = (t for di in mapped - mapped_rep for t in logic.literal_terms(self.d.body[di]))
        return logic.reachable(region, self.d.repair_links) <= mapped_rep

    @cached_property
    def _pins_survive(self) -> bool:
        """A constant the pattern pins cannot survive a repair of d that
        targets it: every expansion of d rewrites all its occurrences while
        the pattern keeps demanding the constant, unless the pattern repairs
        the very same constant and the two rewrites run in lockstep. Only a
        leaf reads it, where every relation and repair literal of c is
        mapped, so it depends on c and d alone. It stays at the leaf, not at
        the root of solve: there only the searches that reach a leaf pay for
        it, while at the root every search would, also one that ends sooner."""
        demands = {t for t in self.c.head.args if isinstance(t, Constant)}
        demands.update(t for lit in self.c.body if isinstance(lit, Rel)
                       for t in lit.args if isinstance(t, Constant))
        c_rep_targets = {lit.target for _, lit in self.c.reps}
        return not any(dlit.target in demands and dlit.target not in c_rep_targets
                       for _, dlit in self.d.reps if isinstance(dlit.target, Constant))

    def _group_condition(self, lit_map):
        """Repair groups of c must land inside single groups of d, and two
        c-groups sharing a target must land in distinct d-groups: collapsing
        diverging repair alternatives onto one would claim more than the
        pattern's own expansions deliver."""
        d_groups = self.d.groups
        landed: dict[frozenset, frozenset] = {}
        for ci, c_group in self.c.groups.items():
            d_group = d_groups[lit_map[ci]]
            if landed.setdefault(c_group, d_group) != d_group:
                return False
        claimed: dict[tuple, frozenset] = {}
        for c_group, d_group in landed.items():
            for cj in c_group:
                if claimed.setdefault((d_group, self.c.body[cj].target), c_group) != c_group:
                    return False
        return True

    # -- search -------------------------------------------------------------

    def solve(self) -> CoverageVerdict:
        if (self.c.head.relation != self.d.head.relation
                or len(self.c.head.args) != len(self.d.head.args)):
            return CoverageVerdict(False)
        theta = {}
        for ct, dt in zip(self.c.head.args, self.d.head.args):
            theta = self._bind(ct, dt, {}, theta)
            if theta is None:
                return CoverageVerdict(False)
        check, pending = self._split_bound(self.c.constraints, theta)
        if not all(self._holds(lit, theta) for lit in check):
            return CoverageVerdict(False)
        try:
            found = self._search([(ci, None) for ci in self.c.binders], {}, pending, theta, {})
        except (_OutOfBudget, RecursionError):
            return CoverageVerdict(False, budget_exhausted=True)
        if found is None:
            return CoverageVerdict(False)
        return CoverageVerdict(True, witness=found)

    def _search(self, remaining, delta, pending, theta, lit_map):
        """`remaining`: (body index, candidates or None) of c's unbound
        relation and repair literals in body order, as of before `delta`,
        theta's newest bindings; `pending`: body indices of its constraints
        with an unbound variable; `lit_map`: each bound literal's d body index."""
        if not remaining:
            final = self._check_constraints([self.c.body[k] for k in pending], theta)
            if final is None:
                return None
            if not (self._side_condition(lit_map) and self._pins_survive
                    and self._group_condition(lit_map)):
                return None
            return final
        body_vars = self.c.body_vars
        current = []
        for ci, cands in remaining:
            if cands is None or not delta.keys().isdisjoint(body_vars[ci]):
                cands = self._candidates(ci, theta)
                if not cands:
                    return None
            current.append((ci, cands))
        # most constrained literal first
        ci, best_cands = min(current, key=lambda entry: len(entry[1]))
        rest = [entry for entry in current if entry[0] != ci]
        # binding ci binds all of its variables, whichever candidate is taken
        check, pending = self._split_bound(pending, theta, body_vars[ci])
        for delta, di in best_cands:
            theta2 = {**theta, **delta}
            if check and not all(self._holds(lit, theta2) for lit in check):
                continue
            lit_map2 = dict(lit_map)
            lit_map2[ci] = di
            out = self._search(rest, delta, pending, theta2, lit_map2)
            if out is not None:
                return out
        return None


def subsumes_with_repairs(c: Clause, d: Clause, budget: int = DEFAULT_BUDGET) -> CoverageVerdict:
    """Subsumption treating repair literals as matchable literals, plus the
    requirement that repair literals of d touching the mapped region are
    themselves mapped."""
    return _Matcher(c, d, budget).solve()


def md_part(clause: Clause) -> Clause:
    """The clause without its CFD repair literals and the literals they
    reach, keeping every MD repair literal: all of a clause without a CFD
    repair literal, which is returned as it is.

    One closure (logic.reachable over Clause.repair_links), seeded with
    the terms of the CFD repair literals, finds the repair literals linked
    to them through variables. A relation, equality or similarity literal is
    kept only if it shares no variable with their targets and replacements."""
    seeds = [t for _, r in clause.reps if r.origin == "cfd" for t in (r.target, r.replacement)]
    if not seeds:
        return clause
    reached = logic.reachable(seeds, clause.repair_links)
    tainted = {t for ri, links in clause.repair_links if ri in reached for t in links}
    return Clause(clause.head, tuple(
        lit for lit in clause.body
        if (lit.origin == "md" if isinstance(lit, RepairLit)
            else tainted.isdisjoint(logic.literal_terms(lit)))))


def _view(view: str, fn, clause: Clause, *args):
    """fn(clause, *args), the `view` of a clause, computed on first use and
    kept in clause.views under `(view, args)`, unless it is the clause or a
    list of only it, which fn returns at its first check. A RepairCapExceeded
    is kept without the traceback that holds the clause; each use raises a copy."""
    key = (view, args)
    out = clause.views.get(key)
    if out is None:
        try:
            out = fn(clause, *args)
        except logic.RepairCapExceeded as exc:
            out = exc.with_traceback(None)
        if out is not clause and not (isinstance(out, list) and out[0] is clause):
            clause.views[key] = out
    if isinstance(out, logic.RepairCapExceeded):
        raise logic.RepairCapExceeded(*out.args)
    return out


def _needed_constants(clause: Clause) -> set:
    """The constants that a clause can map only onto the same constant of
    the clause it subsumes: those of its head, its relation literals and its
    repair literals (_bind), and those of its Eq and Sim literals whose two
    terms differ (_holds). An Eq or Sim literal of one term twice holds in
    any clause."""
    terms = list(clause.head.args)
    for lit in clause.body:
        if not isinstance(lit, (Eq, Sim)) or lit.a != lit.b:
            terms.extend(logic.literal_terms(lit))
    return {t for t in terms if isinstance(t, Constant)}


def covers_positive(c: Clause, g: Clause, budget: int = DEFAULT_BUDGET,
                    repair_cap: int = DEFAULT_REPAIR_CAP) -> CoverageVerdict:
    """Three-stage positive coverage of a ground bottom clause.

    1. direct subsumption (sound);
    2. subsumption of the matching-dependency parts, when c or g has a CFD
       repair literal (else both parts are the clauses themselves, md_part,
       and stage 1's rejection stands); its failure ends the test, though it
       is not conclusive: md_part(g) drops the literals that CFD repairs
       touch. Under `cfd: countries : id -> name : (_ || _)`,
       `t(V0) :- countries(V1,V2).` fails here against the CFD-repaired
       ground clause of `t('a') :- m('a','c1'), countries('c1','USA'),
       countries('c1','US').`, which entails it;
    3. otherwise expand the CFD repair literals on both sides and require
       every expansion of c to subsume some expansion of g. One expansion
       of c is tried first, without expanding anything else:
       logic.first_partial_repair, the end of the first path that
       partial_repairs walks, since both step through
       logic._repair_positions. If it needs a constant that g lacks
       (_needed_constants), the stage rejects at once. This is exact:
       every expansion of g has only terms of g, as a repair rewrites its
       target to its replacement, already a term of g, and otherwise only
       drops literals; and a needed constant maps only onto itself. So that
       expansion of c subsumes no expansion of g, and the full stage would
       reject too. No cap is met on the way, so such a rejection is not
       flagged as exhausted.
    """
    v1 = subsumes_with_repairs(c, g, budget)
    if v1.covered:
        return v1
    md_c, md_g = _view("md", md_part, c), _view("md", md_part, g)
    if md_c is c and md_g is g:
        return v1
    v2 = subsumes_with_repairs(md_c, md_g, budget)
    if not v2.covered:
        return CoverageVerdict(False, budget_exhausted=v1.budget_exhausted or v2.budget_exhausted)
    path = _view("cfd path", logic.first_partial_repair, c, "cfd")
    if _needed_constants(path).difference(g.terms):
        return CoverageVerdict(False, budget_exhausted=v1.budget_exhausted)
    try:
        c_variants = _view("cfd", logic.partial_repairs, c, "cfd", repair_cap)
        g_variants = _view("cfd", logic.partial_repairs, g, "cfd", repair_cap)
    except logic.RepairCapExceeded:
        return CoverageVerdict(False, budget_exhausted=True)
    exhausted = v1.budget_exhausted
    for cv in c_variants:
        ok = False
        for gv in g_variants:
            verdict = subsumes_with_repairs(cv, gv, budget)
            exhausted = exhausted or verdict.budget_exhausted
            if verdict.covered:
                ok = True
                break
        if not ok:
            return CoverageVerdict(False, budget_exhausted=exhausted)
    return CoverageVerdict(True, budget_exhausted=exhausted)


def covers_negative(c: Clause, g: Clause, budget: int = DEFAULT_BUDGET,
                    repair_cap: int = DEFAULT_REPAIR_CAP) -> CoverageVerdict:
    """A clause covers a negative example when it covers the example's
    ground bottom clause g as a positive (c entails g, so every repair-free
    expansion of c does), or else when one of its repair-free expansions
    does. A clause without repair literals is its own one expansion and is
    never expanded; any other is expanded once (Clause.views). g is not
    expanded: a negative covered only through its own repairs, which c does
    not match structurally, is missed, as the side condition keeps r off the
    parts of g they touch.
    """
    direct = covers_positive(c, g, budget, repair_cap)
    if direct.covered or not c.reps:
        return direct
    try:
        expansions = _view("repaired", logic.repaired_clauses, c, repair_cap)
    except logic.RepairCapExceeded:
        return CoverageVerdict(False, budget_exhausted=True)
    exhausted = direct.budget_exhausted
    for r in expansions:
        verdict = covers_positive(r, g, budget, repair_cap)
        exhausted = exhausted or verdict.budget_exhausted
        if verdict.covered:
            return CoverageVerdict(True, witness=verdict.witness, budget_exhausted=exhausted)
    return CoverageVerdict(False, budget_exhausted=exhausted)
