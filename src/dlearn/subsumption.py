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
between the repair-free expansions of the two clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import logic
from .logic import Clause, Constant, Eq, Rel, RepairLit, Sim, Variable

DEFAULT_BUDGET = 10 ** 6
DEFAULT_REPAIR_CAP = 256


@dataclass(frozen=True)
class CoverageVerdict:
    covered: bool
    witness: dict | None = None
    budget_exhausted: bool = False


class _OutOfBudget(Exception):
    pass


def _connected_repairs(reps, terms) -> set[int]:
    """Indices of the repair literals among `reps` ((index, literal) pairs)
    reachable from the variables in `terms`, directly or through other repair
    literals. Links run through variables only: a repair on a constant
    constrains other literals only through its replacement variable."""
    pool = {t for t in terms if isinstance(t, Variable)}
    connected: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ri, rlit in reps:
            if ri in connected:
                continue
            if rlit.target in pool or rlit.replacement in pool:
                connected.add(ri)
                if isinstance(rlit.target, Variable):
                    pool.add(rlit.target)
                if isinstance(rlit.replacement, Variable):
                    pool.add(rlit.replacement)
                changed = True
    return connected


class _Matcher:
    def __init__(self, c: Clause, d: Clause, with_repairs: bool, budget: int):
        self.c = c
        self.d = d
        self.with_repairs = with_repairs
        self.budget = budget
        self.d_closure = logic.eq_closure(self.d)
        self.d_rels: dict[tuple[str, int], list[tuple[int, Rel]]] = {}
        self.d_reps: list[tuple[int, RepairLit]] = []
        self.d_sims: list[Sim] = []
        for i, lit in enumerate(self.d.body):
            if isinstance(lit, Rel):
                self.d_rels.setdefault((lit.relation, len(lit.args)), []).append((i, lit))
            elif isinstance(lit, RepairLit):
                self.d_reps.append((i, lit))
            elif isinstance(lit, Sim):
                self.d_sims.append(lit)
        terms = list(self.d.head.args)
        for lit in self.d.body:
            terms.extend(logic.literal_terms(lit))
        self.d_terms = list(dict.fromkeys(terms))

    # -- unification ------------------------------------------------------

    def _spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise _OutOfBudget

    def _unify(self, ct, dt, theta):
        if isinstance(ct, Constant):
            return theta if ct == dt else None
        bound = theta.get(ct)
        if bound is None:
            out = dict(theta)
            out[ct] = dt
            return out
        return theta if bound == dt else None

    def _unify_args(self, c_args, d_args, theta):
        for ct, dt in zip(c_args, d_args):
            theta = self._unify(ct, dt, theta)
            if theta is None:
                return None
        return theta

    def _match_conditions(self, c_atoms, d_atoms, theta):
        """Bijections between condition atom sets under theta (atoms are
        symmetric in their two arguments)."""
        if len(c_atoms) != len(d_atoms):
            return
        if not c_atoms:
            yield theta
            return
        first, rest = c_atoms[0], c_atoms[1:]
        for k, datom in enumerate(d_atoms):
            if type(datom) is not type(first):
                continue
            for pair in ((first.a, first.b), (first.b, first.a)):
                self._spend()
                t1 = self._unify(pair[0], datom.a, theta)
                if t1 is None:
                    continue
                t2 = self._unify(pair[1], datom.b, t1)
                if t2 is None:
                    continue
                yield from self._match_conditions(rest, d_atoms[:k] + d_atoms[k + 1:], t2)

    def _candidates(self, lit, theta):
        if isinstance(lit, Rel):
            for di, dlit in self.d_rels.get((lit.relation, len(lit.args)), ()):
                self._spend()
                out = self._unify_args(lit.args, dlit.args, theta)
                if out is not None:
                    yield out, di
        else:
            for di, dlit in self.d_reps:
                if dlit.origin != lit.origin:
                    continue
                self._spend()
                out = self._unify(lit.target, dlit.target, theta)
                if out is None:
                    continue
                out = self._unify(lit.replacement, dlit.replacement, out)
                if out is None:
                    continue
                for final in self._match_conditions(tuple(lit.cond), tuple(dlit.cond), out):
                    yield final, di

    # -- constraint literals ----------------------------------------------

    def _eq_holds(self, a, b):
        return self.d_closure.same(a, b)

    def _sim_holds(self, a, b):
        # terms with provably equal values are trivially similar; otherwise a
        # similarity literal of d must relate exactly these terms (matching
        # through the equality closure would survive expansions that the
        # repairs of d actually destroy)
        if self.d_closure.same(a, b):
            return True
        for s in self.d_sims:
            if (s.a, s.b) == (a, b) or (s.a, s.b) == (b, a):
                return True
        return False

    def _check_constraints(self, constraints, theta):
        """Verify Sim/Eq literals, enumerating any still-unbound variables."""
        pending = []
        for lit in constraints:
            a = theta.get(lit.a, lit.a)
            b = theta.get(lit.b, lit.b)
            if any(isinstance(t, Variable) and t not in theta for t in (lit.a, lit.b)):
                pending.append(lit)
                continue
            ok = self._eq_holds(a, b) if isinstance(lit, Eq) else self._sim_holds(a, b)
            if not ok:
                return None
        if not pending:
            return theta
        var = next(t for lit in pending for t in (lit.a, lit.b)
                   if isinstance(t, Variable) and t not in theta)
        for dt in self.d_terms:
            self._spend()
            out = dict(theta)
            out[var] = dt
            final = self._check_constraints(pending, out)
            if final is not None:
                return final
        return None

    # -- side condition ----------------------------------------------------

    def _side_condition(self, mapped, lit_map):
        # every repair literal of d reachable from the mapped body region must
        # be mapped too. The head does not seed the region; candidate heads
        # are always variables, and a variable head argument tracks whatever
        # value a repair gives it.
        mapped_rep = {di for di in mapped if isinstance(self.d.body[di], RepairLit)}
        region = (t for di in mapped if di not in mapped_rep
                  for t in logic.literal_terms(self.d.body[di]))
        if not _connected_repairs(self.d_reps, region) <= mapped_rep:
            return False
        # a constant the pattern pins cannot survive a repair of d that
        # targets it: every expansion of d rewrites all its occurrences while
        # the pattern keeps demanding the constant, unless the pattern repairs
        # the very same constant and the two rewrites run in lockstep
        demands = {t for t in self.c.head.args if isinstance(t, Constant)}
        c_rep_targets = set()
        for ci in lit_map:
            clit = self.c.body[ci]
            if isinstance(clit, Rel):
                demands.update(t for t in clit.args if isinstance(t, Constant))
            else:
                c_rep_targets.add(clit.target)
        for _, dlit in self.d_reps:
            if (isinstance(dlit.target, Constant) and dlit.target in demands
                    and dlit.target not in c_rep_targets):
                return False
        return True

    def _d_group(self, di):
        dlit = self.d.body[di]
        return frozenset(dj for dj, dl in self.d_reps if logic.same_group(dl, dlit))

    def _group_condition(self, rep_map):
        """Repair groups of c must land inside single groups of d, and two
        c-groups sharing a target must land in distinct d-groups: collapsing
        diverging repair alternatives onto one would claim more than the
        pattern's own expansions deliver."""
        c_reps = [(ci, self.c.body[ci]) for ci in rep_map]
        groups: list[tuple[list, frozenset]] = []
        used = set()
        for ci, lit in c_reps:
            if ci in used:
                continue
            members = [cj for cj, lj in c_reps if logic.same_group(lj, lit)]
            used.update(members)
            d_groups = {self._d_group(rep_map[cj]) for cj in members}
            if len(d_groups) > 1:
                return False
            targets = frozenset(self.c.body[cj].target for cj in members)
            groups.append((targets, next(iter(d_groups))))
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i][0] & groups[j][0] and groups[i][1] == groups[j][1]:
                    return False
        return True

    # -- search -------------------------------------------------------------

    def solve(self) -> CoverageVerdict:
        if (self.c.head.relation != self.d.head.relation
                or len(self.c.head.args) != len(self.d.head.args)):
            return CoverageVerdict(False)
        theta = self._unify_args(self.c.head.args, self.d.head.args, {})
        if theta is None:
            return CoverageVerdict(False)
        binders = [(i, l) for i, l in enumerate(self.c.body) if isinstance(l, (Rel, RepairLit))]
        constraints = [l for l in self.c.body if isinstance(l, (Sim, Eq))]
        try:
            found = self._search(binders, constraints, theta, set(), {})
        except _OutOfBudget:
            return CoverageVerdict(False, budget_exhausted=True)
        if found is None:
            return CoverageVerdict(False)
        return CoverageVerdict(True, witness=found)

    def _search(self, remaining, constraints, theta, mapped, lit_map):
        if not remaining:
            final = self._check_constraints(constraints, theta)
            if final is None:
                return None
            if self.with_repairs:
                rep_map = {ci: di for ci, di in lit_map.items()
                           if isinstance(self.c.body[ci], RepairLit)}
                if not (self._side_condition(mapped, lit_map)
                        and self._group_condition(rep_map)):
                    return None
            return final
        # most constrained literal first
        best_i, best_cands = None, None
        for i, (_, lit) in enumerate(remaining):
            cands = list(self._candidates(lit, theta))
            if best_cands is None or len(cands) < len(best_cands):
                best_i, best_cands = i, cands
                if not cands:
                    return None
        ci, lit = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        for theta2, di in best_cands:
            lit_map2 = dict(lit_map)
            lit_map2[ci] = di
            out = self._search(rest, constraints, theta2, mapped | {di}, lit_map2)
            if out is not None:
                return out
        return None


def theta_subsumes(c: Clause, d: Clause, budget: int = DEFAULT_BUDGET) -> CoverageVerdict:
    """Plain subsumption for repair-free clauses."""
    return _Matcher(c, d, with_repairs=False, budget=budget).solve()


def subsumes_with_repairs(c: Clause, d: Clause, budget: int = DEFAULT_BUDGET) -> CoverageVerdict:
    """Subsumption treating repair literals as matchable literals, plus the
    requirement that repair literals of d touching the mapped region are
    themselves mapped."""
    return _Matcher(c, d, with_repairs=True, budget=budget).solve()


def md_part(clause: Clause) -> Clause:
    """The sub-clause of literals whose connected repair literals all come
    from matching dependencies, keeping those repair literals."""
    reps = [(i, l) for i, l in enumerate(clause.body) if isinstance(l, RepairLit)]
    body = []
    for lit in clause.body:
        if isinstance(lit, RepairLit):
            if lit.origin == "md":
                body.append(lit)
        elif all(clause.body[ri].origin == "md"
                 for ri in _connected_repairs(reps, logic.literal_terms(lit))):
            body.append(lit)
    return Clause(clause.head, tuple(body))


def covers_positive(c: Clause, g: Clause, budget: int = DEFAULT_BUDGET,
                    repair_cap: int = DEFAULT_REPAIR_CAP) -> CoverageVerdict:
    """Three-stage positive coverage of a ground bottom clause.

    1. direct subsumption (sound);
    2. subsumption of the matching-dependency parts (its failure is
       conclusive, because for those parts the test is also complete);
    3. otherwise expand the CFD repair literals on both sides and require
       every expansion of c to subsume some expansion of g.
    """
    v1 = subsumes_with_repairs(c, g, budget)
    if v1.covered:
        return v1
    v2 = subsumes_with_repairs(md_part(c), md_part(g), budget)
    if not v2.covered:
        return CoverageVerdict(False, budget_exhausted=v1.budget_exhausted or v2.budget_exhausted)
    try:
        c_variants = logic.partial_repairs(c, "cfd", repair_cap)
        g_variants = logic.partial_repairs(g, "cfd", repair_cap)
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
    """A clause covers a negative example as soon as one of its repair-free
    expansions covers the example's ground bottom clause."""
    try:
        expansions = logic.repaired_clauses(c, repair_cap)
    except logic.RepairCapExceeded:
        return CoverageVerdict(False, budget_exhausted=True)
    exhausted = False
    for r in expansions:
        verdict = covers_positive(r, g, budget, repair_cap)
        exhausted = exhausted or verdict.budget_exhausted
        if verdict.covered:
            return CoverageVerdict(True, witness=verdict.witness, budget_exhausted=exhausted)
    return CoverageVerdict(False, budget_exhausted=exhausted)
