"""Brute-force machinery used as ground truth in tests: exhaustive repair
enumeration of small database instances, subsumption, entailment between
clauses via their repair-free expansions, coverage evaluated over enumerated
repairs, and the canonical database instance of a clause.

Everything here trades speed for being an independent check of the engine.
One join evaluates a clause as a conjunctive query over rows: over an
enumerated repair for coverage, and over the canonical instance of a clause
for subsumption, since c subsumes d exactly when the query c returns d's
seed tuple on d's canonical instance (Chandra & Merlin, STOC 1977). It is
never the backtracking matcher: no literal ordering, no candidate reuse and
no budget. Nor a variable cap: the join's cost does not grow as
|terms of d|^|variables of c|; only the repair enumeration is capped.
"""

from __future__ import annotations

import itertools

from . import logic, store
from .logic import Clause, Constant, Eq, Rel, RepairLit, Sim, Variable
from .store import Database

FRESH_PREFIX = "_v("
ESCAPE_PREFIX = "_esc<"


class OracleCapExceeded(Exception):
    pass


def fresh_value(a: str, b: str) -> str:
    """The fresh value standing for the unification of a and b; symmetric in
    its arguments. It is distinct from every base constant only when no data
    value starts with `_v(` or `_esc<`."""
    lo, hi = sorted((a, b))
    return f"{FRESH_PREFIX}{lo}|{hi})"


def is_fresh(value: str) -> bool:
    return value.startswith(FRESH_PREFIX) or value.startswith(ESCAPE_PREFIX)


Instance = dict  # relation -> list[tuple[str, ...]]; list position is the tuple id


def _similar(idx, pair, left: str, right: str) -> bool:
    if is_fresh(left) or is_fresh(right):
        return False
    table = idx.entries.get(pair)
    if not table:
        return False
    return any(rv == right for rv, _ in table.get(left, ()))


def _set(instance: Instance, rel: str, i: int, pos: int, value: str) -> Instance:
    """The instance with cell `pos` of row i of `rel` set to value. Only the
    rows of `rel` are copied; the other relations' row lists are shared."""
    rows = list(instance[rel])
    rows[i] = rows[i][:pos] + (value,) + rows[i][pos + 1:]
    return {**instance, rel: rows}


def _cfd_violation_pairs(rows, cfd):
    for i, j in itertools.combinations(range(len(rows)), 2):
        t1, t2 = rows[i], rows[j]
        ok = True
        for p, cell in zip(cfd.x_positions, cfd.cells):
            if t1[p] != t2[p] or (cell is not None and t1[p] != cell):
                ok = False
                break
        if ok and t1[cfd.rhs_position] != t2[cfd.rhs_position]:
            yield i, j


def _successors(instance: Instance, mds, cfds, idx, schema, escapes) -> list[Instance]:
    """The instances one enforcement step away, in a fixed order: each MD
    unifying a similar pair of cells into their fresh value; then, per CFD
    violation of rows i < j, row i taking row j's right-hand value, row j
    taking row i's, and for each wildcard X cell, that cell of row i and then
    of row j set to a new escape constant drawn from `escapes`. The
    successors may share row lists with the instance and with each other;
    no caller mutates them."""
    out = []
    for md in mds:
        (r1, a), (r2, b) = md.pair
        p1, p2 = schema.relation(r1).attr_index(a), schema.relation(r2).attr_index(b)
        for i, t1 in enumerate(instance[r1]):
            for j, t2 in enumerate(instance[r2]):
                if r1 == r2 and i == j:
                    continue
                if t1[p1] != t2[p2] and _similar(idx, md.pair, t1[p1], t2[p2]):
                    fresh = fresh_value(t1[p1], t2[p2])
                    out.append(_set(_set(instance, r1, i, p1, fresh), r2, j, p2, fresh))
    for cfd in cfds:
        rel, a = cfd.relation, cfd.rhs_position
        rows = instance[rel]
        for i, j in _cfd_violation_pairs(rows, cfd):
            out.append(_set(instance, rel, i, a, rows[j][a]))
            out.append(_set(instance, rel, j, a, rows[i][a]))
            for p, cell in zip(cfd.x_positions, cfd.cells):
                if cell is None:
                    for row in (i, j):
                        out.append(_set(instance, rel, row, p, f"{ESCAPE_PREFIX}{next(escapes)}>"))
    return out


def _instance_key(instance: Instance, schema) -> tuple:
    """The instance's rows as tuples, relation by relation in schema order,
    with escape constants renamed by first occurrence, so repairs differing
    only in escape identity collapse."""
    names: dict = {}

    def rename(value: str) -> str:
        if value.startswith(ESCAPE_PREFIX):
            return names.setdefault(value, f"{ESCAPE_PREFIX}{len(names)}>")
        return value

    return tuple(tuple(tuple(map(rename, row)) for row in instance[rel.name])
                 for rel in schema.relations)


def enumerate_repairs(db: Database, mds, cfds, idx, cap: int = 64,
                      extra_rows: dict | None = None) -> list[Instance]:
    """All stable instances reachable by enforcing the dependencies in every
    order (_successors), each once (_instance_key), in the order of their
    keys. extra_rows adds tuples (notably target-relation examples) on top
    of the stored tables."""
    schema = db.schema
    start: Instance = {}
    for rel in schema.relations:
        rows = [t.values for t in db.tables.get(rel.name, [])]
        if extra_rows and rel.name in extra_rows:
            rows = rows + [tuple(r) for r in extra_rows[rel.name]]
        start[rel.name] = rows
    results: dict[tuple, Instance] = {}
    seen: set[tuple] = set()
    escapes = itertools.count()
    stack = [start]
    guard = 0
    while stack:
        guard += 1
        if guard > 100000:
            raise OracleCapExceeded("repair search did not terminate")
        instance = stack.pop()
        key = _instance_key(instance, schema)
        if key in seen:
            continue
        seen.add(key)
        successors = _successors(instance, mds, cfds, idx, schema, escapes)
        if not successors:
            results[key] = instance
            if len(results) > cap:
                raise OracleCapExceeded(f"more than {cap} stable instances")
        stack.extend(successors)
    return [results[k] for k in sorted(results)]


def canonical_instance(clause: Clause) -> Database:
    """The database whose tuples are the clause's relation literals, with
    variables rendered as distinct fresh constants. The head contributes the
    seed tuple of the target relation."""
    if any(isinstance(l, RepairLit) for l in clause.body):
        raise logic.ClauseError("canonical instance of a clause with repair literals")

    def render(t: logic.Term) -> str:
        return f"_V{t.id}" if isinstance(t, Variable) else t.value

    rels: dict[str, int] = {clause.head.relation: len(clause.head.args)}
    for lit in clause.body:
        if isinstance(lit, Rel):
            rels.setdefault(lit.relation, len(lit.args))
    decls = tuple(
        store.RelationDecl(name, tuple(store.AttributeDecl(f"c{i}", "text") for i in range(arity)))
        for name, arity in rels.items()
    )
    schema = store.Schema(decls, target=clause.head.relation)
    rows: dict[str, list[tuple[str, ...]]] = {name: [] for name in rels}
    rows[clause.head.relation].append(tuple(render(t) for t in clause.head.args))
    for lit in clause.body:
        if isinstance(lit, Rel):
            rows[lit.relation].append(tuple(render(t) for t in lit.args))
    db = Database(schema=schema)
    for name in rels:
        db.tables[name] = [store.Tuple(name, vals, tid=i) for i, vals in enumerate(rows[name])]
    store.build_indexes(db)
    return db


# ---------------------------------------------------------------------------
# the join, subsumption and entailment
# ---------------------------------------------------------------------------

def _bind(args, row, theta, read):
    """theta extended so that `args` read as `row`, or None when they cannot."""
    if len(args) != len(row):
        return None
    out = dict(theta)
    for t, v in zip(args, row):
        if (out.setdefault(t, v) if isinstance(t, Variable) else read(t)) != v:
            return None
    return out


def _join(head_args, head_row, body, rows, read, eq, sim, domain) -> bool:
    """Whether the conjunctive query `head_args :- body` returns `head_row`
    over `rows` (relation -> rows), a constant reading as `read(constant)`.

    It binds the head to `head_row`, joins each relation literal, in body
    order, against the rows of its relation and arity, and tests each eq/sim
    literal by the predicate `eq` or `sim` as soon as both of its terms are
    bound. Only the variables that neither the head nor a relation literal
    binds range over `domain`."""
    rels = [lit for lit in body if isinstance(lit, Rel)]
    tests = [lit for lit in body if not isinstance(lit, Rel)]
    binds = [head_args] + [lit.args for lit in rels]
    step = {}  # each variable's binding step
    for i, args in enumerate(binds):
        for t in args:
            if isinstance(t, Variable):
                step.setdefault(t, i)
    free = list(dict.fromkeys(t for lit in tests for t in (lit.a, lit.b)
                              if isinstance(t, Variable) and t not in step))
    for t in free:
        step[t] = len(binds)
        binds.append((t,))
    sources = [(head_row,)] + [rows.get(lit.relation, ()) for lit in rels]
    if free:
        sources += [[(v,) for v in dict.fromkeys(domain)]] * len(free)
    due = [[] for _ in binds]  # the eq/sim literals each step completes
    for lit in tests:
        due[max(step[t] if isinstance(t, Variable) else 0 for t in (lit.a, lit.b))].append(lit)

    def holds(lit, theta):
        a, b = (theta[t] if isinstance(t, Variable) else read(t) for t in (lit.a, lit.b))
        return eq(a, b) if isinstance(lit, Eq) else sim(a, b)

    def extend(i, theta):
        if i == len(binds):
            return True
        for row in sources[i]:
            t2 = _bind(binds[i], row, theta, read)
            if t2 is not None and all(holds(lit, t2) for lit in due[i]) and extend(i + 1, t2):
                return True
        return False

    return extend(0, {})


def exhaustive_subsumes(c: Clause, d: Clause) -> bool:
    """Plain subsumption as a query over the canonical instance of d: c
    subsumes d exactly when the query c returns d's seed tuple on I^d
    (Chandra & Merlin, STOC 1977). The rows are d's relation literals, terms
    read as themselves; eq holds by d's equality closure, and sim by it or
    by a sim literal of d either way round. Free variables range over d's
    terms. No search heuristics, no budget and no variable cap: an
    independent check of the backtracking engine."""
    for lit in list(c.body) + list(d.body):
        if isinstance(lit, RepairLit):
            raise ValueError("exhaustive subsumption expects repair-free clauses")
    if c.head.relation != d.head.relation or len(c.head.args) != len(d.head.args):
        return False
    closure = logic.EqClosure(d.body)
    rows: dict = {}
    sims = set()
    for lit in d.body:
        if isinstance(lit, Rel):
            rows.setdefault(lit.relation, []).append(lit.args)
        elif isinstance(lit, Sim):
            sims.update(((lit.a, lit.b), (lit.b, lit.a)))
    return _join(c.head.args, d.head.args, c.body, rows, lambda t: t, closure.same,
                 lambda a, b: closure.same(a, b) or (a, b) in sims, d.terms)


def brute_force_entails(c: Clause, d: Clause, repair_cap: int = logic.DEFAULT_REPAIR_CAP) -> bool:
    """Entailment over repair-free expansions: every expansion of c must
    subsume some expansion of d, so the assignment relation is defined on the
    whole expansion set of c. An expansion with no image anywhere falsifies
    entailment. No variable cap: exhaustive_subsumes decides each pair."""
    c_reps = logic.repaired_clauses(c, repair_cap)
    d_reps = logic.repaired_clauses(d, repair_cap)
    return all(
        any(exhaustive_subsumes(cr, dr) for dr in d_reps)
        for cr in c_reps
    )


# ---------------------------------------------------------------------------
# coverage over enumerated repairs
# ---------------------------------------------------------------------------

def _eval_clause(clause: Clause, instance: Instance, head_row: tuple, sim_pairs: frozenset) -> bool:
    """Conjunctive-query evaluation of a repair-free clause over an instance,
    with the head bound to the given row: constants read as their values, eq
    is equality, and sim is equality or a pair of `sim_pairs`. Free
    variables range over the instance's values and the head row's."""
    domain = itertools.chain(head_row,
                             (v for rows in instance.values() for row in rows for v in row))
    return _join(clause.head.args, head_row, clause.body, instance, lambda t: t.value,
                 lambda a, b: a == b, lambda a, b: a == b or frozenset((a, b)) in sim_pairs,
                 domain)


def brute_force_covers(clauses, example_row_index: int, sign: str, db: Database,
                       target_rows, mds, cfds, idx, cap: int = 64) -> bool:
    """Coverage per the repair semantics: a definition covers a positive
    example when every choice of one expansion per clause covers it in some
    stable instance, and a negative example when at least one choice does."""
    sim_pairs = frozenset(
        frozenset((lv, rv))
        for table in idx.entries.values()
        for lv, matches in table.items()
        for rv, _ in matches
    )
    instances = enumerate_repairs(db, mds, cfds, idx, cap,
                                  extra_rows={db.schema.target: list(target_rows)})
    expansions = [logic.repaired_clauses(c, cap) for c in clauses]

    def covered_by(definition) -> bool:
        for instance in instances:
            head_row = instance[db.schema.target][example_row_index]
            body_instance = {r: rows for r, rows in instance.items() if r != db.schema.target}
            for clause in definition:
                if _eval_clause(clause, body_instance, head_row, sim_pairs):
                    return True
        return False

    if sign == "+":
        return all(covered_by(choice) for choice in itertools.product(*expansions))
    return any(covered_by(choice) for choice in itertools.product(*expansions))


# ---------------------------------------------------------------------------
# clause comparison helpers
# ---------------------------------------------------------------------------

def normalize_clause(clause: Clause) -> Clause:
    """Semantic normal form for comparing repair-free clauses: fresh values
    turn into variables, variables tied by equality literals are merged (a
    variable equated with a constant becomes the constant), reflexive
    equality/similarity literals disappear, and literals not connected to the
    head are pruned."""
    next_id = logic.fresh_var(clause).id
    fresh_map: dict = {}
    for t in clause.terms:
        if isinstance(t, Constant) and is_fresh(t.value):
            fresh_map[t] = Variable(next_id)
            next_id += 1
    if fresh_map:
        clause = logic.apply_substitution(clause, fresh_map)
    dsu_members: dict = {}
    mapping: dict = {}
    closure = logic.EqClosure(clause.body)
    for t in clause.terms:
        dsu_members.setdefault(closure.find(t), []).append(t)
    for members in dsu_members.values():
        consts = sorted((t for t in members if isinstance(t, Constant)), key=lambda c: c.value)
        rep = consts[0] if consts else min(
            (t for t in members if isinstance(t, Variable)), key=lambda v: v.id
        )
        for t in members:
            if isinstance(t, Variable) and t != rep:
                mapping[t] = rep
    merged = logic.apply_substitution(clause, mapping)
    body = []
    for lit in merged.body:
        # the merge turns every satisfiable equality literal reflexive;
        # equalities between distinct constants stay (degenerate clause)
        if isinstance(lit, (Eq, Sim)) and lit.a == lit.b:
            continue
        body.append(lit)
    pruned = logic.head_connected(Clause(merged.head, tuple(body)))
    return logic.canonical(pruned)


def clause_set_key(clauses) -> tuple:
    return tuple(sorted({logic.print_clause(normalize_clause(c)) for c in clauses}))


def clause_sets_equal(left, right) -> bool:
    """Set equality of clause collections up to variable renaming, after
    normalization; robust against the printed canonical form picking
    different representatives for symmetric clauses."""

    def reduce(clauses):
        out = []
        for c in clauses:
            n = normalize_clause(c)
            if not any(clauses_isomorphic(n, o) for o in out):
                out.append(n)
        return out

    a, b = reduce(left), reduce(right)
    if len(a) != len(b):
        return False
    return all(any(clauses_isomorphic(x, y) for y in b) for x in a) and all(
        any(clauses_isomorphic(y, x) for x in a) for y in b
    )


def clauses_isomorphic(c1: Clause, c2: Clause) -> bool:
    """Equality up to a bijective renaming of variables, comparing bodies as
    multisets."""
    if len(c1.body) != len(c2.body):
        return False

    def try_map(mapping, used, t1, t2):
        if isinstance(t1, Constant) or isinstance(t2, Constant):
            return mapping if t1 == t2 else None
        if t1 in mapping:
            return mapping if mapping[t1] == t2 else None
        if t2 in used:
            return None
        out = dict(mapping)
        out[t1] = t2
        return out

    def match_literal(l1, l2, mapping):
        if type(l1) is not type(l2):
            return None
        pairs = []
        if isinstance(l1, Rel):
            if l1.relation != l2.relation or len(l1.args) != len(l2.args):
                return None
            pairs = list(zip(l1.args, l2.args))
        elif isinstance(l1, (Sim, Eq)):
            pairs = [(l1.a, l2.a), (l1.b, l2.b)]
        else:
            if l1.origin != l2.origin or len(l1.cond) != len(l2.cond):
                return None
            pairs = [(l1.target, l2.target), (l1.replacement, l2.replacement)]
            pairs += [(a1.a, a2.a) for a1, a2 in zip(l1.cond, l2.cond)]
            pairs += [(a1.b, a2.b) for a1, a2 in zip(l1.cond, l2.cond)]
            if any(type(a1) is not type(a2) for a1, a2 in zip(l1.cond, l2.cond)):
                return None
        for t1, t2 in pairs:
            mapping = try_map(mapping, set(mapping.values()), t1, t2)
            if mapping is None:
                return None
        return mapping

    def search(i, remaining, mapping):
        if i == len(c1.body):
            return not remaining
        lit = c1.body[i]
        for j in list(remaining):
            m2 = match_literal(lit, c2.body[j], mapping)
            if m2 is not None and search(i + 1, remaining - {j}, m2):
                return True
        return False

    m0 = match_literal(c1.head, c2.head, {})
    if m0 is None:
        return False
    return search(0, frozenset(range(len(c2.body))), m0)
