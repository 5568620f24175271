"""Clause machinery: terms, literals, repair literals, substitution, repair
application, and the clause text format.

Clause grammar (round-trips through parse_clause / print_clause):

    clause   := head ( ":-" lit ("," lit)* )? "."
    lit      := ident "(" term ("," term)* ")"
              | "sim" "(" term "," term ")"
              | "eq" "(" term "," term ")"
              | "rep" "{" atom (";" atom)* "}" "(" term "," term ")"
    atom     := ("eq" | "neq" | "sim") "(" term "," term ")"
    term     := "V" digits | "'" chars "'"        ('' escapes a quote)

A repair literal rep{c}(x, v) means: when condition c holds in the clause,
replace x everywhere with v. A clause with repair literals compactly stands
for the set of repair-free clauses reachable by applying or discarding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import store
from .util import DisjointSet


class ClauseError(Exception):
    pass


class RepairCapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# terms, atoms, literals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    id: int


@dataclass(frozen=True)
class Constant:
    value: str


Term = Variable | Constant


@dataclass(frozen=True)
class EqAtom:
    a: Term
    b: Term


@dataclass(frozen=True)
class NeqAtom:
    a: Term
    b: Term


@dataclass(frozen=True)
class SimAtom:
    a: Term
    b: Term


Atom = EqAtom | NeqAtom | SimAtom
Condition = tuple


@dataclass(frozen=True)
class Rel:
    relation: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Sim:
    a: Term
    b: Term


@dataclass(frozen=True)
class Eq:
    a: Term
    b: Term


@dataclass(frozen=True)
class RepairLit:
    """Conditional replacement of `target` by `replacement`.

    origin is "md" or "cfd"; group ties together the repair literals emitted
    for one similarity match, which are applied as a unit (enforcing a match
    identifies both sides at once). Neither field takes part in equality:
    origin is recoverable from the condition shape and group from origin plus
    condition identity.
    """

    cond: Condition
    target: Term
    replacement: Term
    origin: str = field(default="md", compare=False)
    group: int = field(default=-1, compare=False)


Literal = Rel | Sim | Eq | RepairLit


@dataclass(frozen=True)
class Clause:
    head: Rel
    body: tuple[Literal, ...] = ()


Substitution = dict


def condition_origin(cond: Condition) -> str:
    """Repair conditions made only of similarity atoms come from matching
    dependencies; anything with an equality or inequality atom is CFD work."""
    return "md" if all(isinstance(a, SimAtom) for a in cond) else "cfd"


def same_group(a: RepairLit, b: RepairLit) -> bool:
    """Matching-dependency repair literals of one similarity match form a
    group and fire together; CFD repair literals always apply alone."""
    if a is b:
        return True
    if a.origin != b.origin or a.origin == "cfd":
        return False
    if a.group >= 0 and b.group >= 0:
        return a.group == b.group
    return set(a.cond) == set(b.cond)


# ---------------------------------------------------------------------------
# walking helpers
# ---------------------------------------------------------------------------

def literal_terms(lit: Literal):
    if isinstance(lit, Rel):
        yield from lit.args
    elif isinstance(lit, (Sim, Eq)):
        yield lit.a
        yield lit.b
    else:
        for atom in lit.cond:
            yield atom.a
            yield atom.b
        yield lit.target
        yield lit.replacement


def literal_vars(lit: Literal):
    for t in literal_terms(lit):
        if isinstance(t, Variable):
            yield t


def clause_vars(clause: Clause) -> set:
    out = set(t for t in clause.head.args if isinstance(t, Variable))
    for lit in clause.body:
        out.update(literal_vars(lit))
    return out


def fresh_var(clause_or_vars) -> Variable:
    """A variable numbered above every variable of the clause (or set)."""
    if isinstance(clause_or_vars, Clause):
        clause_or_vars = (t for lit in (clause_or_vars.head, *clause_or_vars.body)
                          for t in literal_terms(lit) if isinstance(t, Variable))
    return Variable(max((v.id for v in clause_or_vars), default=-1) + 1)


def map_term(term: Term, subst: Substitution) -> Term:
    return subst.get(term, term) if isinstance(term, Variable) else term


def _map_any_term(term: Term, mapping: dict) -> Term:
    """Like map_term but the mapping may also rewrite constants (used by
    repair application, where a target can be a constant)."""
    return mapping.get(term, term)


def _substitute_literal(lit: Literal, mapping: dict, any_term: bool = False) -> Literal:
    rw = _map_any_term if any_term else (lambda t, m: map_term(t, m))
    if isinstance(lit, Rel):
        return Rel(lit.relation, tuple(rw(t, mapping) for t in lit.args))
    if isinstance(lit, Sim):
        return Sim(rw(lit.a, mapping), rw(lit.b, mapping))
    if isinstance(lit, Eq):
        return Eq(rw(lit.a, mapping), rw(lit.b, mapping))
    cond = tuple(type(a)(rw(a.a, mapping), rw(a.b, mapping)) for a in lit.cond)
    return RepairLit(cond, rw(lit.target, mapping), rw(lit.replacement, mapping),
                     origin=lit.origin, group=lit.group)


def apply_substitution(clause: Clause, subst: Substitution) -> Clause:
    head = _substitute_literal(clause.head, subst)
    return Clause(head, tuple(_substitute_literal(l, subst) for l in clause.body))


# ---------------------------------------------------------------------------
# equality closure and condition evaluation
# ---------------------------------------------------------------------------

class EqClosure:
    """Reflexive-symmetric-transitive closure of a clause's equality literals.

    Constants are equal exactly when they are the same value, unless equality
    literals merge their classes (a degenerate but representable clause).
    """

    def __init__(self, body=()):
        self._dsu = DisjointSet()
        for lit in body:
            if isinstance(lit, Eq):
                self._dsu.union(lit.a, lit.b)

    def union(self, a: Term, b: Term) -> None:
        self._dsu.union(a, b)

    def find(self, a: Term):
        return self._dsu.find(a)

    def same(self, a: Term, b: Term) -> bool:
        return a == b or self._dsu.same(a, b)


def eq_closure(clause: Clause) -> EqClosure:
    return EqClosure(clause.body)


def _sim_holds(a: Term, b: Term, clause: Clause, closure: EqClosure) -> bool:
    if closure.same(a, b):
        return True
    for lit in clause.body:
        if isinstance(lit, Sim):
            if (closure.same(lit.a, a) and closure.same(lit.b, b)) or (
                closure.same(lit.a, b) and closure.same(lit.b, a)
            ):
                return True
    return False


def condition_holds(cond: Condition, clause: Clause, closure: EqClosure | None = None) -> bool:
    """Evaluate a repair condition against the clause's own literals."""
    closure = closure or eq_closure(clause)
    for atom in cond:
        if isinstance(atom, EqAtom):
            if not closure.same(atom.a, atom.b):
                return False
        elif isinstance(atom, NeqAtom):
            if closure.same(atom.a, atom.b):
                return False
        else:
            if not _sim_holds(atom.a, atom.b, clause, closure):
                return False
    return True


# ---------------------------------------------------------------------------
# repair application
# ---------------------------------------------------------------------------

def apply_repair_literal(clause: Clause, index: int) -> Clause:
    """Apply (or discard) the repair literal at a body index.

    When its condition fails the literal is simply removed. When it holds,
    the whole group it belongs to fires at once: all group targets are
    replaced by their replacement variables in every literal and in the
    conditions of the remaining repair literals. Equality and similarity
    literals that mention a replaced term are removed rather than rewritten:
    the repair breaks the term's old relationships, and a fresh replacement
    value matches nothing. Finally, any repair literal whose condition became
    false is dropped.
    """
    if not (0 <= index < len(clause.body)) or not isinstance(clause.body[index], RepairLit):
        raise ClauseError(f"body index {index} is not a repair literal")
    lit = clause.body[index]
    closure = eq_closure(clause)
    if not condition_holds(lit.cond, clause, closure):
        body = clause.body[:index] + clause.body[index + 1:]
        return Clause(clause.head, body)

    group_idx = {
        i for i, l in enumerate(clause.body)
        if isinstance(l, RepairLit) and same_group(l, lit)
    }
    mapping = {clause.body[i].target: clause.body[i].replacement for i in group_idx}
    targets = set(mapping)

    new_body = []
    for i, l in enumerate(clause.body):
        if i in group_idx:
            continue
        if isinstance(l, (Sim, Eq)) and (l.a in targets or l.b in targets):
            continue
        new_body.append(_substitute_literal(l, mapping, any_term=True))
    head = _substitute_literal(clause.head, mapping, any_term=True)
    result = Clause(head, tuple(new_body))

    closure = eq_closure(result)
    kept = tuple(
        l for l in result.body
        if not (isinstance(l, RepairLit) and not condition_holds(l.cond, result, closure))
    )
    return Clause(head, kept)


def drop_dangling_restrictions(clause: Clause) -> Clause:
    """Remove restriction and induced equality/similarity literals that use a
    variable not occurring in the head or any relation literal."""
    anchored = set(t for t in clause.head.args if isinstance(t, Variable))
    for lit in clause.body:
        if isinstance(lit, Rel):
            anchored.update(v for v in literal_vars(lit))
    body = []
    for lit in clause.body:
        if isinstance(lit, (Eq, Sim)):
            if any(isinstance(t, Variable) and t not in anchored for t in (lit.a, lit.b)):
                continue
        body.append(lit)
    return Clause(clause.head, tuple(body))


def _exhaust_repairs(clause: Clause, origin: str | None, cap: int) -> list[Clause]:
    """Depth-first over every application order of the repair literals of
    one origin (of every origin when None), with memoization on canonical
    clause form. Results are deduplicated up to a renaming of variables and
    returned in a deterministic order; a full expansion also drops the
    restrictions left dangling. Raises RepairCapExceeded when more than `cap`
    distinct results appear."""
    results: dict[str, Clause] = {}
    seen: set[str] = set()
    stack = [clause]
    while stack:
        c = stack.pop()
        key = clause_key(c, sort=True)
        if key in seen:
            continue
        seen.add(key)
        repair_idx = [i for i, l in enumerate(c.body)
                      if isinstance(l, RepairLit) and (origin is None or l.origin == origin)]
        if repair_idx:
            stack.extend(apply_repair_literal(c, i) for i in repair_idx)
            continue
        if origin is None:
            c = drop_dangling_restrictions(c)
            key = clause_key(c, sort=True)
        results[key] = c
        if len(results) > cap:
            raise RepairCapExceeded(f"more than {cap} repaired clauses")
    return [results[k] for k in sorted(results)]


def repaired_clauses(clause: Clause, cap: int = 256) -> list[Clause]:
    """All repair-free clauses reachable by exhausting the repair literals
    (see _exhaust_repairs); a clause without any is returned as it is."""
    if not any(isinstance(l, RepairLit) for l in clause.body):
        return [clause]
    return _exhaust_repairs(clause, None, cap)


def partial_repairs(clause: Clause, origin: str, cap: int = 256) -> list[Clause]:
    """Exhaust only the repair literals of one origin, leaving the others in
    place as ordinary literals."""
    return _exhaust_repairs(clause, origin, cap)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def head_connected(clause: Clause) -> Clause:
    """Keep only body literals reachable from the head through shared terms."""
    connected_terms = set(clause.head.args)
    body = list(clause.body)
    kept: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, lit in enumerate(body):
            if i in kept:
                continue
            terms = set(literal_terms(lit))
            if terms & connected_terms:
                kept.add(i)
                connected_terms |= terms
                changed = True
    return Clause(clause.head, tuple(l for i, l in enumerate(body) if i in kept))


# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------

def print_term(t: Term) -> str:
    if isinstance(t, Variable):
        return f"V{t.id}"
    return "'%s'" % t.value.replace("'", "''")


def _print_atom(a: Atom) -> str:
    kind = {EqAtom: "eq", NeqAtom: "neq", SimAtom: "sim"}[type(a)]
    return f"{kind}({print_term(a.a)},{print_term(a.b)})"


def print_literal(lit: Literal) -> str:
    if isinstance(lit, Rel):
        return f"{lit.relation}({','.join(print_term(t) for t in lit.args)})"
    if isinstance(lit, Sim):
        return f"sim({print_term(lit.a)},{print_term(lit.b)})"
    if isinstance(lit, Eq):
        return f"eq({print_term(lit.a)},{print_term(lit.b)})"
    cond = ";".join(_print_atom(a) for a in lit.cond)
    return f"rep{{{cond}}}({print_term(lit.target)},{print_term(lit.replacement)})"


def print_clause(clause: Clause) -> str:
    head = print_literal(clause.head)
    if not clause.body:
        return head + "."
    return head + " :- " + ", ".join(print_literal(l) for l in clause.body) + "."


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ClauseError(f"parse error at position {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not (self.text[self.pos].isalpha() or self.text[self.pos] == "_"):
            self.error("expected identifier")
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def term(self) -> Term:
        self.skip_ws()
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    self.error("unterminated constant")
                ch = self.text[self.pos]
                if ch == "'":
                    if self.text.startswith("''", self.pos):
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    return Constant("".join(out))
                out.append(ch)
                self.pos += 1
        name = self.ident()
        if name.startswith("V") and name[1:].isdigit():
            return Variable(int(name[1:]))
        self.error(f"expected a term, got {name!r}")


def _parse_atom(tk: _Tokens) -> Atom:
    kind = tk.ident()
    if kind not in ("eq", "neq", "sim"):
        tk.error(f"expected condition atom, got {kind!r}")
    tk.expect("(")
    a = tk.term()
    tk.expect(",")
    b = tk.term()
    tk.expect(")")
    return {"eq": EqAtom, "neq": NeqAtom, "sim": SimAtom}[kind](a, b)


def _parse_literal(tk: _Tokens) -> Literal:
    name = tk.ident()
    if name == "rep":
        tk.expect("{")
        atoms = [_parse_atom(tk)]
        while tk.try_take(";"):
            atoms.append(_parse_atom(tk))
        tk.expect("}")
        tk.expect("(")
        target = tk.term()
        tk.expect(",")
        replacement = tk.term()
        tk.expect(")")
        cond = tuple(atoms)
        return RepairLit(cond, target, replacement, origin=condition_origin(cond))
    tk.expect("(")
    args = [tk.term()]
    while tk.try_take(","):
        args.append(tk.term())
    tk.expect(")")
    if name == "sim":
        if len(args) != 2:
            tk.error("sim takes two terms")
        return Sim(args[0], args[1])
    if name == "eq":
        if len(args) != 2:
            tk.error("eq takes two terms")
        return Eq(args[0], args[1])
    return Rel(name, tuple(args))


def parse_clause(text: str) -> Clause:
    tk = _Tokens(text)
    head = _parse_literal(tk)
    if not isinstance(head, Rel):
        tk.error("clause head must be a relation literal")
    body: list[Literal] = []
    if tk.try_take(":-"):
        body.append(_parse_literal(tk))
        while tk.try_take(","):
            body.append(_parse_literal(tk))
    tk.expect(".")
    tk.skip_ws()
    if tk.pos != len(tk.text):
        tk.error("trailing input after clause")
    clause = Clause(head, tuple(body))
    return _assign_groups(clause)


def _assign_groups(clause: Clause) -> Clause:
    """Rebuild group ids for parsed repair literals: matching-dependency
    literals sharing one condition form one group."""
    keys: dict[tuple, int] = {}
    body = []
    for lit in clause.body:
        if isinstance(lit, RepairLit) and lit.origin == "md":
            key = tuple(sorted((type(a).__name__, print_term(a.a), print_term(a.b)) for a in lit.cond))
            gid = keys.setdefault(key, len(keys))
            body.append(RepairLit(lit.cond, lit.target, lit.replacement, origin=lit.origin, group=gid))
        else:
            body.append(lit)
    return Clause(clause.head, tuple(body))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _renumber(clause: Clause) -> Clause:
    mapping: dict[Variable, Variable] = {}

    def rn(t: Term) -> Term:
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable(len(mapping))
            return mapping[t]
        return t

    def rn_lit(lit: Literal) -> Literal:
        if isinstance(lit, Rel):
            return Rel(lit.relation, tuple(rn(t) for t in lit.args))
        if isinstance(lit, Sim):
            return Sim(rn(lit.a), rn(lit.b))
        if isinstance(lit, Eq):
            return Eq(rn(lit.a), rn(lit.b))
        cond = tuple(type(a)(rn(a.a), rn(a.b)) for a in lit.cond)
        return RepairLit(cond, rn(lit.target), rn(lit.replacement), origin=lit.origin, group=lit.group)

    head = rn_lit(clause.head)
    return Clause(head, tuple(rn_lit(l) for l in clause.body))


def _shape_key(lit: Literal) -> str:
    masked = print_literal(
        _substitute_literal(lit, {v: Variable(0) for v in literal_vars(lit)}, any_term=False)
    )
    kind = {Rel: "0", Sim: "1", Eq: "2", RepairLit: "3"}[type(lit)]
    return kind + masked


def canonical(clause: Clause, sort: bool = False) -> Clause:
    """Renumber variables by first occurrence; with sort=True the body is
    first ordered by a name-independent shape key and re-sorted afterwards,
    which makes the form stable under both renaming and reordering for all
    but pathologically symmetric clauses."""
    if not sort:
        return _renumber(clause)
    body = sorted(clause.body, key=_shape_key)
    c = _renumber(Clause(clause.head, tuple(body)))
    for _ in range(2):
        body = sorted(c.body, key=print_literal)
        c2 = _renumber(Clause(c.head, tuple(body)))
        if c2 == c:
            break
        c = c2
    return c


def clause_key(clause: Clause, sort: bool = False) -> str:
    return print_clause(canonical(clause, sort=sort))


# ---------------------------------------------------------------------------
# canonical database instance
# ---------------------------------------------------------------------------

def canonical_instance(clause: Clause) -> store.Database:
    """The database whose tuples are the clause's relation literals, with
    variables rendered as distinct fresh constants. The head contributes the
    seed tuple of the target relation."""
    if any(isinstance(l, RepairLit) for l in clause.body):
        raise ClauseError("canonical instance of a clause with repair literals")

    def render(t: Term) -> str:
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
    db = store.Database(schema=schema)
    for name in rels:
        db.tables[name] = [store.Tuple(name, vals, tid=i) for i, vals in enumerate(rows[name])]
    store.build_indexes(db)
    return db
