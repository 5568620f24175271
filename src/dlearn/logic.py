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
replace x everywhere with v. Its condition c is a conjunction of the eq and
sim literals that a body uses, plus neq, which only a condition holds. A
clause with repair literals compactly stands for the set of repair-free
clauses reachable by applying or discarding them.
A repair literal is what it prints: one whose atoms are all sim comes from a
matching dependency (MD), any other from a CFD, and MD repair literals with
the same condition form one group, which fires as a unit. So a clause's text
describes it completely.

Terms are native values: a Variable is an int subclass and a Constant a str
subclass, so hashing them runs in C. Equality stays type-strict: a term
equals only a term of its own kind with the same id or value, never a raw
int or str, so terms and plain values can share dict and set keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .util import DisjointSet

# the default number of distinct clauses one repair expansion may reach
# before it raises RepairCapExceeded
DEFAULT_REPAIR_CAP = 256


class ClauseError(Exception):
    pass


class RepairCapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# terms, atoms, literals
# ---------------------------------------------------------------------------

class Variable(int):
    """A clause variable, printed V<id>.

    An int subclass: it hashes as its id, in C. It equals only a Variable
    with the same id, never a raw int or a Constant, so terms can share dict
    and set keys with plain values. `id` is the plain int. Build it
    positionally, `Variable(3)`.
    """

    __slots__ = ()
    __hash__ = int.__hash__
    id = property(int.__int__, doc="The variable's number, a plain int.")

    # the base comparison is bound as a default argument, so a dict probe
    # that reaches __eq__ pays no attribute lookup
    def __eq__(self, other, _eq=int.__eq__):
        return type(other) is Variable and _eq(self, other)

    def __ne__(self, other, _ne=int.__ne__):
        return type(other) is not Variable or _ne(self, other)

    def __repr__(self) -> str:
        return f"Variable(id={int(self)!r})"

    __str__ = __repr__


class Constant(str):
    """A constant value, printed single-quoted.

    A str subclass: it hashes as its value, in C. It equals only a Constant
    with the same value, never a raw str or a Variable. `value` is the plain
    str. Build it positionally, `Constant('x')`.
    """

    __slots__ = ()
    __hash__ = str.__hash__
    value = property(str.__str__, doc="The constant's text, a plain str.")

    def __eq__(self, other, _eq=str.__eq__):
        return type(other) is Constant and _eq(self, other)

    def __ne__(self, other, _ne=str.__ne__):
        return type(other) is not Constant or _ne(self, other)

    def __repr__(self) -> str:
        return f"Constant(value={str.__str__(self)!r})"

    __str__ = __repr__


Term = Variable | Constant


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
class Neq:
    """a and b differ: an atom of a repair condition, never a body literal."""

    a: Term
    b: Term


Atom = Eq | Neq | Sim
Condition = tuple


@dataclass(frozen=True)
class RepairLit:
    """Conditional replacement of `target` by `replacement`.

    The literal is its three fields, as it prints. `origin` ("md" or "cfd")
    is condition_origin(cond), set once when the literal is built; it takes
    no part in construction, equality or repr. Which literals fire together
    is decided from the condition too (group_key).
    """

    cond: Condition
    target: Term
    replacement: Term
    origin: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "origin", condition_origin(self.cond))


Literal = Rel | Sim | Eq | RepairLit


@dataclass(frozen=True)
class Clause:
    """A head and a body. Every other attribute is a cached property: built
    on its first use and kept in the object's own attribute dict for as long
    as the clause lives. They are not fields, so equality, hashing and
    printing ignore them, and a clause that is only ever matched onto builds
    no pattern parts, one that is only ever mapped no target parts.

    What theta-subsumption looks up in the clause mapped onto (the target):
    - closure: the EqClosure of its equality literals;
    - rels: its relation literals as (body index, literal) pairs, bucketed
      by (relation, arity);
    - reps: its repair literals as (body index, literal) pairs;
    - repair_links: per repair literal, its body index and the variables
      among its target and replacement, the links that reachable() follows
      from a region of the clause to the repair literals it touches;
    - groups: each repair literal's body index, mapped to the indices of
      its group (group_key) as one frozenset that the members share;
    - sim_pairs: the term pairs of its similarity literals, both ways round;
    - terms: its distinct terms, head first, in order of appearance.

    In the clause being mapped (the pattern):
    - body_vars: per body literal, its variables in order (repeats kept);
    - binders: body indices of the relation and repair literals;
    - constraints: body indices of the equality and similarity literals.

    And views: its coverage views, other than the clause itself (subsumption._view).
    A ground clause also keeps there the ARMG results computed against it
    (generalization.armg).
    """

    head: Rel
    body: tuple[Literal, ...] = ()

    @cached_property
    def closure(self) -> EqClosure:
        return EqClosure(self.body)

    @cached_property
    def rels(self) -> dict[tuple[str, int], list[tuple[int, Rel]]]:
        rels: dict[tuple[str, int], list[tuple[int, Rel]]] = {}
        for i, lit in enumerate(self.body):
            if isinstance(lit, Rel):
                rels.setdefault((lit.relation, len(lit.args)), []).append((i, lit))
        return rels

    @cached_property
    def reps(self) -> tuple[tuple[int, RepairLit], ...]:
        return tuple((i, lit) for i, lit in enumerate(self.body) if isinstance(lit, RepairLit))

    @cached_property
    def repair_links(self) -> tuple[tuple[int, frozenset[Variable]], ...]:
        # links run through variables only: a repair on a constant constrains
        # other literals only through its replacement variable
        return tuple((i, frozenset(t for t in (lit.target, lit.replacement)
                                   if isinstance(t, Variable)))
                     for i, lit in self.reps)

    @cached_property
    def groups(self) -> dict[int, frozenset[int]]:
        # a CFD literal is keyed by its own index, which no MD key equals
        members: dict = {}
        for i, lit in self.reps:
            key = group_key(lit)
            members.setdefault(i if key is None else key, []).append(i)
        return {i: group for group in map(frozenset, members.values()) for i in group}

    @cached_property
    def sim_pairs(self) -> frozenset:
        return frozenset(pair for lit in self.body if isinstance(lit, Sim)
                         for pair in ((lit.a, lit.b), (lit.b, lit.a)))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        terms = list(self.head.args)
        for lit in self.body:
            terms.extend(literal_terms(lit))
        return tuple(dict.fromkeys(terms))

    @cached_property
    def body_vars(self) -> tuple[tuple[Variable, ...], ...]:
        return tuple(tuple(literal_vars(lit)) for lit in self.body)

    @cached_property
    def binders(self) -> tuple[int, ...]:
        return tuple(i for i, lit in enumerate(self.body) if isinstance(lit, (Rel, RepairLit)))

    @cached_property
    def constraints(self) -> tuple[int, ...]:
        return tuple(i for i, lit in enumerate(self.body) if isinstance(lit, (Eq, Sim)))

    @cached_property
    def views(self) -> dict:
        return {}


Substitution = dict


def condition_origin(cond: Condition) -> str:
    """Repair conditions made only of similarity atoms come from matching
    dependencies; anything with an equality or inequality atom is CFD work."""
    return "md" if all(isinstance(a, Sim) for a in cond) else "cfd"


def group_key(lit: RepairLit) -> frozenset | None:
    """The set of condition atoms of an MD literal; None for a CFD literal,
    which applies alone. An MD condition may be empty: test with `is None`."""
    return frozenset(lit.cond) if lit.origin == "md" else None


def same_group(a: RepairLit, b: RepairLit) -> bool:
    """Matching-dependency repair literals whose conditions are equal as sets
    of atoms form a group and fire together (enforcing a similarity match
    identifies both sides at once); CFD repair literals always apply alone."""
    key = group_key(a)
    return a is b or (key is not None and key == group_key(b))


# ---------------------------------------------------------------------------
# walking helpers
# ---------------------------------------------------------------------------

def literal_terms(lit: Literal | Atom):
    if isinstance(lit, Rel):
        yield from lit.args
    elif isinstance(lit, RepairLit):
        for atom in lit.cond:
            yield atom.a
            yield atom.b
        yield lit.target
        yield lit.replacement
    else:
        yield lit.a
        yield lit.b


def literal_vars(lit: Literal):
    for t in literal_terms(lit):
        if isinstance(t, Variable):
            yield t


def clause_vars(clause: Clause) -> set:
    return {t for t in clause.terms if isinstance(t, Variable)}


def fresh_var(clause: Clause) -> Variable:
    """A variable numbered above every variable of the clause."""
    return Variable(max((v.id for v in clause_vars(clause)), default=-1) + 1)


def _substitute_literal(lit: Literal | Atom, mapping: dict) -> Literal | Atom:
    """The literal with every term rewritten through `mapping`: a term that
    is a key becomes its value, any other term stays. Terms are type-strict
    keys, so a mapping may rewrite constants as well as variables (repair
    application replaces constant targets) and never confuses the two."""
    get = mapping.get
    if isinstance(lit, Rel):
        return Rel(lit.relation, tuple(get(t, t) for t in lit.args))
    if isinstance(lit, RepairLit):
        cond = tuple(_substitute_literal(a, mapping) for a in lit.cond)
        return RepairLit(cond, get(lit.target, lit.target), get(lit.replacement, lit.replacement))
    return type(lit)(get(lit.a, lit.a), get(lit.b, lit.b))


def apply_substitution(clause: Clause, subst: Substitution) -> Clause:
    """The clause with every term of its head and body, repair conditions
    included, rewritten through `subst` (see _substitute_literal); the keys
    may be variables or constants."""
    head = _substitute_literal(clause.head, subst)
    return Clause(head, tuple(_substitute_literal(l, subst) for l in clause.body))


# ---------------------------------------------------------------------------
# equality closure and condition evaluation
# ---------------------------------------------------------------------------

class EqClosure:
    """Reflexive-symmetric-transitive closure of the equality literals of a
    body (EqClosure(clause.body)).

    Constants are equal exactly when they are the same value, unless equality
    literals merge their classes (a degenerate but representable clause).

    The classes are fixed at construction; there is no way to merge two
    later. Clause.closure shares one closure with every search against the
    clause, and apply_repair_literal shares a clause's with each child that
    keeps its equality literals, so nothing may change it after it is
    built. It keeps a flat map from each term of an equality literal to its
    class's root, so `find` and `same` are dict lookups that add nothing;
    any other term is alone in its class and is its own root.
    """

    def __init__(self, body=()):
        eqs = [lit for lit in body if isinstance(lit, Eq)]
        dsu = DisjointSet()
        for lit in eqs:
            dsu.union(lit.a, lit.b)
        self._root = {t: dsu.find(t) for lit in eqs for t in (lit.a, lit.b)}

    def find(self, a: Term):
        return self._root.get(a, a)

    def same(self, a: Term, b: Term) -> bool:
        # roots are the disjoint-set's own key objects, one per class
        root = self._root.get
        return root(a, a) is root(b, b) or a == b


def _sim_pairs(body, closure: EqClosure) -> frozenset:
    """The class pairs of a body's similarity literals under `closure`, both
    ways round."""
    find = closure.find
    return frozenset(pair for lit in body if isinstance(lit, Sim)
                     for pair in ((find(lit.a), find(lit.b)), (find(lit.b), find(lit.a))))


def _holds(cond: Condition, closure: EqClosure, sims: frozenset) -> bool:
    """Whether a repair condition holds in a clause, given the clause's
    equality closure and similarity pairs (_sim_pairs): sim(a, b) holds when
    a and b are equal or their classes are a pair."""
    same = closure.same
    for atom in cond:
        if isinstance(atom, Eq):
            if not same(atom.a, atom.b):
                return False
        elif isinstance(atom, Neq):
            if same(atom.a, atom.b):
                return False
        elif not (same(atom.a, atom.b) or (closure.find(atom.a), closure.find(atom.b)) in sims):
            return False
    return True


# ---------------------------------------------------------------------------
# repair application
# ---------------------------------------------------------------------------

def apply_repair_literal(clause: Clause, index: int, closure: EqClosure | None = None) -> Clause:
    """Apply (or discard) the repair literal at a body index.

    When its condition fails the literal is simply removed. When it holds,
    the whole group it belongs to fires at once: all group targets are
    replaced by their replacement variables in every literal and in the
    conditions of the remaining repair literals. Equality and similarity
    literals that mention a replaced term are removed rather than rewritten:
    the repair breaks the term's old relationships, and a fresh replacement
    value matches nothing. Finally, the repair literals whose condition is
    false in the child are dropped. A literal that mentions no replaced term
    stays the same object. `closure` is the clause's equality closure, when
    the caller has it.
    """
    body = clause.body
    if not (0 <= index < len(body)) or not isinstance(body[index], RepairLit):
        raise ClauseError(f"body index {index} is not a repair literal")
    lit = body[index]
    closure = closure or EqClosure(body)
    if not _holds(lit.cond, closure, _sim_pairs(body, closure)):
        return Clause(clause.head, body[:index] + body[index + 1:])
    group = clause.groups[index]
    mapping = {body[q].target: body[q].replacement for q in group}
    targets = mapping.keys()

    child = []
    dropped_eq = False
    for q, l in enumerate(body):
        if q in group:
            continue
        if targets.isdisjoint(literal_terms(l)):
            child.append(l)
        elif isinstance(l, Eq):
            dropped_eq = True
        elif not isinstance(l, Sim):
            child.append(_substitute_literal(l, mapping))
    head = clause.head if targets.isdisjoint(clause.head.args) else _substitute_literal(clause.head, mapping)
    if dropped_eq:  # Eq literals are only ever dropped: else the closure stays
        closure = EqClosure(child)
    sims = _sim_pairs(child, closure)
    return Clause(head, tuple([l for l in child
                               if not isinstance(l, RepairLit) or _holds(l.cond, closure, sims)]))


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


def _repair_positions(clause: Clause, origin: str | None) -> list[int]:
    """Body indices of the repair literals of one origin (of every origin
    when None): the literals an expansion step may apply, in body order."""
    return [i for i, l in enumerate(clause.body)
            if isinstance(l, RepairLit) and (origin is None or l.origin == origin)]


def _exhaust_repairs(clause: Clause, origin: str | None, cap: int) -> list[Clause]:
    """Depth-first over every application order of the repair literals of
    one origin (of every origin when None), with memoization on canonical
    clause form (clause_key). Results are deduplicated up to a renaming of
    variables and returned in a deterministic order; a full expansion also
    drops the restrictions left dangling. A clause without a repair literal
    to apply is returned as it is. Raises RepairCapExceeded when more than
    `cap` distinct results appear.

    Each distinct clause value is keyed once, however many application
    orders reach it, and the first clause reached with a form is kept. A
    clause's children share its equality closure, and all keys share one
    cache of printed literal forms, which lives for this call only."""
    if not _repair_positions(clause, origin):
        return [clause]
    forms: dict = {}
    keys: dict[Clause, str] = {}

    def key_of(c: Clause) -> str:
        if c not in keys:
            keys[c] = clause_key(c, cache=forms)
        return keys[c]

    results: dict[str, Clause] = {}
    seen: set[str] = set()
    stack = [clause]
    while stack:
        c = stack.pop()
        key = key_of(c)
        if key in seen:
            continue
        seen.add(key)
        positions = _repair_positions(c, origin)
        if positions:
            closure = EqClosure(c.body)
            stack.extend(apply_repair_literal(c, i, closure) for i in positions)
            continue
        if origin is None:
            c = drop_dangling_restrictions(c)
            key = key_of(c)
        results[key] = c
        if len(results) > cap:
            raise RepairCapExceeded(f"more than {cap} repaired clauses")
    return [results[k] for k in sorted(results)]


def repaired_clauses(clause: Clause, cap: int = DEFAULT_REPAIR_CAP) -> list[Clause]:
    """All repair-free clauses reachable by exhausting the repair literals
    (see _exhaust_repairs)."""
    return _exhaust_repairs(clause, None, cap)


def partial_repairs(clause: Clause, origin: str, cap: int = DEFAULT_REPAIR_CAP) -> list[Clause]:
    """Exhaust only the repair literals of one origin, leaving the others in
    place as ordinary literals."""
    return _exhaust_repairs(clause, origin, cap)


def first_partial_repair(clause: Clause, origin: str) -> Clause:
    """One member of partial_repairs(clause, origin), up to a renaming of
    variables, reached without enumerating the others: the clause at the end
    of the path that always applies the last of _repair_positions. That is
    the first path _exhaust_repairs walks, as its stack pops the last child
    first."""
    while positions := _repair_positions(clause, origin):
        clause = apply_repair_literal(clause, positions[-1])
    return clause


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def reachable(terms, linked) -> set:
    """The keys of the (key, term set) pairs in the sequence `linked` that
    are reachable from `terms` through shared terms: a pair is reached when
    its terms meet `terms` or the terms of a pair already reached."""
    pool = set(terms)
    kept: set = set()
    changed = True
    while changed:
        changed = False
        for key, linked_terms in linked:
            if key not in kept and not pool.isdisjoint(linked_terms):
                kept.add(key)
                pool |= linked_terms
                changed = True
    return kept


def head_reachable(head: Rel, indexed) -> set[int]:
    """The indices of the (index, literal) pairs in `indexed` whose literal
    is reachable from the head through shared terms."""
    return reachable(head.args, [(i, set(literal_terms(lit))) for i, lit in indexed])


def head_connected(clause: Clause) -> Clause:
    """Keep only body literals reachable from the head through shared terms."""
    kept = head_reachable(clause.head, enumerate(clause.body))
    return Clause(clause.head, tuple(l for i, l in enumerate(clause.body) if i in kept))


# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------

def print_term(t: Term) -> str:
    if isinstance(t, Variable):
        return f"V{t.id}"
    return "'%s'" % t.value.replace("'", "''")


_NAME = {Sim: "sim", Eq: "eq", Neq: "neq"}


def print_literal(lit: Literal | Atom, term=print_term) -> str:
    """The literal's (or condition atom's) text, with each term printed by
    `term`."""
    if isinstance(lit, Rel):
        return f"{lit.relation}({','.join(term(t) for t in lit.args)})"
    if isinstance(lit, RepairLit):
        cond = ";".join(print_literal(a, term) for a in lit.cond)
        return f"rep{{{cond}}}({term(lit.target)},{term(lit.replacement)})"
    return f"{_NAME[type(lit)]}({term(lit.a)},{term(lit.b)})"


def _clause_text(head: str, body) -> str:
    if not body:
        return head + "."
    return head + " :- " + ", ".join(body) + "."


def print_clause(clause: Clause) -> str:
    return _clause_text(print_literal(clause.head), [print_literal(l) for l in clause.body])


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
            try:
                return Variable(int(name[1:]))
            except ValueError:  # digits int() does not read, such as '²'
                pass
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
    return {"eq": Eq, "neq": Neq, "sim": Sim}[kind](a, b)


def _parse_literal(tk: _Tokens) -> Literal:
    name = tk.ident()
    if name == "rep":
        tk.expect("{")
        # an MD literal's condition may be empty: `rep{}` prints it
        atoms = [] if tk.peek() == "}" else [_parse_atom(tk)]
        while atoms and tk.try_take(";"):
            atoms.append(_parse_atom(tk))
        tk.expect("}")
        tk.expect("(")
        target = tk.term()
        tk.expect(",")
        replacement = tk.term()
        tk.expect(")")
        return RepairLit(tuple(atoms), target, replacement)
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
    return Clause(head, tuple(body))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _template_term(t: Term) -> str:
    return "V%d" if isinstance(t, Variable) else print_term(t).replace("%", "%%")


_KIND = {Rel: "0", Sim: "1", Eq: "2", RepairLit: "3"}


def _literal_form(lit: Literal, cache: dict) -> tuple:
    """(shape key, template, variable ids, lit) of a literal, from `cache`
    when it holds the literal. `template % ids` prints the literal, and
    renumbered ids print its renumbered copy; the shape key is its kind
    followed by its text with every variable printed as V0, a
    name-independent sort key. The cache is keyed by object identity, and
    each entry holds its literal, so an id stays unique while the cache
    lives."""
    form = cache.get(id(lit))
    if form is None:
        ids = tuple(v.id for v in literal_vars(lit))
        template = print_literal(lit, _template_term)
        form = cache[id(lit)] = (_KIND[type(lit)] + template % ((0,) * len(ids)), template, ids, lit)
    return form


def _render(forms) -> list[str]:
    """Print literal forms (head first) with their variables renumbered by
    first occurrence."""
    num: dict[int, int] = {}
    texts = []
    for _, template, ids, _ in forms:
        for i in ids:
            if i not in num:
                num[i] = len(num)
        texts.append(template % tuple(map(num.__getitem__, ids)))
    return texts


def _canonical_texts(clause: Clause, cache: dict) -> list[str]:
    """The printed literals (head first) of the clause renumbered in
    canonical order. The body is first ordered by shape key and then by
    printed literal, renumbering after each ordering, until the renumbered
    clause no longer changes (at most twice)."""
    head = _literal_form(clause.head, cache)
    body = sorted((_literal_form(l, cache) for l in clause.body), key=itemgetter(0))
    texts = _render([head, *body])
    for _ in range(2):
        body = [f for _, f in sorted(zip(texts[1:], body), key=itemgetter(0))]
        texts2 = _render([head, *body])
        if texts2 == texts:
            break
        texts = texts2
    return texts


def canonical(clause: Clause) -> Clause:
    """The clause with its variables renumbered by first occurrence after
    ordering the body by a name-independent shape key and re-sorting it
    afterwards, which makes the form stable under both renaming and
    reordering for all but pathologically symmetric clauses: the clause
    clause_key prints."""
    return parse_clause(clause_key(clause))


def clause_key(clause: Clause, cache: dict | None = None) -> str:
    """print_clause(canonical(clause)), computed from printed literal forms.
    `cache` holds those forms by literal object; calls that pass the same
    dict print each literal object they share once (it only grows)."""
    texts = _canonical_texts(clause, {} if cache is None else cache)
    return _clause_text(texts[0], texts[1:])
