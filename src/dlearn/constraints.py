"""Matching dependencies and conditional functional dependencies.

Constraint DSL, one constraint per line, `#` comments:

    md: R1[A] ~ R2[B] -> R1[A] <-> R2[B]
    cfd: R : X1,...,Xk -> A : (p1,...,pk || _)

An MD says that similar values of R1[A] and R2[B] stand for one value: the
engine unifies the matched values themselves. A CFD says that tuples of R
that agree on X and match the pattern agree on A; each X cell p is `_`
(wildcard) or a single-quoted constant, in which `''` stands for a quote,
and the right-hand cell is `_`. Cells split at `,` and `||`, and `#` starts
a comment, only outside constants. A constant cannot hold a line break.
Every other MD or CFD form is rejected. Constraints always parse against
the schema, and a parsed CFD holds only its X pattern and the positions of
its attributes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import logic
from .store import Schema, StoreError

AttrPair = tuple[tuple[str, str], tuple[str, str]]

WILDCARD = "_"


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class MD:
    """Similar values of the pair's two attributes are unified."""

    pair: AttrPair

    def pretty(self) -> str:
        (r1, a), (r2, b) = self.pair
        return f"md: {r1}[{a}] ~ {r2}[{b}] -> {r1}[{a}] <-> {r2}[{b}]"


@dataclass(frozen=True)
class CFD:
    """Functional dependency X -> rhs under a pattern of one cell per X
    attribute (None for `_`, else a constant); the right-hand cell is `_`.
    x_positions / rhs_position are the attributes' argument positions in
    literals of `relation`, resolved against the schema by make_cfd."""

    relation: str
    lhs: tuple[str, ...]
    rhs: str
    cells: tuple[str | None, ...]
    x_positions: tuple[int, ...]
    rhs_position: int

    def pretty(self) -> str:
        cells = ",".join(WILDCARD if c is None else "'%s'" % c.replace("'", "''")
                         for c in self.cells)
        return f"cfd: {self.relation} : {','.join(self.lhs)} -> {self.rhs} : ({cells} || _)"


def _position(schema: Schema, relation: str, attr: str) -> int:
    if not schema.has_relation(relation):
        raise ConstraintError(f"unknown relation {relation!r}")
    try:
        return schema.relation(relation).attr_index(attr)
    except StoreError:
        raise ConstraintError(f"relation {relation!r} has no attribute {attr!r}") from None


def make_cfd(schema: Schema, relation: str, lhs, rhs: str, cells) -> CFD:
    """The CFD lhs -> rhs over `relation` with the X cells `cells`: its
    relation, attributes (rhs first), cell count and distinctness checked in
    that order, and its attribute positions resolved against the schema."""
    lhs, cells = tuple(lhs), tuple(cells)
    rhs_position = _position(schema, relation, rhs)
    x_positions = tuple(_position(schema, relation, x) for x in lhs)
    if len(cells) != len(lhs):
        raise ConstraintError(f"pattern has {len(cells) + 1} cells for {len(lhs)} + 1 attributes")
    if rhs in lhs or len(set(lhs)) != len(lhs):
        raise ConstraintError("CFD attributes must be distinct")
    return CFD(relation, lhs, rhs, cells, x_positions, rhs_position)


_MD_FORM = "md: R1[A] ~ R2[B] -> R1[A] <-> R2[B]"
_CFD_FORM = "cfd: R : X1,...,Xk -> A : (p1,...,pk || _)"
_ONE_BAR = "CFD pattern needs one '||' before the right-hand cell"
# the right-hand side repeats the matched pair
_MD_RE = re.compile(r"^md:\s*(\w+)\[\s*(\w+)\s*\]\s*~\s*(\w+)\[\s*(\w+)\s*\]"
                    r"\s*->\s*\1\[\s*\2\s*\]\s*<->\s*\3\[\s*\4\s*\]$")
_CFD_RE = re.compile(r"^cfd:\s*(\w+)\s*:\s*(.*?)\s*->\s*(\w+)\s*:\s*\((.*)\)$")
_CONSTANT_RE = re.compile(r"'((?:[^']|'')*)'")


def _split_unquoted(text: str, sep: str) -> list[str]:
    """`text` split at every `sep` that stands outside a quoted constant."""
    parts, start, pos = [], 0, 0
    while (i := text.find(sep, pos)) >= 0:
        quote = text.find("'", pos, i)
        if quote >= 0:
            # an unterminated constant runs to the end of the text
            constant = _CONSTANT_RE.match(text, quote)
            pos = constant.end() if constant else len(text)
            continue
        parts.append(text[start:i])
        start = pos = i + len(sep)
    parts.append(text[start:])
    return parts


def _parse_cells(text: str) -> list[str | None]:
    cells: list[str | None] = []
    for raw in _split_unquoted(text, ","):
        cell = raw.strip()
        constant = _CONSTANT_RE.fullmatch(cell)
        if cell == WILDCARD:
            cells.append(None)
        elif constant:
            cells.append(constant.group(1).replace("''", "'"))
        else:
            raise ConstraintError(f"bad pattern cell {cell!r}")
    return cells


def _parse_line(line: str, raw: str, schema: Schema) -> MD | CFD:
    if line.startswith("md:"):
        m = _MD_RE.match(line)
        if not m:
            raise ConstraintError(f"expected '{_MD_FORM}', got {raw!r}")
        r1, a, r2, b = m.groups()
        _position(schema, r1, a)
        _position(schema, r2, b)
        return MD(((r1, a), (r2, b)))
    if not line.startswith("cfd:"):
        raise ConstraintError(f"expected 'md:' or 'cfd:', got {raw!r}")
    m = _CFD_RE.match(line)
    if not m:
        raise ConstraintError(f"expected '{_CFD_FORM}', got {raw!r}")
    rel, x_text, rhs_attr, cell_text = m.groups()
    xs = [x.strip() for x in x_text.split(",") if x.strip()]
    if not xs:
        raise ConstraintError("CFD left-hand side is empty")
    halves = _split_unquoted(cell_text, "||")
    if len(halves) != 2:
        raise ConstraintError(_ONE_BAR)
    left, right = map(_parse_cells, halves)
    cfd = make_cfd(schema, rel, xs, rhs_attr, (left + right)[:-1])
    # checked last, so that a bad attribute or cell count is reported first
    if len(right) != 1:
        raise ConstraintError(_ONE_BAR)
    if right[0] is not None:
        raise ConstraintError(f"the right-hand cell must be '_', as in '{_CFD_FORM}'")
    return cfd


def parse_constraints(text: str, schema: Schema) -> tuple[list[MD], list[CFD]]:
    """The MDs and CFDs of a constraint file, resolved against the schema.
    An error names its line."""
    mds, cfds = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_unquoted(raw, "#")[0].strip()
        if not line:
            continue
        try:
            constraint = _parse_line(line, raw, schema)
        except ConstraintError as exc:
            raise ConstraintError(f"line {lineno}: {exc}") from None
        (mds if isinstance(constraint, MD) else cfds).append(constraint)
    return mds, cfds


def print_constraints(mds, cfds) -> str:
    lines = [md.pretty() for md in mds] + [cfd.pretty() for cfd in cfds]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CfdViolation:
    """Two body literals of a CFD's relation that agree on X (and match the
    pattern) while their right-hand terms differ."""

    first: int
    second: int
    x_terms: tuple[tuple[logic.Term, logic.Term], ...]
    rhs_terms: tuple[logic.Term, logic.Term]


def cfd_literals(body, cfd: CFD) -> list[int]:
    """Body positions of the relation literals that cfd constrains: those of
    its relation that reach its X and right-hand positions."""
    reach = max(cfd.rhs_position, *cfd.x_positions)
    return [i for i, lit in enumerate(body)
            if isinstance(lit, logic.Rel) and lit.relation == cfd.relation and len(lit.args) > reach]


def swapped_both_ways(z, t, swaps) -> bool:
    """Whether the (target, replacement) pairs `swaps` replace z by t and t
    by z: a violation over the right-hand terms (z, t) is then repaired."""
    return (z, t) in swaps and (t, z) in swaps


def find_cfd_violations(body, cfd: CFD, eq_closure, alternatives=None, handled=frozenset(),
                        positions=None) -> list[CfdViolation]:
    """All unordered literal pairs of cfd.relation violating the dependency.

    Term identity is decided by the equality closure of the clause, so split
    variables linked by induced equality literals still count as equal.
    `eq_closure` maps a term to its class root by `find`: a logic.EqClosure,
    or the util.DisjointSet that inject_cfd_repairs grows. When
    `alternatives` maps a term to candidate replacement terms, states
    reachable by choosing a replacement are searched as well; that is how
    violations induced by earlier repair literals are found. At each X
    position the first term pair in option order (the term itself, then its
    alternatives) that agrees and matches the pattern stands for the pair.
    Results are ordered by literal index pair.

    A right-hand pair that the set `handled` swaps both ways
    (swapped_both_ways) is left out; inject_cfd_repairs, which passes its
    CFD swap pairs, says why that is exact. `positions` lists the body
    positions of cfd's literals (cfd_literals when None). Each literal's
    options and their classes are found once per call, not once per pair.
    """
    alternatives = alternatives or {}
    if positions is None:
        positions = cfd_literals(body, cfd)
    # each class root gets a small int, so that comparing classes costs no
    # call of a term's __eq__
    find, class_ids = eq_closure.find, {}

    def options(term):
        return [(option, class_ids.setdefault(find(option), len(class_ids)))
                for option in dict.fromkeys([term, *alternatives.get(term, ())])]

    cell_classes = [None if cell is None
                    else class_ids.setdefault(find(logic.Constant(cell)), len(class_ids))
                    for cell in cfd.cells]

    # per literal: at each X position, the first option of each class among
    # the options that match the cell (the first agreeing pair in option
    # order is the first class of one side that the other side has), and
    # the right-hand options
    lits = []
    for i in positions:
        args = body[i].args
        xs = []
        for p, cell_class in zip(cfd.x_positions, cell_classes):
            first: dict = {}
            for option, cls in options(args[p]):
                if cell_class is None or cls == cell_class:
                    first.setdefault(cls, option)
            xs.append(first)
        lits.append((i, xs, options(args[cfd.rhs_position])))

    out: list[CfdViolation] = []
    for ai, (i, xs1, rhs1) in enumerate(lits):
        for j, xs2, rhs2 in lits[ai + 1:]:
            chosen_x = []
            for first1, first2 in zip(xs1, xs2):
                pair = next(((t1, first2[cls]) for cls, t1 in first1.items() if cls in first2),
                            None)
                if pair is None:
                    break
                chosen_x.append(pair)
            else:
                chosen_x = tuple(chosen_x)
                out += [CfdViolation(i, j, chosen_x, (z, t))
                        for z, z_class in rhs1 for t, t_class in rhs2
                        if z_class != t_class and not swapped_both_ways(z, t, handled)]
    return out
