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
Every other MD or CFD form is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import logic
from .store import Schema

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
class TuplePattern:
    cells: tuple[str | None, ...]  # None = wildcard, str = constant

    def pretty(self) -> str:
        parts = [WILDCARD if c is None else "'%s'" % c.replace("'", "''") for c in self.cells]
        return "(" + ",".join(parts[:-1]) + " || " + parts[-1] + ")"


@dataclass(frozen=True)
class CFD:
    """Functional dependency X -> rhs restricted by a tuple pattern whose
    right-hand cell is the wildcard.

    x_positions / rhs_position are the argument positions of the attributes
    in literals of `relation`, resolved against the schema at parse time.
    """

    relation: str
    lhs: tuple[str, ...]
    rhs: str
    pattern: TuplePattern
    x_positions: tuple[int, ...]
    rhs_position: int

    def pretty(self) -> str:
        return f"cfd: {self.relation} : {','.join(self.lhs)} -> {self.rhs} : {self.pattern.pretty()}"


def make_cfd(schema: Schema, relation: str, lhs, rhs: str, cells) -> CFD:
    """Build a CFD with attribute positions resolved against the schema."""
    rel = schema.relation(relation)
    lhs = tuple(lhs)
    cells = tuple(cells)
    if len(cells) != len(lhs) + 1:
        raise ConstraintError(f"pattern has {len(cells)} cells for {len(lhs)} + 1 attributes")
    if cells[-1] is not None:
        raise ConstraintError(f"the right-hand cell must be '_', as in '{_CFD_FORM}'")
    if rhs in lhs or len(set(lhs)) != len(lhs):
        raise ConstraintError("CFD attributes must be distinct")
    return CFD(
        relation=relation,
        lhs=lhs,
        rhs=rhs,
        pattern=TuplePattern(cells),
        x_positions=tuple(rel.attr_index(x) for x in lhs),
        rhs_position=rel.attr_index(rhs),
    )


_MD_FORM = "md: R1[A] ~ R2[B] -> R1[A] <-> R2[B]"
_CFD_FORM = "cfd: R : X1,...,Xk -> A : (p1,...,pk || _)"
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


def _parse_cells(text: str, lineno: int) -> list[str | None]:
    cells: list[str | None] = []
    for raw in _split_unquoted(text, ","):
        cell = raw.strip()
        constant = _CONSTANT_RE.fullmatch(cell)
        if cell == WILDCARD:
            cells.append(None)
        elif constant:
            cells.append(constant.group(1).replace("''", "'"))
        else:
            raise ConstraintError(f"line {lineno}: bad pattern cell {cell!r}")
    return cells


def _check_attr(schema: Schema | None, rel: str, attr: str, lineno: int) -> None:
    if schema is None:
        return
    if not schema.has_relation(rel):
        raise ConstraintError(f"line {lineno}: unknown relation {rel!r}")
    try:
        schema.relation(rel).attr_index(attr)
    except Exception:
        raise ConstraintError(f"line {lineno}: relation {rel!r} has no attribute {attr!r}") from None


def parse_constraints(text: str, schema: Schema | None = None) -> tuple[list[MD], list[CFD]]:
    mds: list[MD] = []
    cfds: list[CFD] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_unquoted(raw, "#")[0].strip()
        if not line:
            continue
        if line.startswith("md:"):
            m = _MD_RE.match(line)
            if not m:
                raise ConstraintError(f"line {lineno}: expected '{_MD_FORM}', got {raw!r}")
            r1, a, r2, b = m.groups()
            _check_attr(schema, r1, a, lineno)
            _check_attr(schema, r2, b, lineno)
            mds.append(MD(((r1, a), (r2, b))))
        elif line.startswith("cfd:"):
            m = _CFD_RE.match(line)
            if not m:
                raise ConstraintError(f"line {lineno}: expected '{_CFD_FORM}', got {raw!r}")
            rel, x_text, rhs_attr, cell_text = m.groups()
            xs = [x.strip() for x in x_text.split(",") if x.strip()]
            if not xs:
                raise ConstraintError(f"line {lineno}: CFD left-hand side is empty")
            halves = _split_unquoted(cell_text, "||")
            if len(halves) != 2:
                raise ConstraintError(f"line {lineno}: CFD pattern needs one '||' before the right-hand cell")
            cells = [cell for half in halves for cell in _parse_cells(half, lineno)]
            if schema is None:
                raise ConstraintError(f"line {lineno}: CFDs need a schema to resolve attribute positions")
            _check_attr(schema, rel, rhs_attr, lineno)
            for x in xs:
                _check_attr(schema, rel, x, lineno)
            try:
                cfds.append(make_cfd(schema, rel, xs, rhs_attr, cells))
            except ConstraintError as exc:
                raise ConstraintError(f"line {lineno}: {exc}") from None
        else:
            raise ConstraintError(f"line {lineno}: expected 'md:' or 'cfd:', got {raw!r}")
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


def _term_matches_cell(term: logic.Term, cell: str | None, closure) -> bool:
    if cell is None:
        return True
    const = logic.Constant(cell)
    return term == const or closure.same(term, const)


def find_cfd_violations(body, cfd: CFD, eq_closure, alternatives=None) -> list[CfdViolation]:
    """All unordered literal pairs of cfd.relation violating the dependency.

    Term identity is decided by the equality closure of the clause, so split
    variables linked by induced equality literals still count as equal. When
    `alternatives` maps a term to candidate replacement terms, states
    reachable by choosing a replacement are searched as well; that is how
    violations induced by earlier repair literals are found. At each X
    position the first term pair in option order (the term itself, then its
    alternatives) that agrees and matches the pattern stands for the pair.
    Results are ordered by literal index pair.
    """
    alternatives = alternatives or {}
    rel_lits = [(i, lit) for i, lit in enumerate(body)
                if isinstance(lit, logic.Rel) and lit.relation == cfd.relation
                and len(lit.args) > max(cfd.rhs_position, *cfd.x_positions)]
    out: list[CfdViolation] = []

    def options(term):
        return dict.fromkeys([term, *alternatives.get(term, ())])

    for ai in range(len(rel_lits)):
        for bi in range(ai + 1, len(rel_lits)):
            i, l1 = rel_lits[ai]
            j, l2 = rel_lits[bi]
            chosen_x = []
            for p, cell in zip(cfd.x_positions, cfd.pattern.cells):
                pair = next(((t1, t2)
                             for t1 in options(l1.args[p])
                             for t2 in options(l2.args[p])
                             if eq_closure.same(t1, t2)
                             and _term_matches_cell(t1, cell, eq_closure)
                             and _term_matches_cell(t2, cell, eq_closure)), None)
                if pair is None:
                    break
                chosen_x.append(pair)
            else:
                chosen_x = tuple(chosen_x)
                out += [CfdViolation(i, j, chosen_x, (z, t))
                        for z in options(l1.args[cfd.rhs_position])
                        for t in options(l2.args[cfd.rhs_position])
                        if not eq_closure.same(z, t)]
    return out
