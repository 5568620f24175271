"""Matching dependencies and conditional functional dependencies.

Constraint DSL, one constraint per line, `#` comments:

    md: R1[A1,...,An] ~ R2[B1,...,Bn] -> R1[C] <-> R2[D]
    cfd: R : X1,...,Xk -> A : (p1,...,pk || pA)

where each pattern cell p is `_` (wildcard) or a single-quoted constant, in
which `''` stands for a quote. Cells split at `,` and `||`, and `#` starts a
comment, only outside constants. A constant cannot hold a line break. A
matching dependency with several attribute pairs on the right-hand side is
split into one dependency per pair during parsing.
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
    """Similar left-hand values force the right-hand values to be identified."""

    lhs: tuple[AttrPair, ...]
    rhs: AttrPair

    def pretty(self) -> str:
        (r1, _), (r2, _) = self.lhs[0]
        left = ",".join(a for (_, a), _ in self.lhs)
        right = ",".join(b for _, (_, b) in self.lhs)
        (cr1, c), (cr2, d) = self.rhs
        return f"md: {r1}[{left}] ~ {r2}[{right}] -> {cr1}[{c}] <-> {cr2}[{d}]"


@dataclass(frozen=True)
class TuplePattern:
    cells: tuple[str | None, ...]  # None = wildcard, str = constant

    def pretty(self) -> str:
        parts = [WILDCARD if c is None else "'%s'" % c.replace("'", "''") for c in self.cells]
        return "(" + ",".join(parts[:-1]) + " || " + parts[-1] + ")"


@dataclass(frozen=True)
class CFD:
    """Functional dependency X -> rhs restricted by a tuple pattern.

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


_MD_RE = re.compile(
    r"^md:\s*(\w+)\[([^\]]*)\]\s*~\s*(\w+)\[([^\]]*)\]\s*->\s*(\w+)\[([^\]]*)\]\s*<->\s*(\w+)\[([^\]]*)\]$"
)
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


def _attr_list(text: str) -> list[str]:
    return [a.strip() for a in text.split(",") if a.strip()]


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
                raise ConstraintError(f"line {lineno}: cannot parse MD {raw!r}")
            r1, a_text, r2, b_text, c1, c_text, c2, d_text = m.groups()
            lhs_a, lhs_b = _attr_list(a_text), _attr_list(b_text)
            rhs_c, rhs_d = _attr_list(c_text), _attr_list(d_text)
            if not lhs_a or len(lhs_a) != len(lhs_b):
                raise ConstraintError(f"line {lineno}: MD left-hand sides must pair up and be non-empty")
            if not rhs_c or len(rhs_c) != len(rhs_d):
                raise ConstraintError(f"line {lineno}: MD right-hand sides must pair up and be non-empty")
            if c1 != r1 or c2 != r2:
                raise ConstraintError(f"line {lineno}: MD right-hand relations must match the left-hand ones")
            for a in lhs_a:
                _check_attr(schema, r1, a, lineno)
            for b in lhs_b:
                _check_attr(schema, r2, b, lineno)
            lhs = tuple(((r1, a), (r2, b)) for a, b in zip(lhs_a, lhs_b))
            for c, d in zip(rhs_c, rhs_d):
                _check_attr(schema, r1, c, lineno)
                _check_attr(schema, r2, d, lineno)
                mds.append(MD(lhs=lhs, rhs=((r1, c), (r2, d))))
        elif line.startswith("cfd:"):
            m = _CFD_RE.match(line)
            if not m:
                raise ConstraintError(f"line {lineno}: cannot parse CFD {raw!r}")
            rel, x_text, rhs_attr, cell_text = m.groups()
            xs = _attr_list(x_text)
            if not xs:
                raise ConstraintError(f"line {lineno}: CFD left-hand side is empty")
            halves = _split_unquoted(cell_text, "||")
            if len(halves) != 2:
                raise ConstraintError(f"line {lineno}: CFD pattern needs one '||' before the right-hand cell")
            x_cells_text, rhs_cell_text = halves
            cells = _parse_cells(x_cells_text, lineno) + _parse_cells(rhs_cell_text, lineno)
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
    _reject_conflicting_cfds(cfds)
    return mds, cfds


def _reject_conflicting_cfds(cfds: list[CFD]) -> None:
    """Cheap sanity check: same relation, X list and X pattern but conflicting
    constant right-hand cells cannot both be satisfied."""
    seen: dict[tuple, str] = {}
    for cfd in cfds:
        x_cells = cfd.pattern.cells[:-1]
        rhs_cell = cfd.pattern.cells[-1]
        if rhs_cell is None:
            continue
        key = (cfd.relation, cfd.lhs, x_cells, cfd.rhs)
        if key in seen and seen[key] != rhs_cell:
            raise ConstraintError(
                f"inconsistent CFDs on {cfd.relation}: {seen[key]!r} vs {rhs_cell!r} for the same pattern"
            )
        seen[key] = rhs_cell


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
