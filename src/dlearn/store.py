"""In-memory relational store: schema, CSV loading, value indexes, selection.

The engine only ever needs two access paths: exact selection of tuples whose
attribute value lies in a constant set, and similarity selection through a
precomputed match index. Everything is immutable after load, so any number of
workers may read concurrently.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    domain: str  # "text" | "integer"


@dataclass(frozen=True)
class RelationDecl:
    name: str
    attributes: tuple[AttributeDecl, ...]

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attr_index(self, attr: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == attr:
                return i
        raise StoreError(f"relation {self.name} has no attribute {attr!r}")


@dataclass(frozen=True)
class Schema:
    relations: tuple[RelationDecl, ...]
    target: str

    def relation(self, name: str) -> RelationDecl:
        for r in self.relations:
            if r.name == name:
                return r
        raise StoreError(f"unknown relation {name!r}")

    def has_relation(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)

    @property
    def stored_relations(self) -> tuple[RelationDecl, ...]:
        return tuple(r for r in self.relations if r.name != self.target)


@dataclass(frozen=True)
class Tuple:
    relation: str
    values: tuple[str, ...]
    tid: int = 0


@dataclass(frozen=True)
class Example:
    """A training or test example: a tuple of the target relation."""

    relation: str
    values: tuple[str, ...]

    def key(self) -> str:
        """The example's identity: its values joined by commas, with any
        backslash or comma inside a value escaped by a backslash, so distinct
        value tuples never share a key."""
        return ",".join(v.replace("\\", "\\\\").replace(",", "\\,") for v in self.values)


_SCHEMA_LINE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\(\s*(.*?)\s*\)\s*$")
_ATTR_DECL = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(text|integer)$")
_INT_RE = re.compile(r"^-?\d+$")


def parse_schema(text: str, target: str) -> Schema:
    """Parse schema lines of the form ``relation(attr:domain, ...)``."""
    relations = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCHEMA_LINE.match(line)
        if not m:
            raise StoreError(f"schema line {lineno}: cannot parse {raw!r}")
        name, attr_text = m.group(1), m.group(2)
        if name in seen:
            raise StoreError(f"schema line {lineno}: duplicate relation {name!r}")
        seen.add(name)
        attrs = []
        attr_names = set()
        for part in attr_text.split(","):
            part = part.strip()
            am = _ATTR_DECL.match(part)
            if not am:
                raise StoreError(f"schema line {lineno}: bad attribute {part!r}")
            if am.group(1) in attr_names:
                raise StoreError(f"schema line {lineno}: duplicate attribute {am.group(1)!r}")
            attr_names.add(am.group(1))
            attrs.append(AttributeDecl(am.group(1), am.group(2)))
        relations.append(RelationDecl(name, tuple(attrs)))
    schema = Schema(tuple(relations), target)
    if not schema.has_relation(target):
        raise StoreError(f"target relation {target!r} not declared in schema")
    return schema


@dataclass
class Database:
    schema: Schema
    tables: dict[str, list[Tuple]] = field(default_factory=dict)
    indexes: dict[tuple[str, str], dict[str, list[int]]] = field(default_factory=dict)

    def tuples(self, relation: str) -> list[Tuple]:
        return self.tables.get(relation, [])

    def values_at(self, relation: str, attribute: str) -> list[str]:
        """Distinct values at (relation, attribute), first-seen order."""
        idx = self.indexes.get((relation, attribute))
        if idx is None:
            self.schema.relation(relation).attr_index(attribute)
            return []
        return list(idx.keys())


def build_indexes(db: Database) -> None:
    """Value indexes for every relation that has a table."""
    for rel in db.schema.relations:
        if rel.name not in db.tables:
            continue
        for pos, attr in enumerate(rel.attributes):
            index: dict[str, list[int]] = {}
            for t in db.tables[rel.name]:
                index.setdefault(t.values[pos], []).append(t.tid)
            db.indexes[(rel.name, attr.name)] = index


def load_csv(schema: Schema, data_dir: str) -> Database:
    """Load ``<relation>.csv`` for every stored relation under data_dir.

    Files are UTF-8, comma separated, RFC 4180 quoting, no header row. Tuple
    ids follow file order, which makes every downstream result order
    reproducible.
    """
    db = Database(schema=schema)
    for rel in schema.stored_relations:
        path = os.path.join(data_dir, rel.name + ".csv")
        if not os.path.exists(path):
            raise StoreError(f"missing CSV file for relation {rel.name!r}: {path}")
        rows: list[Tuple] = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, strict=True)
            try:
                for lineno, row in enumerate(reader, start=1):
                    if len(row) != rel.arity:
                        raise StoreError(
                            f"{path}:{lineno}: expected {rel.arity} fields, got {len(row)}"
                        )
                    for val, attr in zip(row, rel.attributes):
                        if attr.domain == "integer" and not _INT_RE.match(val.strip()):
                            raise StoreError(
                                f"{path}:{lineno}: attribute {attr.name!r} expects an integer, got {val!r}"
                            )
                    rows.append(Tuple(rel.name, tuple(row), tid=len(rows)))
            except csv.Error as exc:
                raise StoreError(f"{path}: malformed CSV: {exc}") from exc
        db.tables[rel.name] = rows
    build_indexes(db)
    return db


def from_tuples(schema: Schema, rows: dict[str, list[tuple[str, ...]]]) -> Database:
    """Build a database directly from value rows (tests, canonical instances)."""
    db = Database(schema=schema)
    for rel in schema.stored_relations:
        db.tables[rel.name] = [
            Tuple(rel.name, tuple(vals), tid=i) for i, vals in enumerate(rows.get(rel.name, []))
        ]
    build_indexes(db)
    return db


def dump_csv(db: Database, data_dir: str) -> None:
    os.makedirs(data_dir, exist_ok=True)
    for rel in db.schema.stored_relations:
        path = os.path.join(data_dir, rel.name + ".csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for t in db.tables.get(rel.name, []):
                writer.writerow(t.values)


def select_eq(db: Database, relation: str, attribute: str, values) -> list[Tuple]:
    """Tuples whose value at `attribute` is in `values`, in tuple-id order."""
    rel = db.schema.relation(relation)
    rel.attr_index(attribute)
    index = db.indexes.get((relation, attribute), {})
    tids = set()
    for v in values:
        tids.update(index.get(v, ()))
    table = db.tables.get(relation, [])
    return [table[t] for t in sorted(tids)]


@dataclass(frozen=True)
class SimSelection:
    """A similarity-selected tuple plus the value pair that matched it."""

    tuple: Tuple
    probe_value: str
    matched_value: str
    score: float
    pair: tuple[tuple[str, str], tuple[str, str]]


def select_sim(db: Database, relation: str, attribute: str, values, idx) -> list[SimSelection]:
    """Tuples whose value at `attribute` is index-similar to a probe value.

    Each result carries the (probe, matched, score) annotation that later
    turns into a similarity literal. Probe values are visited in sorted order
    and results are ordered by (tuple id, probe, matched).
    """
    rel = db.schema.relation(relation)
    rel.attr_index(attribute)
    index = db.indexes.get((relation, attribute), {})
    table = db.tables.get(relation, [])
    out = {}
    for probe in sorted(values):
        for other, score, pair in idx.matches(relation, attribute, probe):
            for tid in index.get(other, ()):
                key = (tid, probe, other)
                if key not in out:
                    out[key] = SimSelection(table[tid], probe, other, score, pair)
    return [out[k] for k in sorted(out)]
