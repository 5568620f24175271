"""Seeded generators for micro databases and clause pairs, shared between the
module tests and the acceptance suite."""

from __future__ import annotations

import random

from dlearn import constraints, generalization, logic, saturation, store, textsim
from dlearn.store import Example

MICRO_SCHEMA_TEXT = """\
a(k:text, x:text)
b(k:text, y:text)
link(k:text, j:text)
c(j:text, z:text)
t(v:text)
"""


def micro_schema():
    return store.parse_schema(MICRO_SCHEMA_TEXT, target="t")


def random_micro_db(rng: random.Random, with_cfd: bool = False, n_mds: int | None = None):
    """A small star-shaped database with a target relation joined to the rest
    only through an explicit similarity index.

    Returns (db, mds, cfds, idx, examples). x values of relation `a` (and y
    of `b` for a second dependency) are the similarity-matched attributes;
    the index pairs are chosen at random rather than computed from strings,
    so tests control exactly what matches what.
    """
    schema = micro_schema()
    n_keys = rng.randint(2, 4)
    keys = [f"k{i}" for i in range(n_keys)]
    xs = [f"x{i}" for i in range(rng.randint(2, 4))]
    ys = [f"y{i}" for i in range(rng.randint(1, 3))]
    js = [f"j{i}" for i in range(rng.randint(1, 2))]
    zs = [f"z{i}" for i in range(rng.randint(1, 3))]
    rows = {
        "a": [(rng.choice(keys), rng.choice(xs)) for _ in range(rng.randint(1, 4))],
        "b": [(rng.choice(keys), rng.choice(ys)) for _ in range(rng.randint(0, 3))],
        "link": [(rng.choice(keys), rng.choice(js)) for _ in range(rng.randint(0, 2))],
        "c": [(rng.choice(js), rng.choice(zs)) for _ in range(rng.randint(1, 3))],
    }
    db = store.from_tuples(schema, rows)

    md_lines = ["md: t[v] ~ a[x] -> t[v] <-> a[x]"]
    if (n_mds if n_mds is not None else rng.randint(1, 2)) > 1:
        md_lines.append("md: t[v] ~ b[y] -> t[v] <-> b[y]")
    mds, _ = constraints.parse_constraints("\n".join(md_lines), schema)

    cfds = []
    if with_cfd:
        # the dependency lives on a relation without a matching dependency
        _, cfds = constraints.parse_constraints("cfd: c : j -> z : (_ || _)", schema)

    examples = [Example("t", (f"e{i}",)) for i in range(rng.randint(1, 3))]
    entries = {}
    pair_a = (("t", "v"), ("a", "x"))
    table_a = {}
    for ex in examples:
        matched = [x for x in xs if rng.random() < 0.6]
        if matched:
            table_a[ex.values[0]] = [(x, round(0.7 + 0.01 * i, 3)) for i, x in enumerate(matched)]
    if table_a:
        entries[pair_a] = table_a
    if len(mds) > 1:
        table_b = {}
        for ex in examples:
            matched = [y for y in ys if rng.random() < 0.4]
            if matched:
                table_b[ex.values[0]] = [(y, 0.75) for y in matched]
        if table_b:
            entries[(("t", "v"), ("b", "y"))] = table_b
    idx = textsim.SimilarityIndex(k_m=5, threshold=0.5, entries=entries)
    return db, mds, cfds, idx, examples


def random_drop_variant(clause: logic.Clause, rng: random.Random, max_drops: int = 3) -> logic.Clause:
    """Generalize a clause by a few random drops, the way the learner would."""
    ordered = generalization.order_clause(clause)
    for _ in range(rng.randint(0, max_drops)):
        body = ordered.clause.body
        if not body:
            break
        rel_idx = [i for i, lit in enumerate(body) if isinstance(lit, logic.Rel)]
        candidates = rel_idx if rel_idx and rng.random() < 0.8 else list(range(len(body)))
        ordered = generalization.drop_with_repair(ordered, rng.choice(candidates))
    return ordered.clause


def clause_pair(rng: random.Random, with_cfd: bool = False, same_example: bool = False):
    """(C, D): a generalized variabilized clause and a ground bottom clause
    over one random micro database. With same_example=True both come from the
    same seed example, the regime of the coverage procedures."""
    db, mds, cfds, idx, examples = random_micro_db(rng, with_cfd=with_cfd)
    cfg = saturation.SaturationConfig(d=2, sample_size=100, rng_seed=rng.randrange(2 ** 31))
    e1 = rng.choice(examples)
    e2 = e1 if same_example else rng.choice(examples)
    c = saturation.bottom_clause(e1, db, mds, cfds, idx, cfg)
    c = random_drop_variant(c, rng)
    d = saturation.ground_bottom_clause(e2, db, mds, cfds, idx, cfg)
    return c, d


def count_repair_literals(clause: logic.Clause) -> int:
    return sum(1 for lit in clause.body if isinstance(lit, logic.RepairLit))


TITLE_WORDS = ("Golden", "Silent", "Dark", "Iron", "Red", "Blue", "Wild", "Lost", "Broken",
               "Hidden", "Frozen", "Burning", "Quiet", "Hollow", "Bright", "Crimson", "Silver",
               "Endless", "Distant", "Savage")
TITLE_NOUNS = ("Rift", "Star", "River", "Crown", "Storm", "Garden", "Harbor", "Summit", "Echo",
               "Empire")

TITLE_SCHEMA_TEXT = """\
movies(id:text, title:text, year:integer)
aka(id:text, title:text)
highGrossing(title:text)
"""
TITLE_MD = "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]"
# a stored-to-stored pair: both of its sides are probed by saturation
AKA_MD = "md: movies[title] ~ aka[title] -> movies[title] <-> aka[title]"


def seeded_titles(n: int, seed: int, family: int = 0) -> list[str]:
    """n distinct "<word> <noun> <k>" titles drawn from random.Random(seed).
    With family=F they come in runs of F sharing word and noun, so every
    title has close rivals (similarity fan-out above 1)."""
    rng = random.Random(seed)
    titles: list[str] = []
    while len(titles) < n:
        word, noun = rng.choice(TITLE_WORDS), rng.choice(TITLE_NOUNS)
        for _ in range(max(family, 1)):
            t = f"{word} {noun} {rng.randint(1, 999)}"
            if t not in titles and len(titles) < n:
                titles.append(t)
    return titles


def title_rows(titles: list[str]) -> dict[str, list[tuple[str, ...]]]:
    """Stored rows of a title database: every title as a dated movie, and
    every third one again as an alternative title with the year bracketed."""
    movies = [(f"m{i}", f"{t} ({2000 + i % 20})", str(2000 + i % 20)) for i, t in enumerate(titles)]
    aka = [(f"m{i}", f"{t} [{2000 + i % 20}]") for i, t in enumerate(titles) if i % 3 == 0]
    return {"movies": movies, "aka": aka}


def title_database(n: int, seed: int, family: int = 0, stored_pair: bool = False):
    """(db, mds, examples) over seeded titles; the examples are the titles
    themselves, which reach `movies` only by similarity."""
    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    titles = seeded_titles(n, seed, family)
    db = store.from_tuples(schema, title_rows(titles))
    md_text = TITLE_MD + ("\n" + AKA_MD if stored_pair else "")
    mds, _ = constraints.parse_constraints(md_text, schema)
    return db, mds, [Example("highGrossing", (t,)) for t in titles]


def brute_force_index(db, examples, mds, k_m: int, threshold: float):
    """Reference for textsim.build_similarity_index(...).entries: scores every
    cross pair of distinct values with combined_similarity, keeps the k_m
    best at or above the threshold per left value (ties by right value), and
    of those the k_m best per right value."""
    def values(relation, attribute):
        if relation == db.schema.target:
            pos = db.schema.relation(relation).attr_index(attribute)
            return list(dict.fromkeys(e.values[pos] for e in examples))
        return db.values_at(relation, attribute)

    def rank(match):
        return -match[1], match[0]

    entries = {}
    for pair in dict.fromkeys(p for md in mds for p in md.lhs):
        (r1, a1), (r2, a2) = pair
        rights = values(r2, a2)
        fwd = {}
        for lv in values(r1, a1):
            scored = sorted(((rv, textsim.combined_similarity(lv, rv)) for rv in rights if rv != lv),
                            key=rank)
            best = [m for m in scored if m[1] >= threshold][:k_m]
            if best:
                fwd[lv] = best
        lefts_of = {}
        for lv, matches in fwd.items():
            for rv, score in matches:
                lefts_of.setdefault(rv, []).append((lv, score))
        keep = {(lv, rv) for rv, lefts in lefts_of.items() for lv, _ in sorted(lefts, key=rank)[:k_m]}
        table = {lv: tuple(m for m in matches if (lv, m[0]) in keep) for lv, matches in fwd.items()}
        table = {lv: matches for lv, matches in table.items() if matches}
        if table:
            entries[pair] = table
    return entries


# Reference repair exhaustion: the straightforward loop that recomputes the
# sorted canonical key of every popped state from scratch, for differential
# tests of logic.repaired_clauses and logic.partial_repairs.

def _reference_shape_key(lit: logic.Literal) -> str:
    masked = logic.print_literal(
        lit, lambda t: "V0" if isinstance(t, logic.Variable) else logic.print_term(t))
    kind = {logic.Rel: "0", logic.Sim: "1", logic.Eq: "2", logic.RepairLit: "3"}[type(lit)]
    return kind + masked


def reference_renumber(clause: logic.Clause) -> logic.Clause:
    mapping: dict = {}
    for lit in (clause.head, *clause.body):
        for v in logic.literal_vars(lit):
            mapping.setdefault(v, logic.Variable(len(mapping)))
    return logic.apply_substitution(clause, mapping)


def reference_clause_key(clause: logic.Clause) -> str:
    """Printed form of the body ordered by shape key, renumbered, then
    re-sorted by printed literal and renumbered until stable (at most twice)."""
    body = sorted(clause.body, key=_reference_shape_key)
    c = reference_renumber(logic.Clause(clause.head, tuple(body)))
    for _ in range(2):
        body = sorted(c.body, key=logic.print_literal)
        c2 = reference_renumber(logic.Clause(c.head, tuple(body)))
        if c2 == c:
            break
        c = c2
    return logic.print_clause(c)


def reference_exhaust_repairs(clause: logic.Clause, origin: str | None, cap: int) -> list[logic.Clause]:
    if not any(isinstance(l, logic.RepairLit) and (origin is None or l.origin == origin)
               for l in clause.body):
        return [clause]
    results: dict[str, logic.Clause] = {}
    seen: set[str] = set()
    stack = [clause]
    while stack:
        c = stack.pop()
        key = reference_clause_key(c)
        if key in seen:
            continue
        seen.add(key)
        repair_idx = [i for i, l in enumerate(c.body)
                      if isinstance(l, logic.RepairLit) and (origin is None or l.origin == origin)]
        if repair_idx:
            stack.extend(logic.apply_repair_literal(c, i) for i in repair_idx)
            continue
        if origin is None:
            c = logic.drop_dangling_restrictions(c)
            key = reference_clause_key(c)
        results[key] = c
        if len(results) > cap:
            raise logic.RepairCapExceeded(f"more than {cap} repaired clauses")
    return [results[k] for k in sorted(results)]
