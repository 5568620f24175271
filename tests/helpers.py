"""Seeded generators for micro databases and clause pairs, shared between the
module tests and the acceptance suite."""

from __future__ import annotations

import gc
import random

from dlearn import constraints, generalization, logic, oracle, saturation, store, subsumption, textsim
from dlearn.store import Example
from dlearn.util import derive_rng

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
    idx = textsim.SimilarityIndex(entries=entries)
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


def cfd_micro_db_clauses(n_cases: int = 60):
    """Per seeded micro database with a CFD, a (bottom clause, random
    generalization of it, ground bottom clause) triple for each example.
    They are saturated at d=3: the CFD's relation is three hops from the
    example, so the clauses carry CFD repair literals."""
    cases = []
    for case in range(n_cases):
        rng = random.Random(50_000 + case)
        db, mds, cfds, idx, examples = random_micro_db(rng, with_cfd=True)
        cfg = saturation.SaturationConfig(d=3, sample_size=100, rng_seed=case)
        triples = []
        for ex in examples:
            bottom = saturation.bottom_clause(ex, db, mds, cfds, idx, cfg)
            triples.append((bottom, random_drop_variant(bottom, rng),
                            saturation.ground_bottom_clause(ex, db, mds, cfds, idx, cfg)))
        cases.append(triples)
    return cases


def cyclic_garbage(work) -> int:
    """The number of objects that only the cyclic collector frees once
    work() has returned, counted with automatic collection off. The
    collector's state is restored."""
    enabled, debug, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        work()
        return gc.collect()
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()


CFD_MICRO_SCHEMA_TEXT = """\
movies(id:text, title:text)
mov2genres(id:text, genre:text)
mov2countries(id:text, cid:text)
countries(cid:text, name:text)
t(v:text)
"""


def cfd_micro_dataset(by_title: bool, n: int = 4):
    """Movies whose country ids have two names each, under the CFD
    cid -> name, so every clause reaching `countries` carries CFD repairs.
    Examples are movie ids, or with by_title=True titles matched to movies
    by an MD. Returns (db, mds, cfds, similarity index, examples, config)."""
    schema = store.parse_schema(CFD_MICRO_SCHEMA_TEXT, target="t")
    db = store.from_tuples(schema, {
        "movies": [(f"m{i}", f"T{i}") for i in range(n)],
        "mov2genres": [(f"m{i}", "comedy" if i < n // 2 else "drama") for i in range(n)],
        "mov2countries": [(f"m{i}", f"c{i % 2}") for i in range(n)],
        "countries": [("c0", "USA"), ("c0", "United States"), ("c1", "Spain"), ("c1", "España")],
    })
    text = "cfd: countries : cid -> name : (_ || _)\n"
    entries = {}
    if by_title:
        text += "md: t[v] ~ movies[title] -> t[v] <-> movies[title]\n"
        entries[(("t", "v"), ("movies", "title"))] = {f"e{i}": [(f"T{i}", 0.9)] for i in range(n)}
    mds, cfds = constraints.parse_constraints(text, schema)
    idx = textsim.SimilarityIndex(entries=entries)
    examples = [store.Example("t", (f"e{i}" if by_title else f"m{i}",)) for i in range(n)]
    cfg = saturation.SaturationConfig(d=3, sample_size=100, rng_seed=3)
    return db, mds, cfds, idx, examples, cfg


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


GENRE_SCHEMA_TEXT = """\
movies(id:text, title:text, year:integer)
mov2genres(id:text, genre:text)
mov2countries(id:text, country:text)
countries(id:text, name:text)
highGrossing(title:text)
"""
COUNTRY_CFD = "cfd: countries : id -> name : (_ || _)"


def genre_database(n: int, seed: int, family: int = 0, cfd: bool = False,
                   countries: bool = False):
    """(db, mds, cfds, pos, neg) over seeded titles split by genre, with
    label noise. The first half of the movies are comedies and the rest
    dramas; every comedy's title is a positive example except every fifth,
    which is a negative like every drama's. So a clause that keeps the
    comedy literal covers positives and negatives alike. With cfd=True the
    movies alternate between two country ids of two names each, under the
    CFD id -> name, so every country is a violation. countries=True adds the
    same two country tables without the CFD."""
    schema = store.parse_schema(GENRE_SCHEMA_TEXT, target="highGrossing")
    titles = seeded_titles(n, seed, family)
    half = n // 2
    tables = cfd or countries
    db = store.from_tuples(schema, {
        "movies": title_rows(titles)["movies"],
        "mov2genres": [(f"m{i}", "comedy" if i < half else "drama") for i in range(n)],
        "mov2countries": [(f"m{i}", f"c{i % 2}") for i in range(n)] if tables else [],
        "countries": [("c0", "USA"), ("c0", "United States"), ("c1", "Spain"),
                      ("c1", "Espana")] if tables else [],
    })
    mds, cfds = constraints.parse_constraints(TITLE_MD + ("\n" + COUNTRY_CFD if cfd else ""), schema)
    positive = [i < half and i % 5 != 0 for i in range(n)]
    pos = [Example("highGrossing", (t,)) for t, p in zip(titles, positive) if p]
    neg = [Example("highGrossing", (t,)) for t, p in zip(titles, positive) if not p]
    return db, mds, cfds, pos, neg


def brute_force_index(db, examples, mds, k_m: int, threshold: float):
    """Reference for textsim.build_similarity_index(...).entries: scores every
    cross pair of distinct values with combined_similarity, keeps the k_m
    best at or above the threshold per left value (ties by right value), and
    of those the k_m best per right value. Every MD pair has a table, empty
    when it keeps nothing."""
    def values(relation, attribute):
        if relation == db.schema.target:
            pos = db.schema.relation(relation).attr_index(attribute)
            return list(dict.fromkeys(e.values[pos] for e in examples))
        return db.values_at(relation, attribute)

    def rank(match):
        return -match[1], match[0]

    entries = {}
    for pair in dict.fromkeys(md.pair for md in mds):
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
        entries[pair] = {lv: matches for lv, matches in table.items() if matches}
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


def condition_holds(cond, clause: logic.Clause, closure=None) -> bool:
    """Whether a repair condition holds in a clause, by the engine's own
    test (logic._holds over the clause's closure and similarity pairs)."""
    closure = closure or logic.EqClosure(clause.body)
    return logic._holds(cond, closure, logic._sim_pairs(clause.body, closure))


# Reference repair step: logic.apply_repair_literal as it was before
# expansion states shared their closure and condition truths, a rebuilt
# Clause per child, with the condition evaluator of that time, which scans
# the clause's similarity literals under the closure. Differential tests
# compare the current step and the expansions built on it against it.

def _reference_sim_holds(a, b, clause: logic.Clause, closure) -> bool:
    if closure.same(a, b):
        return True
    for lit in clause.body:
        if isinstance(lit, logic.Sim):
            if (closure.same(lit.a, a) and closure.same(lit.b, b)) or (
                closure.same(lit.a, b) and closure.same(lit.b, a)
            ):
                return True
    return False


def reference_condition_holds(cond, clause: logic.Clause, closure=None) -> bool:
    closure = closure or logic.EqClosure(clause.body)
    for atom in cond:
        if isinstance(atom, logic.Eq):
            if not closure.same(atom.a, atom.b):
                return False
        elif isinstance(atom, logic.Neq):
            if closure.same(atom.a, atom.b):
                return False
        else:
            if not _reference_sim_holds(atom.a, atom.b, clause, closure):
                return False
    return True


def reference_apply_repair_literal(clause: logic.Clause, index: int, closure=None) -> logic.Clause:
    if not (0 <= index < len(clause.body)) or not isinstance(clause.body[index], logic.RepairLit):
        raise logic.ClauseError(f"body index {index} is not a repair literal")
    lit = clause.body[index]
    closure = closure or logic.EqClosure(clause.body)
    if not reference_condition_holds(lit.cond, clause, closure):
        body = clause.body[:index] + clause.body[index + 1:]
        return logic.Clause(clause.head, body)

    group_idx = {
        i for i, l in enumerate(clause.body)
        if isinstance(l, logic.RepairLit) and logic.same_group(l, lit)
    }
    mapping = {clause.body[i].target: clause.body[i].replacement for i in group_idx}
    targets = set(mapping)

    new_body = []
    dropped_eq = False
    for i, l in enumerate(clause.body):
        if i in group_idx:
            continue
        if isinstance(l, (logic.Sim, logic.Eq)) and (l.a in targets or l.b in targets):
            dropped_eq = dropped_eq or isinstance(l, logic.Eq)
            continue
        if targets.isdisjoint(logic.literal_terms(l)):
            new_body.append(l)
        else:
            new_body.append(logic._substitute_literal(l, mapping))
    head = logic._substitute_literal(clause.head, mapping)
    result = logic.Clause(head, tuple(new_body))

    if dropped_eq:
        closure = logic.EqClosure(result.body)
    kept = tuple(
        l for l in result.body
        if not (isinstance(l, logic.RepairLit)
                and not reference_condition_holds(l.cond, result, closure))
    )
    return logic.Clause(head, kept)


def reference_step_exhaust(clause: logic.Clause, origin: str | None, cap: int) -> list[logic.Clause]:
    """The expansion loop of logic._exhaust_repairs before it kept states,
    built on reference_apply_repair_literal: each popped clause is keyed
    (memoized by clause value) and, when new, gets one equality closure for
    all its children."""
    def applicable(c):
        return [i for i, l in enumerate(c.body)
                if isinstance(l, logic.RepairLit) and (origin is None or l.origin == origin)]

    if not applicable(clause):
        return [clause]
    keys: dict = {}

    def key_of(c):
        if c not in keys:
            keys[c] = logic.clause_key(c)
        return keys[c]

    results: dict = {}
    seen: set = set()
    stack = [clause]
    while stack:
        c = stack.pop()
        key = key_of(c)
        if key in seen:
            continue
        seen.add(key)
        repair_idx = applicable(c)
        if repair_idx:
            closure = logic.EqClosure(c.body)
            stack.extend(reference_apply_repair_literal(c, i, closure) for i in repair_idx)
            continue
        if origin is None:
            c = logic.drop_dangling_restrictions(c)
            key = key_of(c)
        results[key] = c
        if len(results) > cap:
            raise logic.RepairCapExceeded(f"more than {cap} repaired clauses")
    return [results[k] for k in sorted(results)]


def random_eq_repair_clause(rng: random.Random) -> logic.Clause:
    """A clause whose repair conditions meet equalities over replaced terms.

    Equality literals chain a few variables together, each repair literal
    replaces a variable of such a chain, and the conditions are eq/neq atoms
    over chain variables (with an occasional similarity atom over a
    similarity literal), so firing one repair drops equalities that decide
    the conditions of others. Repair literals are CFD ones, each alone, or
    matching-dependency pairs over the clause's one similarity literal. Those
    pairs all share its condition, so together they form one group."""
    V, Eq, Sim = logic.Variable, logic.Eq, logic.Sim
    n = rng.randint(5, 8)
    chain = [V(i) for i in range(1, n + 1)]
    fresh = iter(V(i) for i in range(20, 60))
    body: list = [logic.Rel("r", (V(0), chain[0]))]
    body += [logic.Rel("s", (rng.choice(chain), rng.choice(chain))) for _ in range(rng.randint(1, 3))]
    # a path of equalities, sometimes with a gap, so that most chain
    # variables start in one class and a replaced one splits it
    gap = rng.randrange(n) if rng.random() < 0.3 else -1
    body += [Eq(a, b) for k, (a, b) in enumerate(zip(chain, chain[1:])) if k != gap]
    if rng.random() < 0.5:
        body.append(Eq(*rng.sample(chain, 2)))
    sims = []
    if rng.random() < 0.5:
        a, b = rng.sample(chain, 2)
        sims.append((a, b))
        body.append(Sim(a, b))
    for _ in range(rng.randint(3, 6)):
        if sims and rng.random() < 0.3:
            a, b = sims[0]
            cond = (logic.Sim(a, b),)
            body += [logic.RepairLit(cond, a, next(fresh)),
                     logic.RepairLit(cond, b, next(fresh))]
            continue
        atoms = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice((logic.Eq, logic.Eq, logic.Neq))
            atoms.append(kind(*rng.sample(chain, 2)))
        body.append(logic.RepairLit(tuple(atoms), rng.choice(chain), next(fresh)))
    rng.shuffle(body)
    return logic.Clause(logic.Rel("t", (V(0),)), tuple(body))


# Reference closures: subsumption._connected_repairs and logic.head_reachable
# as they were when each kept its own rescan loop, before both became calls
# of logic.reachable. _ReferenceMatcher and reference_md_part call the first;
# the differential tests of logic.reachable compare against both.

def reference_connected_repairs(reps, terms) -> set[int]:
    """Indices of the repair literals among `reps` ((index, literal) pairs)
    reachable from the variables in `terms`, directly or through other repair
    literals. Links run through variables only: a repair on a constant
    constrains other literals only through its replacement variable."""
    pool = {t for t in terms if isinstance(t, logic.Variable)}
    connected: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ri, rlit in reps:
            if ri in connected:
                continue
            if rlit.target in pool or rlit.replacement in pool:
                connected.add(ri)
                if isinstance(rlit.target, logic.Variable):
                    pool.add(rlit.target)
                if isinstance(rlit.replacement, logic.Variable):
                    pool.add(rlit.replacement)
                changed = True
    return connected


def reference_head_reachable(head: logic.Rel, indexed) -> set[int]:
    """The indices of the (index, literal) pairs in `indexed` whose literal
    is reachable from the head through shared terms."""
    indexed = list(indexed)
    connected_terms = set(head.args)
    kept: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, lit in indexed:
            if i in kept:
                continue
            terms = set(logic.literal_terms(lit))
            if terms & connected_terms:
                kept.add(i)
                connected_terms |= terms
                changed = True
    return kept


# Reference subsumption search: the matcher before forward checking,
# candidate memoization and the per-clause index. It checks equality and
# similarity literals only at a leaf, rebuilds every remaining literal's
# candidate list at every node (copying theta per candidate) and indexes d
# afresh on each call. Differential tests compare subsumes_with_repairs
# against it with with_repairs=True.

class _ReferenceOutOfBudget(Exception):
    pass


class _ReferenceMatcher:
    def __init__(self, c: logic.Clause, d: logic.Clause, with_repairs: bool, budget: int):
        self.c = c
        self.d = d
        self.with_repairs = with_repairs
        self.budget = budget
        self.d_closure = logic.EqClosure(self.d.body)
        self.d_rels: dict[tuple[str, int], list[tuple[int, logic.Rel]]] = {}
        self.d_reps: list[tuple[int, logic.RepairLit]] = []
        self.d_sims: list[logic.Sim] = []
        for i, lit in enumerate(self.d.body):
            if isinstance(lit, logic.Rel):
                self.d_rels.setdefault((lit.relation, len(lit.args)), []).append((i, lit))
            elif isinstance(lit, logic.RepairLit):
                self.d_reps.append((i, lit))
            elif isinstance(lit, logic.Sim):
                self.d_sims.append(lit)
        terms = list(self.d.head.args)
        for lit in self.d.body:
            terms.extend(logic.literal_terms(lit))
        self.d_terms = list(dict.fromkeys(terms))

    # -- unification ------------------------------------------------------

    def _spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise _ReferenceOutOfBudget

    def _unify(self, ct, dt, theta):
        if isinstance(ct, logic.Constant):
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
        if isinstance(lit, logic.Rel):
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
            if any(isinstance(t, logic.Variable) and t not in theta for t in (lit.a, lit.b)):
                pending.append(lit)
                continue
            ok = self._eq_holds(a, b) if isinstance(lit, logic.Eq) else self._sim_holds(a, b)
            if not ok:
                return None
        if not pending:
            return theta
        var = next(t for lit in pending for t in (lit.a, lit.b)
                   if isinstance(t, logic.Variable) and t not in theta)
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
        mapped_rep = {di for di in mapped if isinstance(self.d.body[di], logic.RepairLit)}
        region = (t for di in mapped if di not in mapped_rep
                  for t in logic.literal_terms(self.d.body[di]))
        if not reference_connected_repairs(self.d_reps, region) <= mapped_rep:
            return False
        # a constant the pattern pins cannot survive a repair of d that
        # targets it: every expansion of d rewrites all its occurrences while
        # the pattern keeps demanding the constant, unless the pattern repairs
        # the very same constant and the two rewrites run in lockstep
        demands = {t for t in self.c.head.args if isinstance(t, logic.Constant)}
        c_rep_targets = set()
        for ci in lit_map:
            clit = self.c.body[ci]
            if isinstance(clit, logic.Rel):
                demands.update(t for t in clit.args if isinstance(t, logic.Constant))
            else:
                c_rep_targets.add(clit.target)
        for _, dlit in self.d_reps:
            if (isinstance(dlit.target, logic.Constant) and dlit.target in demands
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

    def solve(self) -> subsumption.CoverageVerdict:
        if (self.c.head.relation != self.d.head.relation
                or len(self.c.head.args) != len(self.d.head.args)):
            return subsumption.CoverageVerdict(False)
        theta = self._unify_args(self.c.head.args, self.d.head.args, {})
        if theta is None:
            return subsumption.CoverageVerdict(False)
        binders = [(i, l) for i, l in enumerate(self.c.body)
                   if isinstance(l, (logic.Rel, logic.RepairLit))]
        constraints = [l for l in self.c.body if isinstance(l, (logic.Sim, logic.Eq))]
        try:
            found = self._search(binders, constraints, theta, set(), {})
        except _ReferenceOutOfBudget:
            return subsumption.CoverageVerdict(False, budget_exhausted=True)
        if found is None:
            return subsumption.CoverageVerdict(False)
        return subsumption.CoverageVerdict(True, witness=found)

    def _search(self, remaining, constraints, theta, mapped, lit_map):
        if not remaining:
            final = self._check_constraints(constraints, theta)
            if final is None:
                return None
            if self.with_repairs:
                rep_map = {ci: di for ci, di in lit_map.items()
                           if isinstance(self.c.body[ci], logic.RepairLit)}
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


def reference_subsumes(c: logic.Clause, d: logic.Clause, with_repairs: bool,
                       budget: int = subsumption.DEFAULT_BUDGET) -> subsumption.CoverageVerdict:
    return _ReferenceMatcher(c, d, with_repairs, budget).solve()


# Reference subsumption: oracle.exhaustive_subsumes as it was when it
# enumerated every variable of c over every term of d. The differential test
# of the oracle's join compares against it.

def reference_exhaustive_subsumes(c: logic.Clause, d: logic.Clause, var_cap: int = 10) -> bool:
    """Plain subsumption by enumerating substitutions of c's variables over
    d's terms, variable by variable in id order, rejecting a partial
    assignment as soon as a fully bound literal fails."""
    for lit in list(c.body) + list(d.body):
        if isinstance(lit, logic.RepairLit):
            raise ValueError("exhaustive subsumption expects repair-free clauses")
    if c.head.relation != d.head.relation or len(c.head.args) != len(d.head.args):
        return False
    cvars = sorted(logic.clause_vars(c), key=lambda v: v.id)
    if len(cvars) > var_cap:
        raise oracle.OracleCapExceeded(f"too many variables for exhaustive subsumption: {len(cvars)}")
    closure = logic.EqClosure(d.body)
    d_rels: dict = {}
    d_sims = []
    for lit in d.body:
        if isinstance(lit, logic.Rel):
            d_rels.setdefault((lit.relation, len(lit.args)), set()).add(lit.args)
        elif isinstance(lit, logic.Sim):
            d_sims.append(lit)

    def sim_ok(a, b):
        if closure.same(a, b):
            return True
        for s in d_sims:
            if (s.a, s.b) == (a, b) or (s.a, s.b) == (b, a):
                return True
        return False

    lits = [("head", c.head)] + [(None, lit) for lit in c.body]

    def lit_ok(kind, lit, theta, bound):
        def mapped(t):
            return theta.get(t, t) if isinstance(t, logic.Variable) else t

        if any(isinstance(t, logic.Variable) and t not in bound
               for t in ((lit.args if kind == "head" or isinstance(lit, logic.Rel)
                          else (lit.a, lit.b)))):
            return True  # not fully bound yet; checked later
        if kind == "head":
            return tuple(mapped(t) for t in lit.args) == d.head.args
        if isinstance(lit, logic.Rel):
            return tuple(mapped(t) for t in lit.args) in d_rels.get((lit.relation, len(lit.args)), ())
        if isinstance(lit, logic.Eq):
            return closure.same(mapped(lit.a), mapped(lit.b))
        return sim_ok(mapped(lit.a), mapped(lit.b))

    def assign(i, theta):
        bound = set(theta)
        if not all(lit_ok(kind, lit, theta, bound) for kind, lit in lits):
            return False
        if i == len(cvars):
            return True
        for term in d.terms:
            theta[cvars[i]] = term
            if assign(i + 1, theta):
                return True
            del theta[cvars[i]]
        return False

    return assign(0, {})


# Reference MD part: subsumption.md_part as it was when it ran one repair
# closure per body literal. A literal is kept when every repair literal
# connected to it comes from a matching dependency. The differential test of
# md_part compares against it.

def reference_md_part(clause: logic.Clause) -> logic.Clause:
    reps = [(i, l) for i, l in enumerate(clause.body) if isinstance(l, logic.RepairLit)]
    body = []
    for lit in clause.body:
        if isinstance(lit, logic.RepairLit):
            if lit.origin == "md":
                body.append(lit)
        elif all(clause.body[ri].origin == "md"
                 for ri in reference_connected_repairs(reps, logic.literal_terms(lit))):
            body.append(lit)
    return clause if len(body) == len(clause.body) else logic.Clause(clause.head, tuple(body))


# Reference blocking-literal scan: generalization.find_blocking_literal as it
# was when it built the prefix at every body index and skipped a prefix
# equal to the one before it. Its differential test compares the index, the
# flag and the covers_positive calls.

def reference_find_blocking_literal(ordered, g: logic.Clause,
                                    budget: int = subsumption.DEFAULT_BUDGET,
                                    repair_cap: int = subsumption.DEFAULT_REPAIR_CAP):
    clause = ordered.clause
    anchors = generalization._component_anchors(clause)

    def prefix_at(i: int) -> logic.Clause:
        body = []
        for j, lit in enumerate(clause.body):
            if isinstance(lit, logic.Rel):
                if j <= i:
                    body.append(lit)
            elif anchors[j] <= i:
                body.append(lit)
        return logic.Clause(clause.head, tuple(body))

    previous = None
    for i in range(len(clause.body)):
        prefix = prefix_at(i)
        if previous is not None and prefix.body == previous.body:
            continue
        previous = prefix
        verdict = subsumption.covers_positive(prefix, g, budget, repair_cap)
        if not verdict.covered:
            return i, verdict.budget_exhausted
    return None, False


# Reference positive coverage: subsumption.covers_positive as it was before
# stage 3 tried one expansion of c first. Its stage 3 always expands the CFD
# repair literals of both clauses (flagging a repair-cap overrun) and tests
# every expansion of c against the expansions of g. Differential tests
# compare covers_positive against it.

def reference_covers_positive(c: logic.Clause, g: logic.Clause,
                              budget: int = subsumption.DEFAULT_BUDGET,
                              repair_cap: int = subsumption.DEFAULT_REPAIR_CAP
                              ) -> subsumption.CoverageVerdict:
    v1 = subsumption.subsumes_with_repairs(c, g, budget)
    if v1.covered:
        return v1
    v2 = subsumption.subsumes_with_repairs(subsumption._view("md", subsumption.md_part, c),
                                           subsumption._view("md", subsumption.md_part, g), budget)
    if not v2.covered:
        return subsumption.CoverageVerdict(
            False, budget_exhausted=v1.budget_exhausted or v2.budget_exhausted)
    try:
        c_variants = subsumption._view("cfd", logic.partial_repairs, c, "cfd", repair_cap)
        g_variants = subsumption._view("cfd", logic.partial_repairs, g, "cfd", repair_cap)
    except logic.RepairCapExceeded:
        return subsumption.CoverageVerdict(False, budget_exhausted=True)
    exhausted = v1.budget_exhausted
    for cv in c_variants:
        ok = False
        for gv in g_variants:
            verdict = subsumption.subsumes_with_repairs(cv, gv, budget)
            exhausted = exhausted or verdict.budget_exhausted
            if verdict.covered:
                ok = True
                break
        if not ok:
            return subsumption.CoverageVerdict(False, budget_exhausted=exhausted)
    return subsumption.CoverageVerdict(True, budget_exhausted=exhausted)


# Reference covering step: learner.learn_clause as it was before the bottom
# clause was scored lazily. It scores the bottom clause in full, against
# every positive and negative, before the first round, and scores every
# distinct candidate, also one equal to the current clause. Differential
# tests run learner.learn with it in place of learner.learn_clause.

def reference_learn_clause(grounding, seed: Example, uncovered, negatives, cfg):
    limits = (cfg.subsumption_budget, cfg.repair_cap)
    positives = [(e.key(), grounding.ground[e.key()]) for e in uncovered]
    neg_gs = [grounding.ground[e.key()] for e in negatives]
    current = saturation.bottom_clause(seed, grounding.db, grounding.mds, grounding.cfds,
                                       grounding.idx, cfg)
    score, stats = generalization.score_clause(current, positives, neg_gs, *limits)
    rng = derive_rng(cfg.rng_seed, "generalize", seed.key())
    while True:
        k = min(cfg.K, len(uncovered))
        picked = [uncovered[i] for i in sorted(rng.sample(range(len(uncovered)), k))]
        seen: dict[str, logic.Clause] = {}
        for e in picked:
            cand = generalization.armg(current, grounding.ground[e.key()], *limits)
            seen.setdefault(logic.clause_key(cand), cand)
        if not seen:
            break
        candidates = [seen[k2] for k2 in sorted(seen)]
        cand, cand_score, cand_stats = generalization.best_scored(candidates, positives,
                                                                  neg_gs, *limits)
        if cand_score <= score:
            break
        current, score, stats = cand, cand_score, cand_stats
    return current, stats


# Reference CFD violation finder: constraints.find_cfd_violations as it was
# before it took the handled swap pairs and the CFD's literal positions. It
# tests every option pair of every literal pair through the closure's
# `same`. Its differential test compares the finder against it.

def reference_find_cfd_violations(body, cfd: constraints.CFD, eq_closure,
                                  alternatives=None) -> list[constraints.CfdViolation]:
    alternatives = alternatives or {}
    rel_lits = [(i, lit) for i, lit in enumerate(body)
                if isinstance(lit, logic.Rel) and lit.relation == cfd.relation
                and len(lit.args) > max(cfd.rhs_position, *cfd.x_positions)]
    out: list[constraints.CfdViolation] = []

    def options(term):
        return dict.fromkeys([term, *alternatives.get(term, ())])

    def matches_cell(term, cell):
        if cell is None:
            return True
        const = logic.Constant(cell)
        return term == const or eq_closure.same(term, const)

    for ai in range(len(rel_lits)):
        for bi in range(ai + 1, len(rel_lits)):
            i, l1 = rel_lits[ai]
            j, l2 = rel_lits[bi]
            chosen_x = []
            for p, cell in zip(cfd.x_positions, cfd.cells):
                pair = next(((t1, t2)
                             for t1 in options(l1.args[p])
                             for t2 in options(l2.args[p])
                             if eq_closure.same(t1, t2)
                             and matches_cell(t1, cell)
                             and matches_cell(t2, cell)), None)
                if pair is None:
                    break
                chosen_x.append(pair)
            else:
                chosen_x = tuple(chosen_x)
                out += [constraints.CfdViolation(i, j, chosen_x, (z, t))
                        for z in options(l1.args[cfd.rhs_position])
                        for t in options(l2.args[cfd.rhs_position])
                        if not eq_closure.same(z, t)]
    return out


# Reference CFD repair injection: saturation.inject_cfd_repairs and
# _repair_one_violation as they were before the body's repair literals and
# CFD swap pairs were kept in sets, and before the rounds shared the
# equality closure and occurrence counts. Each round rebuilds the closure
# and finds every violation with the reference finder, each split counts
# occurrences over the whole body, each pending violation scans the whole
# body for its two swaps, and each new literal is checked against the whole
# body. Differential tests compare inject_cfd_repairs against it.

def reference_inject_cfd_repairs(clause: logic.Clause, cfds,
                                 cfg: saturation.SaturationConfig) -> logic.Clause:
    if not cfds or not any(isinstance(l, logic.Rel) for l in clause.body):
        return clause
    head = clause.head
    body = list(clause.body)
    # one allocator for every round: each id it hands out lands in the body,
    # so it stays the first free id without rescanning the clause
    alloc = saturation._VarAllocator(logic.fresh_var(clause).id)
    for _ in range(cfg.cfd_fixpoint_cap):
        closure = logic.EqClosure(body)
        alternatives: dict[logic.Term, list[logic.Term]] = {}
        for lit in body:
            if isinstance(lit, logic.RepairLit):
                alternatives.setdefault(lit.target, []).append(lit.replacement)
        pending = []
        for cfd in cfds:
            for v in reference_find_cfd_violations(body, cfd, closure, alternatives):
                pending.append((cfd, v))
        emitted = False
        deferred = False
        touched: set[int] = set()
        for cfd, violation in pending:
            # splits mutate literals in place, so violations that share a
            # literal with one already handled this round wait for the rescan
            if {violation.first, violation.second} & touched:
                deferred = True
                continue
            if _reference_repair_one_violation(head, body, cfd, violation, alloc):
                emitted = True
                touched.update((violation.first, violation.second))
        if not emitted and not deferred:
            return logic.Clause(head, tuple(body))
    raise saturation.SaturationError(
        f"no repair fixpoint after {cfg.cfd_fixpoint_cap} rounds; the dependency set looks inconsistent"
    )


def _reference_repair_one_violation(head, body, cfd: constraints.CFD,
                                    violation: constraints.CfdViolation,
                                    alloc: saturation._VarAllocator) -> bool:
    i, j = violation.first, violation.second
    z, t = violation.rhs_terms

    # a swap pair over these right-hand terms (in either orientation) means
    # the violation, or an equivalent alternative-choice view of it, is done
    def has_swap(a, b):
        return any(isinstance(l, logic.RepairLit) and l.origin == "cfd"
                   and l.target == a and l.replacement == b for l in body)

    if has_swap(z, t) and has_swap(t, z):
        return False

    # resolve terms per position, splitting shared occurrences of wildcard
    # cells (constant cells get no replacement repair, so no split either);
    # alternative terms (replacement variables) are used as they are
    x_pairs = []
    for k, p in enumerate(cfd.x_positions):
        t1, t2 = violation.x_terms[k]
        if cfd.cells[k] is None:
            if t1 == body[i].args[p]:
                t1 = _reference_split_position(head, body, i, p, alloc)
            if t2 == body[j].args[p]:
                t2 = _reference_split_position(head, body, j, p, alloc)
        x_pairs.append((t1, t2))
    if z == body[i].args[cfd.rhs_position]:
        z = _reference_split_position(head, body, i, cfd.rhs_position, alloc, rhs=True)
    if t == body[j].args[cfd.rhs_position]:
        t = _reference_split_position(head, body, j, cfd.rhs_position, alloc, rhs=True)

    atoms: list[logic.Atom] = []
    for (t1, t2), cell in zip(x_pairs, cfd.cells):
        if t1 != t2:
            atoms.append(logic.Eq(t1, t2))
        if cell is not None:
            const = logic.Constant(cell)
            for side in (t1, t2):
                atom = logic.Eq(side, const)
                if side != const and atom not in atoms:
                    atoms.append(atom)
    atoms.append(logic.Neq(z, t))
    cond = tuple(atoms)

    new_lits: list[logic.Literal] = []
    for (t1, t2), cell in zip(x_pairs, cfd.cells):
        if cell is not None:
            continue
        for side in (t1, t2):
            new_lits.append(logic.RepairLit(cond, side, alloc.fresh()))
    new_lits += [logic.RepairLit(cond, z, t), logic.RepairLit(cond, t, z)]
    body.extend(l for l in new_lits if l not in body)
    return True


def _reference_split_position(head, body: list, i: int, pos: int,
                              alloc: saturation._VarAllocator, rhs: bool = False) -> logic.Term:
    term = body[i].args[pos]
    occurrences = head.args.count(term) + sum(
        lit.args.count(term) for lit in body if isinstance(lit, logic.Rel))
    if not (rhs and isinstance(term, logic.Constant)) and occurrences <= 1:
        return term
    lit = body[i]
    split = alloc.fresh()
    body[i] = logic.Rel(lit.relation, lit.args[:pos] + (split,) + lit.args[pos + 1:])
    body.append(logic.Eq(term, split))
    return split


# Reference drop cascade: generalization.drop_with_repair as it was when it
# kept the removed, before-round and remaining index sets apart. Its
# differential test compares the clause left and the rounds run.

def reference_drop_with_repair(ordered, index: int):
    body = list(ordered.clause.body)
    head = ordered.clause.head
    groups = ordered.clause.groups
    # a dropped repair literal takes its whole group with it
    removed = set(groups.get(index, (index,)))
    while True:
        before = set(removed)
        remaining = [i for i in range(len(body)) if i not in removed]
        visible: set = set(head.args)
        for i in remaining:
            if isinstance(body[i], logic.Rel):
                visible.update(body[i].args)
        replacements = {body[i].replacement for i in remaining
                        if isinstance(body[i], logic.RepairLit)}
        allowed = visible | replacements
        sims = {frozenset((l.a, l.b)) for l in (body[i] for i in remaining)
                if isinstance(l, logic.Sim)}
        for i in remaining:
            lit = body[i]
            if isinstance(lit, logic.RepairLit):
                cond_vars = [t for a in lit.cond for t in (a.a, a.b)]
                pool = visible if isinstance(lit.target, logic.Constant) else allowed
                dead = lit.target not in pool or any(
                    isinstance(t, logic.Variable) and t not in allowed for t in cond_vars
                )
                # a similarity condition whose witnessing literal is gone can
                # never hold again, so the repair group it guards is dead
                dead = dead or any(
                    isinstance(a, logic.Sim) and a.a != a.b
                    and frozenset((a.a, a.b)) not in sims
                    for a in lit.cond
                )
                if dead:
                    removed.update(groups[i].intersection(remaining))
            elif isinstance(lit, (logic.Sim, logic.Eq)):
                if any(isinstance(t, logic.Variable) and t not in allowed for t in (lit.a, lit.b)):
                    removed.add(i)
        # similarity literals travel with their repair group: one without a
        # guarded group left is dropped too
        guarded = {
            frozenset((a.a, a.b))
            for j in remaining if j not in removed and isinstance(body[j], logic.RepairLit)
            for a in body[j].cond if isinstance(a, logic.Sim)
        }
        for i in remaining:
            lit = body[i]
            if (i not in removed and isinstance(lit, logic.Sim)
                    and frozenset((lit.a, lit.b)) not in guarded):
                removed.add(i)
        # connectivity pass over what is left
        keep = [i for i in range(len(body)) if i not in removed]
        connected = logic.head_reachable(head, ((i, body[i]) for i in keep))
        removed.update(i for i in keep if i not in connected)
        if removed == before:
            break
    # what is left of an ordered body is in order: positions only break ties
    # within one sort key, and removal keeps the relative order of the rest
    return generalization.OrderedClause(logic.Clause(
        head, tuple(body[i] for i in range(len(body)) if i not in removed)))
