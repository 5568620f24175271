"""Seeded generator for the reference movie workload and the named workloads.

The generator writes plain input files (schema, one CSV per relation,
constraints, examples) so that set-up goes through the same loaders as the
`dlearn` command line. Everything it writes is a function of (workload,
seed): the same pair gives byte-identical files.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass

WORDS = (
    "Golden", "Silent", "Dark", "Iron", "Red", "Blue", "Wild", "Lost",
    "Broken", "Hidden", "Frozen", "Burning", "Quiet", "Hollow", "Bright",
    "Crimson", "Silver", "Endless", "Distant", "Savage",
)
NOUNS = ("Rift", "Star", "River", "Crown", "Storm", "Garden", "Harbor", "Summit", "Echo", "Empire")

SCHEMA = """\
movies(id:text, title:text, year:integer)
mov2genres(id:text, name:text)
mov2countries(id:text, name:text)
countries(id:text, name:text)
highGrossing(title:text)
"""
TARGET = "highGrossing"
MD_LINE = "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]"
CFD_LINE = "cfd: countries : id -> name : (_ || _)"
# dirty keys: each country id has three names, so every movie's country
# violates the CFD and each clause carries CFD repairs
COUNTRIES = (
    ("c1", "USA"), ("c1", "United States"), ("c1", "US"),
    ("c2", "Spain"), ("c2", "Espana"), ("c2", "Kingdom of Spain"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int          # titles per instance: examples and movies alike
    family: int     # 0: independent titles; F: families of F titles sharing word and noun
    cfd: bool
    k_m: int
    threads: int
    instances: int  # instances per run, drawn from the run's seed


# Why each workload exists, and what each should move: README.md.
WORKLOADS = {w.name: w for w in (
    Workload("index-km1", n=24, family=0, cfd=False, k_m=1, threads=1, instances=12),
    Workload("repair-cfd", n=12, family=0, cfd=True, k_m=1, threads=1, instances=15),
    Workload("fanout-t2", n=30, family=2, cfd=False, k_m=5, threads=2, instances=10),
)}
# for the benchmark's own tests: learns in about a second
SMOKE = Workload("smoke", n=24, family=0, cfd=True, k_m=1, threads=2, instances=1)
# the attribute the matching dependency links example titles to
MATCHED = ("movies", "title")


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Generator seeds of a run's instances; the first is the run's seed."""
    return [seed + 1000 * j for j in range(workload.instances)]


def titles(n: int, seed: int, family: int = 0) -> list[str]:
    """n distinct "<word> <noun> <k>" titles drawn from random.Random(seed).

    With family=0 every title draws its word, noun and k independently (the
    reference workload). With family=F the titles come in n/F families of F
    that share a word and noun, no two families share both, and the order is
    shuffled, so every title has at least F-1 close rivals.
    """
    rng = random.Random(seed)
    out: list[str] = []
    seen: set[str] = set()

    def draw(word, noun):
        while True:
            t = f"{word} {noun} {rng.randint(1, 999)}"
            if t not in seen:
                seen.add(t)
                out.append(t)
                return

    if family == 0:
        while len(out) < n:
            draw(rng.choice(WORDS), rng.choice(NOUNS))
        return out
    combos = [(w, x) for w in WORDS for x in NOUNS]
    for word, noun in rng.sample(combos, -(-n // family)):
        for _ in range(family):
            if len(out) < n:
                draw(word, noun)
    rng.shuffle(out)
    return out


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_inputs(workload: Workload, seed: int, out_dir: str) -> dict[str, str]:
    """Write the input files of (workload, seed) under out_dir and return
    their paths by role: schema, data, constraints, examples."""
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    names = titles(workload.n, seed, workload.family)
    half = workload.n // 2
    movies, genres, m2c = [], [], []
    for i, t in enumerate(names):
        year = 2000 + i % 20
        movies.append((f"m{i}", f"{t} ({year})", str(year)))
        genres.append((f"m{i}", "comedy" if i < half else "drama"))
        m2c.append((f"m{i}", "c1" if i % 2 == 0 else "c2"))
    _write_csv(os.path.join(data_dir, "movies.csv"), movies)
    _write_csv(os.path.join(data_dir, "mov2genres.csv"), genres)
    _write_csv(os.path.join(data_dir, "mov2countries.csv"), m2c)
    _write_csv(os.path.join(data_dir, "countries.csv"), COUNTRIES)
    _write_csv(os.path.join(out_dir, "examples.txt"),
               [("+" if i < half else "-", t) for i, t in enumerate(names)])
    paths = {
        "schema": os.path.join(out_dir, "schema.txt"),
        "data": data_dir,
        "constraints": os.path.join(out_dir, "constraints.txt"),
        "examples": os.path.join(out_dir, "examples.txt"),
    }
    with open(paths["schema"], "w", encoding="utf-8") as fh:
        fh.write(SCHEMA)
    with open(paths["constraints"], "w", encoding="utf-8") as fh:
        fh.write(MD_LINE + "\n" + (CFD_LINE + "\n" if workload.cfd else ""))
    return paths
