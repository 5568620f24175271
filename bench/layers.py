"""Which dlearn functions the benchmark measures, and the per-layer metrics
made from what it records there.

Two sets of wrappers exist. `Probes` are cheap counters installed in timed
and traced runs alike: the outermost coverage verdicts (for the failed-
operations share), the similarity indexes built (for the fan-out report), the
number of scored value pairs and the size of every ground bottom clause.
`install_spans` adds one span per call at every layer boundary, for the
traced run only.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict

from dlearn import (constraints, evalcli, generalization, learner, logic, saturation, store,
                    subsumption, textsim)

from spans import CoverageCounter, Patches, Tracer, outermost, self_times, spanned
from workloads import MATCHED

COVERS = ("subsumption.covers_positive", "subsumption.covers_negative")


def _repair_literals(clause) -> int:
    return sum(isinstance(lit, logic.RepairLit) for lit in clause.body)


class Probes:
    def __init__(self):
        self.coverage = CoverageCounter()
        self.indexes: list[tuple[list, textsim.SimilarityIndex]] = []
        self.pairs_scored = 0
        self.ground_sizes: list[tuple[int, int]] = []
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        patches.replace(subsumption, "covers_positive", self.coverage.wrap)
        patches.replace(subsumption, "covers_negative", self.coverage.wrap)

        def index_capture(fn):
            def wrapper(db, examples, *args, **kwargs):
                idx = fn(db, examples, *args, **kwargs)
                self.indexes.append((list(examples), idx))
                return idx
            return wrapper

        def pair_count(fn):
            def wrapper(*args, **kwargs):
                with self._lock:
                    self.pairs_scored += 1
                return fn(*args, **kwargs)
            return wrapper

        def ground_size(fn):
            def wrapper(*args, **kwargs):
                g = fn(*args, **kwargs)
                with self._lock:
                    self.ground_sizes.append((len(g.body), _repair_literals(g)))
                return g
            return wrapper

        patches.replace(textsim, "build_similarity_index", index_capture)
        patches.replace(textsim, "combined_similarity", pair_count)
        patches.replace(saturation, "ground_bottom_clause", ground_size)

    def properties(self) -> dict[str, tuple[float, str]]:
        """The workload properties a later change may condition on: index
        fan-out per example, repair literals per ground clause, pairs scored."""
        fanouts = []
        for examples, idx in self.indexes:
            fanouts.extend(len(idx.matches(*MATCHED, ex.values[0])) for ex in examples)
        return {
            "workload.fanout_ge2_share": (sum(f >= 2 for f in fanouts) / len(fanouts), "ratio"),
            "workload.fanout_mean": (statistics.fmean(fanouts), "count"),
            "saturation.repair_literals_mean":
                (statistics.fmean(r for _, r in self.ground_sizes), "count"),
            "textsim.pairs_scored": (self.pairs_scored, "count"),
        }


# (module, attribute, span name, tag function)
SPANNED = (
    (store, "parse_schema", "store.parse_schema", None),
    (store, "load_csv", "store.load_csv", None),
    (store, "select_eq", "store.select_eq", None),
    (store, "select_sim", "store.select_sim", None),
    (constraints, "parse_constraints", "constraints.parse_constraints", None),
    (constraints, "find_cfd_violations", "constraints.find_cfd_violations", None),
    (textsim, "build_similarity_index", "textsim.build_similarity_index", None),
    (saturation, "ground_bottom_clause", "saturation.ground_bottom_clause", None),
    (saturation, "bottom_clause", "saturation.bottom_clause", None),
    (logic, "repaired_clauses", "logic.repaired_clauses", lambda a, r: len(r)),
    (logic, "partial_repairs", "logic.partial_repairs", lambda a, r: len(r)),
    (subsumption, "subsumes_with_repairs", "subsumption.subsumes_with_repairs", None),
    (subsumption, "covers_positive", "subsumption.covers_positive", lambda a, v: v.covered),
    (subsumption, "covers_negative", "subsumption.covers_negative", lambda a, v: v.covered),
    (generalization, "armg", "generalization.armg", lambda a, r: (len(a[0].body), len(r.body))),
    (learner, "learn", "learner.learn", lambda a, d: len(d.clauses)),
    (learner, "learn_clause", "learner.learn_clause", None),
    (evalcli, "evaluate", "evalcli.evaluate", None),
    (evalcli, "parse_examples", "evalcli.parse_examples", None),
)


def install_spans(tracer: Tracer, patches: Patches) -> None:
    for module, attr, name, tag in SPANNED:
        patches.replace(module, attr, spanned(tracer, name, tag))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, probes: Probes, cpu_util: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}. Times are self times
    summed over the run, except the covers_*_s times, which are the whole
    time of the outermost coverage tests of each kind. On a thread pool the
    self times of the pool threads add up to more than the wall time.
    Pool spans must have been adopted (spans.adopt_pool_spans)."""
    own = self_times(tracer.spans)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def done(name):
        return [s for s in by_name[name] if not (isinstance(s.tag, tuple) and s.tag[0] == "raised")]

    outer = outermost(tracer.spans, COVERS)
    pos = [s for s in outer if s.name == COVERS[0]]
    neg = [s for s in outer if s.name == COVERS[1]]
    expansions = [s.tag for n in ("logic.repaired_clauses", "logic.partial_repairs") for s in done(n)]
    cap_hits = sum(1 for n in ("logic.repaired_clauses", "logic.partial_repairs") for s in by_name[n]
                   if s.tag == ("raised", "RepairCapExceeded"))
    armg = [s.tag for s in by_name["generalization.armg"]]
    pairs_kept = sum(len(m) for _, idx in probes.indexes
                     for table in idx.entries.values() for m in table.values())
    pairs_scored = probes.pairs_scored
    seeds = calls("learner.learn_clause")
    clauses = sum(s.tag for s in by_name["learner.learn"])
    exhausted = probes.coverage.exhausted
    m = {
        "textsim.index_s": (self_s("textsim.build_similarity_index"), "s"),
        "textsim.index_builds": (calls("textsim.build_similarity_index"), "count"),
        "textsim.pairs_kept": (pairs_kept, "count"),
        "textsim.kept_ratio": (_ratio(pairs_kept, pairs_scored), "ratio"),
        "saturation.ground_s": (self_s("saturation.ground_bottom_clause"), "s"),
        "saturation.ground_calls": (calls("saturation.ground_bottom_clause"), "count"),
        "saturation.bottom_s": (self_s("saturation.bottom_clause"), "s"),
        "saturation.bottom_calls": (calls("saturation.bottom_clause"), "count"),
        "saturation.ground_literals_mean":
            (statistics.fmean(n for n, _ in probes.ground_sizes), "count"),
        # module-wide times: the CFD-only functions alone take no time at all
        # on the workloads without a CFD
        "constraints.self_s": (self_s("constraints.parse_constraints",
                                      "constraints.find_cfd_violations"), "s"),
        "constraints.violation_calls": (calls("constraints.find_cfd_violations"), "count"),
        "logic.expand_s": (self_s("logic.repaired_clauses", "logic.partial_repairs"), "s"),
        "logic.repaired_calls": (calls("logic.repaired_clauses"), "count"),
        "logic.partial_calls": (calls("logic.partial_repairs"), "count"),
        "logic.expansions_per_call": (_ratio(sum(expansions), len(expansions)), "count"),
        "logic.repair_cap_hits": (cap_hits, "count"),
        "subsumption.subsume_s": (self_s("subsumption.subsumes_with_repairs"), "s"),
        "subsumption.subsume_calls": (calls("subsumption.subsumes_with_repairs"), "count"),
        "subsumption.covers_pos_s": (sum(s.end - s.start for s in pos), "s"),
        "subsumption.covers_pos_calls": (len(pos), "count"),
        "subsumption.covers_neg_s": (sum(s.end - s.start for s in neg), "s"),
        "subsumption.covers_neg_calls": (len(neg), "count"),
        "subsumption.covers_self_s": (self_s(*COVERS), "s"),
        "subsumption.pos_hit_ratio": (_ratio(sum(s.tag for s in pos), len(pos)), "ratio"),
        "subsumption.neg_hit_ratio": (_ratio(sum(s.tag for s in neg), len(neg)), "ratio"),
        "subsumption.budget_exhausted": (exhausted, "count"),
        "subsumption.exhausted_frac": (_ratio(exhausted, probes.coverage.attempted), "ratio"),
        "generalization.armg_s": (self_s("generalization.armg"), "s"),
        "generalization.armg_calls": (len(armg), "count"),
        "generalization.armg_empty": (sum(1 for _, out in armg if out == 0), "count"),
        "generalization.literals_dropped_mean":
            (_ratio(sum(i - o for i, o in armg), len(armg)), "count"),
        "learner.learn_self_s": (self_s("learner.learn", "learner.learn_clause"), "s"),
        "learner.seeds": (seeds, "count"),
        "learner.clauses": (clauses, "count"),
        "learner.accept_ratio": (_ratio(clauses, seeds), "ratio"),
        "learner.cpu_util": (cpu_util, "ratio"),
        "evalcli.evaluate_self_s": (self_s("evalcli.evaluate"), "s"),
        "store.load_s": (self_s("store.parse_schema", "store.load_csv"), "s"),
        "store.select_s": (self_s("store.select_eq", "store.select_sim"), "s"),
        "store.select_calls": (calls("store.select_eq", "store.select_sim"), "count"),
    }
    return m
