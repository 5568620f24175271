"""Covering loop: build a bottom clause for a random uncovered example,
generalize it against sampled positives until the score stops improving, keep
it when it meets the minimum criterion, and repeat until every positive is
covered or every seed has been tried.

All randomness flows from one seed through named sub-streams, and coverage
work runs in example order, so the same seed always gives the same
definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import generalization, logic, saturation, subsumption, textsim
from .generalization import ClauseStats
from .saturation import SaturationConfig
from .store import Database, Example
from .util import derive_rng


@dataclass(frozen=True)
class LearnerConfig:
    d: int = 4
    k_m: int = 5
    sample_size: int = 10
    sim_threshold: float = 0.65
    K: int = 10
    min_pos: int = 2
    min_precision: float = 0.7
    rng_seed: int = 0
    subsumption_budget: int = subsumption.DEFAULT_BUDGET
    repair_cap: int = subsumption.DEFAULT_REPAIR_CAP
    cfd_fixpoint_cap: int = 16
    # accepted and ignored: coverage tests are pure Python, so threads cannot
    # run them in parallel under the GIL
    threads: int = 1

    def saturation_config(self) -> SaturationConfig:
        return SaturationConfig(d=self.d, sample_size=self.sample_size,
                                rng_seed=self.rng_seed, cfd_fixpoint_cap=self.cfd_fixpoint_cap)


@dataclass
class LearnedClause:
    clause: logic.Clause
    stats: ClauseStats


@dataclass
class LearnedDefinition:
    target: str
    clauses: list[LearnedClause] = field(default_factory=list)

    def pretty(self) -> str:
        lines = []
        for lc in self.clauses:
            flag = " budget_exhausted" if lc.stats.budget_exhausted else ""
            lines.append(f"# pos={lc.stats.pos} neg={lc.stats.neg}{flag}")
            lines.append(logic.print_clause(lc.clause))
        return "\n".join(lines) + ("\n" if lines else "")


def minimum_criterion(stats: ClauseStats, cfg: LearnerConfig) -> bool:
    if stats.pos < cfg.min_pos:
        return False
    total = stats.pos + stats.neg
    precision = stats.pos / total if total else 0.0
    return precision >= cfg.min_precision


def ground_examples(db: Database, mds, cfds, examples, cfg: LearnerConfig):
    """(similarity index over the examples, the ground bottom clause of each
    example in order)."""
    idx = textsim.build_similarity_index(db, examples, mds, cfg.k_m, cfg.sim_threshold)
    sat_cfg = cfg.saturation_config()
    return idx, [saturation.ground_bottom_clause(ex, db, mds, cfds, idx, sat_cfg)
                 for ex in examples]


class _Session:
    """Shared state for one learning run: ground bottom clauses are built
    once per example and reused by every coverage test."""

    def __init__(self, db: Database, mds, cfds, pos, neg, cfg: LearnerConfig):
        self.db = db
        self.mds = mds
        self.cfds = cfds
        self.sat_cfg = cfg.saturation_config()
        examples = list(pos) + list(neg)
        self.idx, grounds = ground_examples(db, mds, cfds, examples, cfg)
        self.ground: dict[str, logic.Clause] = {
            ex.key(): g for ex, g in zip(examples, grounds)}


def learn_clause(session: _Session, seed: Example, uncovered, negatives,
                 cfg: LearnerConfig) -> tuple[logic.Clause, ClauseStats]:
    """One bottom clause, generalized greedily while the score improves."""
    limits = (cfg.subsumption_budget, cfg.repair_cap)
    positives = [(e.key(), session.ground[e.key()]) for e in uncovered]
    neg_gs = [session.ground[e.key()] for e in negatives]
    current = saturation.bottom_clause(seed, session.db, session.mds, session.cfds,
                                       session.idx, session.sat_cfg)
    score, stats = generalization.score_clause(current, positives, neg_gs, *limits)
    rng = derive_rng(cfg.rng_seed, "generalize", seed.key())
    while True:
        k = min(cfg.K, len(uncovered))
        picked = [uncovered[i] for i in sorted(rng.sample(range(len(uncovered)), k))]
        seen: dict[str, logic.Clause] = {}
        for e in picked:
            cand = generalization.armg(current, session.ground[e.key()], *limits)
            seen.setdefault(logic.clause_key(cand, sort=True), cand)
        if not seen:
            break
        candidates = [seen[k2] for k2 in sorted(seen)]
        cand, cand_score, cand_stats = generalization.best_scored(candidates, positives,
                                                                  neg_gs, *limits)
        if cand_score <= score:
            break
        current, score, stats = cand, cand_score, cand_stats
    return current, stats


def learn(db: Database, mds, cfds, pos, neg, cfg: LearnerConfig) -> LearnedDefinition:
    """Learn a definition of the target relation covering the positives."""
    if not pos:
        raise ValueError("at least one positive example is required")
    session = _Session(db, mds, cfds, pos, neg, cfg)
    definition = LearnedDefinition(target=db.schema.target)
    uncovered = list(pos)
    exhausted: set[str] = set()
    rng = derive_rng(cfg.rng_seed, "seeds")
    while uncovered:
        available = [e for e in uncovered if e.key() not in exhausted]
        if not available:
            break
        seed = available[rng.randrange(len(available))]
        clause, stats = learn_clause(session, seed, uncovered, neg, cfg)
        if minimum_criterion(stats, cfg):
            definition.clauses.append(LearnedClause(clause, stats))
            covered = set(stats.covered_pos)
            uncovered = [e for e in uncovered if e.key() not in covered]
            if not covered:
                exhausted.add(seed.key())
        else:
            exhausted.add(seed.key())
    return definition


def definition_covers_positive(definition: LearnedDefinition, g, cfg: LearnerConfig) -> bool:
    """A definition covers a positive example when any clause does."""
    return any(
        subsumption.covers_positive(lc.clause, g, cfg.subsumption_budget, cfg.repair_cap).covered
        for lc in definition.clauses
    )


def definition_covers_negative(definition: LearnedDefinition, g, cfg: LearnerConfig) -> bool:
    return any(
        subsumption.covers_negative(lc.clause, g, cfg.subsumption_budget, cfg.repair_cap).covered
        for lc in definition.clauses
    )
