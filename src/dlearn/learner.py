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
from .saturation import SaturationConfig, SaturationError
from .store import Database, Example
from .util import derive_rng


class ExamplesError(ValueError):
    """Examples that cannot be parsed, split into folds or learned from."""


@dataclass(frozen=True)
class LearnerConfig(SaturationConfig):
    """Learning settings. The saturation fields (d, sample_size, rng_seed,
    cfd_fixpoint_cap) are inherited, so the config is passed to saturation
    as it is. Construction checks that those fields, k_m, K, min_pos,
    subsumption_budget and repair_cap are positive, and that sim_threshold
    and min_precision lie in [0, 1], and raises SaturationError otherwise."""

    k_m: int = 5
    sim_threshold: float = 0.65
    K: int = 10
    min_pos: int = 2
    min_precision: float = 0.7
    subsumption_budget: int = subsumption.DEFAULT_BUDGET
    repair_cap: int = subsumption.DEFAULT_REPAIR_CAP
    # accepted and ignored: coverage tests are pure Python, so threads cannot
    # run them in parallel under the GIL
    threads: int = 1

    _positive = SaturationConfig._positive + (
        "k_m", "K", "min_pos", "subsumption_budget", "repair_cap")
    _unit_interval = ("sim_threshold", "min_precision")

    def __post_init__(self):
        super().__post_init__()
        for name in self._unit_interval:
            value = getattr(self, name)
            # written so that NaN, which compares false, fails too
            if not 0 <= value <= 1:
                raise SaturationError(f"{name} must be in [0, 1], got {value}")

    def saturation_config(self) -> SaturationConfig:
        """The config itself, which is a SaturationConfig."""
        return self


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


def precision(tp: int, fp: int) -> float:
    """tp / (tp + fp), and 0.0 when both are 0."""
    return tp / (tp + fp) if tp + fp else 0.0


def minimum_criterion(stats: ClauseStats, cfg: LearnerConfig) -> bool:
    return stats.pos >= cfg.min_pos and precision(stats.pos, stats.neg) >= cfg.min_precision


class Grounding:
    """The similarity index over a list of examples and each example's
    ground bottom clause by example key, built once and read by every
    coverage test of a learning or evaluation run."""

    def __init__(self, db: Database, mds, cfds, examples, cfg: LearnerConfig):
        self.db = db
        self.mds = mds
        self.cfds = cfds
        self.idx = textsim.build_similarity_index(db, examples, mds, cfg.k_m, cfg.sim_threshold)
        self.ground: dict[str, logic.Clause] = {
            ex.key(): saturation.ground_bottom_clause(ex, db, mds, cfds, self.idx, cfg)
            for ex in examples}


def learn_clause(grounding: Grounding, seed: Example, uncovered, negatives,
                 cfg: LearnerConfig) -> tuple[logic.Clause, ClauseStats]:
    """One bottom clause, generalized greedily while the score improves.

    Each round generalizes the current clause against sampled positives
    (one candidate per distinct clause, none equal to the current one put
    in ARMG literal order, generalization.order_clause) and moves to the
    best candidate when it scores strictly higher. The bottom clause is
    scored only as far as round 1 needs: its testing stops once it is known
    to score below that round's best candidate (score_clause's `beat`),
    often before any negative is tested. It is scored in full only when it
    is kept. Clause and stats are the same as when the bottom clause is
    scored in full first.
    """
    limits = (cfg.subsumption_budget, cfg.repair_cap)
    positives = [(e.key(), grounding.ground[e.key()]) for e in uncovered]
    neg_gs = [grounding.ground[e.key()] for e in negatives]
    current = saturation.bottom_clause(seed, grounding.db, grounding.mds, grounding.cfds,
                                       grounding.idx, cfg)
    score = stats = None  # not known yet for the bottom clause
    rng = derive_rng(cfg.rng_seed, "generalize", seed.key())
    while True:
        k = min(cfg.K, len(uncovered))
        picked = [uncovered[i] for i in sorted(rng.sample(range(len(uncovered)), k))]
        seen: dict[str, logic.Clause] = {}
        # equal candidates are keyed once; the first of them is kept
        for cand in dict.fromkeys(generalization.armg(current, grounding.ground[e.key()], *limits)
                                  for e in picked):
            seen.setdefault(logic.clause_key(cand), cand)
        # a candidate equal to the current clause in ARMG literal order (in round 1,
        # the bottom clause's own armg) scores the same and cannot replace it;
        # dropped after deduplication, so each key keeps its clause
        ordered = generalization.order_clause(current).clause
        candidates = [seen[k2] for k2 in sorted(seen) if seen[k2] != ordered]
        if not candidates:
            break
        cand, cand_score, cand_stats = generalization.best_scored(candidates, positives,
                                                                  neg_gs, *limits)
        if score is None:
            # None: the bottom clause scores below the candidate, which replaces it
            scored = generalization.score_clause(current, positives, neg_gs, *limits,
                                                 beat=cand_score - 1)
            if scored is not None:
                score, stats = scored
        if score is not None and cand_score <= score:
            break
        current, score, stats = cand, cand_score, cand_stats
    if score is None:
        _, stats = generalization.score_clause(current, positives, neg_gs, *limits)
    return current, stats


def learn(db: Database, mds, cfds, pos, neg, cfg: LearnerConfig) -> LearnedDefinition:
    """Learn a definition of the target relation covering the positives."""
    if not pos:
        raise ExamplesError("no positive example to learn from")
    grounding = Grounding(db, mds, cfds, list(pos) + list(neg), cfg)
    definition = LearnedDefinition(target=db.schema.target)
    uncovered = list(pos)
    exhausted: set[str] = set()
    rng = derive_rng(cfg.rng_seed, "seeds")
    while uncovered:
        available = [e for e in uncovered if e.key() not in exhausted]
        if not available:
            break
        seed = available[rng.randrange(len(available))]
        clause, stats = learn_clause(grounding, seed, uncovered, neg, cfg)
        if minimum_criterion(stats, cfg):
            definition.clauses.append(LearnedClause(clause, stats))
            covered = set(stats.covered_pos)
            uncovered = [e for e in uncovered if e.key() not in covered]
        else:
            exhausted.add(seed.key())
    return definition
