"""Experiment harness and command-line front end.

Subcommands: learn, eval, cv, saturate, subsume, sim-index, and oracle (a
hidden helper that enumerates the repairs of a small database). Example files
hold one example per line as `<label>,<v1>,...,<vk>` with label `+` or `-`;
definition files hold one clause per line preceded by a `# pos=.. neg=..`
comment, which ends in ` budget_exhausted` when a coverage test of the clause
ran out of its search budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass

from . import learner, logic, oracle, saturation, store, subsumption, textsim
from .constraints import ConstraintError, parse_constraints
from .learner import LearnedClause, LearnedDefinition, LearnerConfig
from .logic import ClauseError
from .store import Example, StoreError
from .util import derive_rng

MODES = ("full", "no-md", "no-cfd")


@dataclass
class Metrics:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    wall_time: float = 0.0

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def apply_mode(mds, cfds, mode: str):
    if mode == "no-md":
        return [], list(cfds)
    if mode == "no-cfd":
        return list(mds), []
    return list(mds), list(cfds)


def evaluate(definition: LearnedDefinition, test_pos, test_neg, db, mds, cfds,
             cfg: LearnerConfig) -> Metrics:
    """Score a definition on held-out examples: positives count through
    positive coverage of their ground bottom clauses, negatives through
    negative coverage."""
    start = time.perf_counter()
    _, grounds = learner.ground_examples(db, mds, cfds, list(test_pos) + list(test_neg), cfg)
    metrics = Metrics()
    for g in grounds[:len(test_pos)]:
        if learner.definition_covers_positive(definition, g, cfg):
            metrics.tp += 1
        else:
            metrics.fn += 1
    for g in grounds[len(test_pos):]:
        if learner.definition_covers_negative(definition, g, cfg):
            metrics.fp += 1
    metrics.wall_time = time.perf_counter() - start
    return metrics


def stratified_folds(pos, neg, folds: int, rng) -> list[tuple[list, list, list, list]]:
    """(train_pos, train_neg, test_pos, test_neg) per fold, keeping the
    positive/negative ratio of every fold close to the global one."""
    if folds < 2:
        raise ValueError("cross validation needs at least 2 folds")
    if len(pos) < folds:
        raise ValueError("fewer positive examples than folds")
    pos, neg = list(pos), list(neg)
    rng.shuffle(pos)
    rng.shuffle(neg)
    pos_folds = [pos[i::folds] for i in range(folds)]
    neg_folds = [neg[i::folds] for i in range(folds)]
    out = []
    for i in range(folds):
        test_p, test_n = pos_folds[i], neg_folds[i]
        train_p = [e for j in range(folds) if j != i for e in pos_folds[j]]
        train_n = [e for j in range(folds) if j != i for e in neg_folds[j]]
        out.append((train_p, train_n, test_p, test_n))
    return out


def cross_validate(db, mds, cfds, pos, neg, folds: int, cfg: LearnerConfig):
    """Per-fold metrics plus their mean."""
    rng = derive_rng(cfg.rng_seed, "folds")
    results = []
    for train_p, train_n, test_p, test_n in stratified_folds(pos, neg, folds, rng):
        definition = learner.learn(db, mds, cfds, train_p, train_n, cfg)
        results.append(evaluate(definition, test_p, test_n, db, mds, cfds, cfg))
    mean = Metrics(
        tp=sum(m.tp for m in results),
        fp=sum(m.fp for m in results),
        fn=sum(m.fn for m in results),
        wall_time=sum(m.wall_time for m in results),
    )
    return results, mean


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class ExamplesError(ValueError):
    pass


def parse_examples(text: str, target: str,
                   arity: int | None = None) -> tuple[list[Example], list[Example]]:
    """Positive and negative examples; given the target's arity, every line
    must carry exactly that many values. Errors name the line an example
    starts on (a quoted value may span lines)."""
    pos, neg = [], []
    reader = csv.reader(io.StringIO(text))
    end = 0
    for row in reader:
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        label = row[0].strip()
        if label not in ("+", "-"):
            raise ExamplesError(f"examples line {lineno}: label must be '+' or '-', got {label!r}")
        if arity is not None and len(row) - 1 != arity:
            raise ExamplesError(f"examples line {lineno}: {len(row) - 1} values for a "
                                f"target of arity {arity}")
        example = Example(target, tuple(row[1:]))
        (pos if label == "+" else neg).append(example)
    return pos, neg


def write_definition(definition: LearnedDefinition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(definition.pretty())


def read_definition(path: str, target: str) -> LearnedDefinition:
    definition = LearnedDefinition(target=target)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            clause = logic.parse_clause(line)
            definition.clauses.append(
                LearnedClause(clause, learner.ClauseStats(pos=0, neg=0))
            )
    return definition


def metrics_table(rows: list[tuple[str, Metrics]]) -> str:
    header = f"{'run':<12}{'tp':>6}{'fp':>6}{'fn':>6}{'precision':>11}{'recall':>9}{'f1':>7}{'time_s':>9}"
    lines = [header]
    for name, m in rows:
        lines.append(
            f"{name:<12}{m.tp:>6}{m.fp:>6}{m.fn:>6}{m.precision:>11.4f}{m.recall:>9.4f}{m.f1:>7.4f}{m.wall_time:>9.2f}"
        )
    return "\n".join(lines)


def write_metrics_csv(rows: list[tuple[str, Metrics]], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "tp", "fp", "fn", "precision", "recall", "f1", "time_s"])
        for name, m in rows:
            writer.writerow([name, m.tp, m.fp, m.fn,
                             f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}",
                             f"{m.wall_time:.3f}"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", required=True, help="schema file: relation(attr:domain, ...) lines")
    p.add_argument("--data", required=True, help="directory with one <relation>.csv per stored relation")
    p.add_argument("--target", required=True, help="name of the target relation")
    p.add_argument("--constraints", default=None, help="constraint file (md:/cfd: lines)")
    p.add_argument("--examples", required=True, help="examples file: +|-,v1,...,vk per line")
    p.add_argument("--mode", choices=MODES, default="full")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=4, help="saturation iterations")
    p.add_argument("--km", type=int, default=5, help="similar matches kept per value")
    p.add_argument("--sample-size", type=int, default=10)
    p.add_argument("--sim-threshold", type=float, default=0.65)
    p.add_argument("--K", type=int, default=10, help="positives sampled per generalization round")
    p.add_argument("--min-pos", type=int, default=2)
    p.add_argument("--min-precision", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=int, default=subsumption.DEFAULT_BUDGET)
    p.add_argument("--repair-cap", type=int, default=subsumption.DEFAULT_REPAIR_CAP)
    p.add_argument("--cfd-cap", type=int, default=16)


def _config(args) -> LearnerConfig:
    return LearnerConfig(
        d=args.d, k_m=args.km, sample_size=args.sample_size, sim_threshold=args.sim_threshold,
        K=args.K, min_pos=args.min_pos, min_precision=args.min_precision, rng_seed=args.seed,
        subsumption_budget=args.budget, repair_cap=args.repair_cap,
        cfd_fixpoint_cap=args.cfd_cap, threads=args.threads,
    )


def _load(args):
    with open(args.schema, encoding="utf-8") as fh:
        schema = store.parse_schema(fh.read(), target=args.target)
    db = store.load_csv(schema, args.data)
    mds, cfds = [], []
    if args.constraints:
        with open(args.constraints, encoding="utf-8") as fh:
            mds, cfds = parse_constraints(fh.read(), schema)
    mds, cfds = apply_mode(mds, cfds, args.mode)
    with open(args.examples, encoding="utf-8") as fh:
        pos, neg = parse_examples(fh.read(), args.target, schema.relation(args.target).arity)
    return db, mds, cfds, pos, neg


def _cmd_learn(args) -> int:
    db, mds, cfds, pos, neg = _load(args)
    cfg = _config(args)
    definition = learner.learn(db, mds, cfds, pos, neg, cfg)
    write_definition(definition, args.out)
    metrics = evaluate(definition, pos, neg, db, mds, cfds, cfg)
    rows = [("train", metrics)]
    print(metrics_table(rows))
    if args.metrics_csv:
        write_metrics_csv(rows, args.metrics_csv)
    return 0


def _cmd_eval(args) -> int:
    db, mds, cfds, pos, neg = _load(args)
    cfg = _config(args)
    definition = read_definition(args.definition, args.target)
    metrics = evaluate(definition, pos, neg, db, mds, cfds, cfg)
    rows = [("test", metrics)]
    print(metrics_table(rows))
    if args.metrics_csv:
        write_metrics_csv(rows, args.metrics_csv)
    return 0


def _cmd_cv(args) -> int:
    db, mds, cfds, pos, neg = _load(args)
    cfg = _config(args)
    results, mean = cross_validate(db, mds, cfds, pos, neg, args.folds, cfg)
    rows = [(f"fold{i}", m) for i, m in enumerate(results)] + [("mean", mean)]
    print(metrics_table(rows))
    if args.metrics_csv:
        write_metrics_csv(rows, args.metrics_csv)
    return 0


def _cmd_saturate(args) -> int:
    db, mds, cfds, _, _ = _load(args)
    cfg = _config(args)
    values = next(csv.reader(io.StringIO(args.example)))
    example = Example(args.target, tuple(values))
    idx = textsim.build_similarity_index(db, [example], mds, cfg.k_m, cfg.sim_threshold)
    clause = saturation.ground_bottom_clause(example, db, mds, cfds, idx, cfg.saturation_config())
    print(logic.print_clause(clause))
    return 0


def _cmd_subsume(args) -> int:
    with open(args.clause_c, encoding="utf-8") as fh:
        c = logic.parse_clause(fh.read().strip())
    with open(args.clause_d, encoding="utf-8") as fh:
        d = logic.parse_clause(fh.read().strip())
    verdict = subsumption.subsumes_with_repairs(c, d, budget=args.budget)
    if verdict.covered:
        witness = ",".join(
            f"{logic.print_term(k)}={logic.print_term(v)}"
            for k, v in sorted(verdict.witness.items(), key=lambda kv: kv[0].id)
        )
        print("COVERED " + witness)
        return 0
    print("NOT_COVERED")
    return 1


def _cmd_sim_index(args) -> int:
    db, mds, _, pos, neg = _load(args)
    cfg = _config(args)
    idx = textsim.build_similarity_index(db, pos + neg, mds, cfg.k_m, cfg.sim_threshold)
    writer = csv.writer(sys.stdout)
    for left_attr, right_attr, left, right, score in idx.rows():
        writer.writerow([left_attr, right_attr, left, right, f"{score:.6f}"])
    return 0


def _cmd_oracle(args) -> int:
    db, mds, cfds, pos, neg = _load(args)
    cfg = _config(args)
    idx = textsim.build_similarity_index(db, pos + neg, mds, cfg.k_m, cfg.sim_threshold)
    rows = [e.values for e in pos + neg]
    instances = oracle.enumerate_repairs(db, mds, cfds, idx, cap=args.repair_cap, extra_rows={args.target: rows})
    for k, instance in enumerate(instances):
        print(f"# repair {k}")
        for rel in db.schema.relations:
            for row in instance.get(rel.name, []):
                print(f"{rel.name}({','.join(row)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlearn",
                                     description="rule learning over dirty relational data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a definition and write it to --out")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics-csv", default=None)
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("eval", help="evaluate a definition file on examples")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--definition", required=True)
    p.add_argument("--metrics-csv", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("cv", help="cross-validate")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--metrics-csv", default=None)
    p.set_defaults(fn=_cmd_cv)

    p = sub.add_parser("saturate", help="print the ground bottom clause of one example")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--example", required=True, help="comma separated example values")
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("subsume", help="check subsumption between two clause files")
    p.add_argument("clause_c")
    p.add_argument("clause_d")
    p.add_argument("--budget", type=int, default=subsumption.DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_subsume)

    p = sub.add_parser("sim-index", help="dump the similarity index as CSV")
    _add_data_args(p)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_sim_index)

    p = sub.add_parser("oracle", help="enumerate the repairs of a small database")
    _add_data_args(p)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Malformed schema, data, constraint, example or
    definition files end the run with a one-line message on stderr and exit
    code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StoreError, ConstraintError, ClauseError, ExamplesError) as exc:
        print(f"dlearn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
