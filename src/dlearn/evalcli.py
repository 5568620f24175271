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
import sys
import time
from dataclasses import dataclass

from . import learner, logic, oracle, store, subsumption, textsim
from .constraints import ConstraintError, parse_constraints
from .learner import ExamplesError, LearnedClause, LearnedDefinition, LearnerConfig
from .logic import ClauseError
from .oracle import OracleCapExceeded
from .saturation import SaturationError
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
        return learner.precision(self.tp, self.fp)

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
    ground = learner.Grounding(db, mds, cfds, list(test_pos) + list(test_neg), cfg).ground
    limits = (cfg.subsumption_budget, cfg.repair_cap)

    def covered(covers, example) -> bool:
        g = ground[example.key()]
        return any(covers(lc.clause, g, *limits).covered for lc in definition.clauses)

    tp = sum(covered(subsumption.covers_positive, e) for e in test_pos)
    fp = sum(covered(subsumption.covers_negative, e) for e in test_neg)
    return Metrics(tp=tp, fp=fp, fn=len(test_pos) - tp, wall_time=time.perf_counter() - start)


def stratified_folds(pos, neg, folds: int, rng) -> list[tuple[list, list, list, list]]:
    """(train_pos, train_neg, test_pos, test_neg) per fold, keeping the
    positive/negative ratio of every fold close to the global one. Raises
    ExamplesError for fewer than 2 folds or fewer positives than folds."""
    if folds < 2:
        raise ExamplesError(f"cross validation needs at least 2 folds, got {folds}")
    if len(pos) < folds:
        raise ExamplesError(f"{len(pos)} positive examples for {folds} folds")
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
    """Per-fold metrics plus one row over all folds, which the CLI labels
    `mean`: it pools the folds' tp, fp and fn counts and sums their wall
    times, so its precision, recall and F1 are those of the pooled counts."""
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

def parse_examples(text: str, target: str,
                   arity: int | None = None) -> tuple[list[Example], list[Example]]:
    """Positive and negative examples, one CSV record each (store.csv_records);
    given the target's arity, every record must carry exactly that many
    values. Errors name the line an example starts on (a quoted value may
    span lines)."""
    pos, neg = [], []
    for lineno, row in store.csv_records(text, "examples line "):
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


def _clause_texts(text: str):
    """(first line number, text) of each clause of a definition file. A
    clause continues onto the next line while its text holds an odd number
    of `'`, that is while one of its constants holds a line break: quotes
    occur only in constants, and `''` counts two. Blank and `#` lines
    between clauses are skipped."""
    first, clause = 0, ""
    # a "\r\n" ending leaves "\r" on a line; strip() drops it at a clause's end
    for lineno, line in enumerate(text.split("\n"), start=1):
        if clause:
            clause += "\n" + line
        elif line.strip() and not line.strip().startswith("#"):
            first, clause = lineno, line
        if clause and clause.count("'") % 2 == 0:
            yield first, clause.strip()
            clause = ""
    if clause:
        yield first, clause.strip()


def read_definition(path: str, target: str, arity: int) -> LearnedDefinition:
    """The clauses of a definition file, one per line (`#` lines are
    comments) unless a constant holds a line break. Every clause head must
    be the target relation with `arity` arguments; errors name the clause's
    first line."""
    definition = LearnedDefinition(target=target)
    for lineno, text in _clause_texts(store.read_text(path)):
        try:
            clause = logic.parse_clause(text)
        except ClauseError as exc:
            raise ClauseError(f"definition line {lineno}: {exc}") from None
        head = clause.head
        if head.relation != target:
            raise ClauseError(f"definition line {lineno}: clause head is {head.relation}, "
                              f"not the target {target}")
        if len(head.args) != arity:
            raise ClauseError(f"definition line {lineno}: clause head has {len(head.args)} "
                              f"arguments for a target of arity {arity}")
        definition.clauses.append(LearnedClause(clause, learner.ClauseStats(pos=0, neg=0)))
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


# Each learner option as (flag, LearnerConfig field, help), in `-h` order.
# An option's type and default are its field's; its dest is the flag less
# its dashes, as argparse derives it.
CONFIG_OPTIONS = (
    ("--d", "d", "saturation iterations"),
    ("--km", "k_m", "similar matches kept per value"),
    ("--sample-size", "sample_size",
     "bound on the new tuples kept per probe (relation, attribute, iteration)"),
    ("--sim-threshold", "sim_threshold",
     "least combined similarity, in [0, 1], of a value pair the similarity index keeps"),
    ("--K", "K", "positives sampled per generalization round"),
    ("--min-pos", "min_pos", "least positives a clause must cover to enter the definition"),
    ("--min-precision", "min_precision",
     "least precision, in [0, 1], of a clause that enters the definition"),
    ("--seed", "rng_seed", "seed of all randomness: reruns give byte-identical definitions"),
    ("--threads", "threads", "accepted and has no effect: coverage runs on one thread"),
    ("--budget", "subsumption_budget",
     "candidate unifications one subsumption search tries; past it, a flagged non-cover"),
    ("--repair-cap", "repair_cap",
     "repair-free expansions of one clause, past which it covers nothing; oracle: "
     "stable instances, past which the run stops"),
    ("--cfd-cap", "cfd_fixpoint_cap",
     "CFD injection rounds per clause; a clause that needs more stops the run"),
)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    for flag, name, help_text in CONFIG_OPTIONS:
        default = getattr(LearnerConfig, name)
        p.add_argument(flag, type=type(default), default=default, help=help_text)


def _config(args) -> LearnerConfig:
    return LearnerConfig(**{name: getattr(args, flag[2:].replace("-", "_"))
                            for flag, name, _ in CONFIG_OPTIONS})


def _load(args):
    schema = store.parse_schema(store.read_text(args.schema), target=args.target)
    db = store.load_csv(schema, args.data)
    mds, cfds = [], []
    if args.constraints:
        mds, cfds = parse_constraints(store.read_text(args.constraints), schema)
    mds, cfds = apply_mode(mds, cfds, args.mode)
    arity = schema.relation(args.target).arity
    pos, neg = parse_examples(store.read_text(args.examples), args.target, arity)
    return db, mds, cfds, pos, neg, arity


def _report(rows: list[tuple[str, Metrics]], args) -> int:
    print(metrics_table(rows))
    if args.metrics_csv:
        write_metrics_csv(rows, args.metrics_csv)
    return 0


def _cmd_learn(args) -> int:
    db, mds, cfds, pos, neg, _ = _load(args)
    cfg = _config(args)
    definition = learner.learn(db, mds, cfds, pos, neg, cfg)
    write_definition(definition, args.out)
    return _report([("train", evaluate(definition, pos, neg, db, mds, cfds, cfg))], args)


def _cmd_eval(args) -> int:
    db, mds, cfds, pos, neg, arity = _load(args)
    cfg = _config(args)
    definition = read_definition(args.definition, args.target, arity)
    return _report([("test", evaluate(definition, pos, neg, db, mds, cfds, cfg))], args)


def _cmd_cv(args) -> int:
    db, mds, cfds, pos, neg, _ = _load(args)
    results, mean = cross_validate(db, mds, cfds, pos, neg, args.folds, _config(args))
    return _report([(f"fold{i}", m) for i, m in enumerate(results)] + [("mean", mean)], args)


def _cmd_saturate(args) -> int:
    db, mds, cfds, _, _, arity = _load(args)
    cfg = _config(args)
    values = next((fields for _, fields in store.csv_records(args.example, "--example line ")), [])
    if len(values) != arity:
        raise ExamplesError(f"--example: {len(values)} values for a target of arity {arity}")
    example = Example(args.target, tuple(values))
    grounding = learner.Grounding(db, mds, cfds, [example], cfg)
    print(logic.print_clause(grounding.ground[example.key()]))
    return 0


def _cmd_subsume(args) -> int:
    if args.budget < 1:
        raise SaturationError(f"--budget must be positive, got {args.budget}")
    c = logic.parse_clause(store.read_text(args.clause_c).strip())
    d = logic.parse_clause(store.read_text(args.clause_d).strip())
    verdict = subsumption.subsumes_with_repairs(c, d, budget=args.budget)
    if verdict.covered:
        witness = ",".join(
            f"{logic.print_term(k)}={logic.print_term(v)}"
            for k, v in sorted(verdict.witness.items(), key=lambda kv: kv[0].id)
        )
        print("COVERED " + witness)
        return 0
    print("NOT_COVERED budget_exhausted" if verdict.budget_exhausted else "NOT_COVERED")
    return 1


def _cmd_sim_index(args) -> int:
    db, mds, _, pos, neg, _ = _load(args)
    cfg = _config(args)
    idx = textsim.build_similarity_index(db, pos + neg, mds, cfg.k_m, cfg.sim_threshold)
    writer = csv.writer(sys.stdout)
    for left_attr, right_attr, left, right, score in idx.rows():
        writer.writerow([left_attr, right_attr, left, right, f"{score:.6f}"])
    return 0


def _cmd_oracle(args) -> int:
    db, mds, cfds, pos, neg, _ = _load(args)
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


# Each subcommand as (name, help, handler, own options as (flag, keywords of
# add_argument)), in `dlearn -h` order. Every command but subsume reads a
# database and takes the data and learner options before its own.
COMMANDS = (
    ("learn", "learn a definition and write it to --out", _cmd_learn,
     (("--out", {"required": True}), ("--metrics-csv", {}))),
    ("eval", "evaluate a definition file on examples", _cmd_eval,
     (("--definition", {"required": True}), ("--metrics-csv", {}))),
    ("cv", "cross-validate", _cmd_cv,
     (("--folds", {"type": int, "default": 5}), ("--metrics-csv", {}))),
    ("saturate", "print the ground bottom clause of one example", _cmd_saturate,
     (("--example", {"required": True, "help": "comma separated example values"}),)),
    ("subsume", "check subsumption between two clause files", _cmd_subsume,
     (("clause_c", {}), ("clause_d", {}),
      ("--budget", {"type": int, "default": subsumption.DEFAULT_BUDGET}))),
    ("sim-index", "dump the similarity index as CSV", _cmd_sim_index, ()),
    ("oracle", "enumerate the repairs of a small database", _cmd_oracle, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlearn",
                                     description="rule learning over dirty relational data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, own in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name != "subsume":
            _add_data_args(p)
            _add_config_args(p)
        for flag, keywords in own:
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Malformed, unreadable or non-UTF-8 input files,
    option values the config or `subsume` rejects, a CFD repair without a
    fixpoint and an oracle search past its cap end the run with a one-line
    message on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StoreError, ConstraintError, ClauseError, ExamplesError, SaturationError,
            OracleCapExceeded, OSError) as exc:
        print(f"dlearn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
