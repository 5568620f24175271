"""Seeded benchmark for dlearn: learn/eval time, quality and per-layer cost.

    python3 bench/run.py --workload fanout-t2 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The run generates the inputs of the
workload's instances from --seed (see workloads.py), loads them through the
same loaders as the `dlearn` command line, then learns on fold 0 of a
stratified 3-fold split of each instance and evaluates on the held-out third.

--trace 0 is the timed run. It repeats passes over the instances while
--seconds allows another (at least one); a pass learns each instance,
evaluates the definition twice and loads the inputs again. Every timing is
also scaled by the host's speed around it, measured with a fixed reference
kernel (calibrate.py). It prints every end-to-end metric.
--trace 1 is the traced run: a plain pass, a pass with a span around every
call into the measured layers, and another plain pass; it prints the
per-layer metrics, the workload properties and the tracing overhead, and
writes the spans to .bench_work/spans_<workload>_<seed>_trace.csv.

Both check the outputs: every learned clause, scored again on the training
split, has the counts stored with it and meets the minimum criterion; every
printed clause re-parses and prints back identically; and the sha256
of each printed definition is the same in every pass, traced or not. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. attempted and failed count the outermost coverage tests
and those whose verdict ran out of budget. A failed check exits with code 1.
The full report goes to .bench_work/BENCH_<workload>_<seed>[_trace].json.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

if not os.path.isfile(os.path.join(SRC, "dlearn", "__init__.py")):
    sys.exit(f"bench: no dlearn sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

from dlearn import (constraints, evalcli, learner, logic, saturation, store,  # noqa: E402
                    subsumption, textsim)
from dlearn.util import derive_rng  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from spans import Patches, Tracer, adopt_pool_spans, self_times  # noqa: E402
from workloads import TARGET, WORKLOADS, Workload, instance_seeds, write_inputs  # noqa: E402


def load(paths: dict[str, str]):
    """The set-up step: schema, CSV data, constraints and examples."""
    with open(paths["schema"], encoding="utf-8") as fh:
        schema = store.parse_schema(fh.read(), target=TARGET)
    db = store.load_csv(schema, paths["data"])
    with open(paths["constraints"], encoding="utf-8") as fh:
        mds, cfds = constraints.parse_constraints(fh.read(), schema)
    with open(paths["examples"], encoding="utf-8") as fh:
        pos, neg = evalcli.parse_examples(fh.read(), TARGET)
    return db, mds, cfds, pos, neg


def config(wl: Workload) -> learner.LearnerConfig:
    return learner.LearnerConfig(d=3, rng_seed=7, k_m=wl.k_m, threads=wl.threads)


def split(inputs, seed: int):
    """(train_pos, train_neg, test_pos, test_neg): fold 0 of a stratified
    3-fold split."""
    _, _, _, pos, neg = inputs
    return evalcli.stratified_folds(pos, neg, 3, derive_rng(seed, "split"))[0]


def timed(work):
    """(work(), wall seconds, scaled seconds, CPU seconds). The scaled time
    divides the wall time by the host's speed at that moment: the mean of the
    reference kernel's times right before and right after the call, over the
    kernel's reference time (calibrate.py)."""
    gc.collect()
    k0 = calibrate.sample()
    t0, c0 = time.perf_counter(), time.process_time()
    out = work()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    k1 = calibrate.sample()
    return out, wall, wall * calibrate.REFERENCE_S / ((k0 + k1) / 2), cpu


def learn_and_eval(inputs, seed: int, cfg: learner.LearnerConfig) -> dict:
    db, mds, cfds, _, _ = inputs
    train_p, train_n, test_p, test_n = split(inputs, seed)
    definition, learn_s, learn_scaled, learn_cpu_s = timed(
        lambda: learner.learn(db, mds, cfds, train_p, train_n, cfg))
    m, eval_s, eval_scaled, _ = timed(
        lambda: evalcli.evaluate(definition, test_p, test_n, db, mds, cfds, cfg))
    text = definition.pretty()
    return {
        "seed": seed, "learn_s": learn_s, "learn_scaled": learn_scaled, "learn_cpu_s": learn_cpu_s,
        "eval_s": [eval_s], "eval_scaled": [eval_scaled],
        "test_f1": m.f1, "clauses": len(definition.clauses),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "problems": check(definition, cfg, m, len(test_p), len(test_n)),
        "definition": text,
        "_eval_args": (definition, test_p, test_n), "_counts": (m.tp, m.fp, m.fn),
    }


def evaluate_again(inputs, result: dict, cfg: learner.LearnerConfig) -> None:
    """One more timed evaluation of a learned definition; it must score the
    same as the first."""
    db, mds, cfds, _, _ = inputs
    definition, test_p, test_n = result["_eval_args"]
    m, eval_s, eval_scaled, _ = timed(
        lambda: evalcli.evaluate(definition, test_p, test_n, db, mds, cfds, cfg))
    result["eval_s"].append(eval_s)
    result["eval_scaled"].append(eval_scaled)
    if (m.tp, m.fp, m.fn) != result["_counts"]:
        result["problems"].append("a repeated evaluation gave other counts")


def check(definition, cfg, m, n_test_pos: int, n_test_neg: int) -> list[str]:
    problems = []
    for lc in definition.clauses:
        printed = logic.print_clause(lc.clause)
        if logic.print_clause(logic.parse_clause(printed)) != printed:
            problems.append(f"clause does not print back identically: {printed}")
    if m.tp + m.fn != n_test_pos or m.fp > n_test_neg:
        problems.append(f"evaluation counts do not match the test split: {m}")
    return problems


def rescore(inputs, seed: int, cfg: learner.LearnerConfig, definition) -> list[str]:
    """Score every learned clause again on the training split through the
    coverage tests of `subsumption`, in the order the covering loop learned
    them: positives still uncovered before the clause, and every negative.
    The recomputed counts must equal the clause's stored ones and meet the
    minimum criterion."""
    db, mds, cfds, _, _ = inputs
    train_p, train_n, _, _ = split(inputs, seed)
    idx = textsim.build_similarity_index(db, train_p + train_n, mds, cfg.k_m, cfg.sim_threshold)
    sat_cfg = cfg.saturation_config()
    ground = {e.key(): saturation.ground_bottom_clause(e, db, mds, cfds, idx, sat_cfg)
              for e in train_p + train_n}
    budget = (cfg.subsumption_budget, cfg.repair_cap)
    problems, uncovered = [], list(train_p)
    for lc in definition.clauses:
        covered = tuple(e.key() for e in uncovered
                        if subsumption.covers_positive(lc.clause, ground[e.key()], *budget).covered)
        neg = sum(subsumption.covers_negative(lc.clause, ground[e.key()], *budget).covered
                  for e in train_n)
        stats = learner.ClauseStats(pos=len(covered), neg=neg, covered_pos=covered)
        printed = logic.print_clause(lc.clause)
        if not learner.minimum_criterion(stats, cfg):
            problems.append(f"clause below the minimum criterion: {printed}")
        if stats != lc.stats:
            problems.append(f"clause scores pos={stats.pos} neg={stats.neg} on the training split, "
                            f"not pos={lc.stats.pos} neg={lc.stats.neg}: {printed}")
        uncovered = [e for e in uncovered if e.key() not in set(covered)]
    return problems


def probed(work, tracer: Tracer | None = None):
    """work() under fresh probes, and under spans when a tracer is given."""
    probes = layers.Probes()
    with Patches() as patches:
        probes.install(patches)
        if tracer is not None:
            layers.install_spans(tracer, patches)
        return work(), probes


def learn_pass(instances, cfg, reload: bool = False) -> list[dict]:
    """Learn and evaluate every instance once. reload loads the inputs again
    inside the pass, so that the traced pass sees the store's loaders."""
    return [learn_and_eval(load(paths) if reload else inputs, seed, cfg)
            for seed, paths, inputs in instances]


def timed_run(instances, cfg, seconds: float):
    """Passes over the instances while the run's time allows another, at
    least one. A pass learns and evaluates every instance, evaluates it once
    more and loads its inputs again as a set-up sample. Returns (passes,
    scaled set-up samples).

    A learn or an evaluation of one small instance takes well under a second,
    so every instance is timed many times, spread over the run."""
    start = time.perf_counter()
    passes, setup_samples = [], []
    while True:
        t0 = time.perf_counter()
        results = []
        for seed, paths, inputs in instances:
            r = learn_and_eval(inputs, seed, cfg)
            evaluate_again(inputs, r, cfg)
            setup_samples.append(timed(lambda: load(paths))[2])
            results.append(r)
        passes.append(results)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes, setup_samples


def prepare(wl: Workload, seed: int):
    """Generate and load every instance of the run."""
    instances = []
    for inst_seed in instance_seeds(wl, seed):
        paths = write_inputs(wl, inst_seed, os.path.join(WORK, f"{wl.name}-{inst_seed}"))
        instances.append((inst_seed, paths, load(paths)))
    return instances


def check_passes(instances, passes) -> list[str]:
    problems = []
    for k, (seed, _, _) in enumerate(instances):
        runs = [results[k] for results in passes]
        problems += [f"instance {seed}: {p}" for r in runs for p in r["problems"]]
        if len({r["sha256"] for r in runs}) != 1:
            problems.append(f"instance {seed}: the learned definition differs between passes")
    return problems


def _mean(results, key: str) -> float:
    return statistics.fmean(r[key] for r in results)


def _learn_eval_s(results) -> float:
    return sum(r["learn_s"] + r["eval_s"][0] for r in results)


def end_to_end(instances, passes, setup_samples) -> dict[str, tuple[float, str]]:
    """learn_s and eval_s: the mean over instances of the median scaled
    timing of the instance; setup_s: the median scaled set-up sample; test_f1
    and clauses: the mean over instances, the same in every pass.

    Scaled timings (see timed) because the speed of the shared host moves
    by up to a factor of two, in spells from a second to minutes, and a spell
    can cover a whole run; the reference kernel timed next to each call
    tracks it (README.md, "Noise"). The wall times are in the report."""
    learns = [statistics.median(results[k]["learn_scaled"] for results in passes)
              for k in range(len(instances))]
    evals = [statistics.median(e for results in passes for e in results[k]["eval_scaled"])
             for k in range(len(instances))]
    first = passes[0]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "learn_s": (statistics.fmean(learns), "s"),
        "eval_s": (statistics.fmean(evals), "s"),
        "test_f1": (_mean(first, "test_f1"), "ratio"),
        "clauses": (_mean(first, "clauses"), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(plain, traced, tracer: Tracer, probes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass. The overhead is its learn+eval
    time minus the mean of the plain passes run before and after it."""
    plain_s = statistics.fmean(_learn_eval_s(results) for results in plain)
    traced_s = _learn_eval_s(traced)
    cpu_util = (sum(r["learn_cpu_s"] for results in plain for r in results)
                / sum(r["learn_s"] for results in plain for r in results))
    metrics = layers.per_layer(tracer, probes, cpu_util)
    metrics["evalcli.test_f1"] = (_mean(traced, "test_f1"), "ratio")
    metrics["trace.learn_eval_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def write_spans(spans, path: str) -> None:
    own = self_times(spans)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "name", "thread", "start", "end", "self_s"])
        for s in spans:
            out.writerow([s.id, s.parent, s.name, s.thread, s.start, s.end, own[s.id]])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    cfg = config(wl)
    instances = prepare(wl, args.seed)
    os.makedirs(WORK, exist_ok=True)
    name = f"{wl.name}_{args.seed}" + ("_trace" if args.trace else "")

    if args.trace:
        # plain, traced, plain: the overhead is taken against both sides
        tracer = Tracer()
        runs = [probed(lambda: learn_pass(instances, cfg)),
                probed(lambda: learn_pass(instances, cfg, reload=True), tracer),
                probed(lambda: learn_pass(instances, cfg))]
        adopt_pool_spans(tracer.spans, tracer.main_thread)
        passes = [results for results, _ in runs]
        all_probes = [probes for _, probes in runs]
    else:
        (passes, setup_samples), probes = probed(
            lambda: timed_run(instances, cfg, args.seconds))
        all_probes = [probes]
    problems = check_passes(instances, passes)
    for (seed, _, inputs), r in zip(instances, passes[0]):
        problems += [f"instance {seed}: {p}"
                     for p in rescore(inputs, seed, cfg, r["_eval_args"][0])]
    correct = not problems

    first = passes[0]
    for r in first:
        print(f"instance seed={r['seed']} clauses={r['clauses']} test_f1={r['test_f1']:.4f} "
              f"learn_s={r['learn_s']:.3f} eval_s={r['eval_s'][0]:.3f} sha256={r['sha256']}")
    attempted = sum(p.coverage.attempted for p in all_probes)
    failed = sum(p.coverage.exhausted for p in all_probes)
    # 0 at the seed, so carried by failed/attempted rather than as a metric
    print(f"exhausted_frac={failed / attempted:.6g} ratio")
    properties = all_probes[-1].properties()
    print("properties " + " ".join(f"{k}={v:.6g}" for k, (v, _) in properties.items()))
    for p in problems:
        print(f"CHECK FAILED {p}")

    if args.trace:
        metrics = traced_metrics([passes[0], passes[2]], passes[1], tracer, all_probes[1])
        metrics.update(properties)
        write_spans(tracer.spans, os.path.join(WORK, f"spans_{name}.csv"))
    else:
        metrics = end_to_end(instances, passes, setup_samples)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<40} {value:>14.6g} {unit}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "passes": len(passes),
        "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
        "instances": [{k: v for k, v in r.items() if not k.startswith("_")} for r in first],
        "learn_s_samples": [[results[k]["learn_s"] for results in passes]
                            for k in range(len(instances))],
        "eval_s_samples": [[e for results in passes for e in results[k]["eval_s"]]
                           for k in range(len(instances))],
        "learn_scaled_samples": [[results[k]["learn_scaled"] for results in passes]
                                 for k in range(len(instances))],
        "eval_scaled_samples": [[e for results in passes for e in results[k]["eval_scaled"]]
                                for k in range(len(instances))],
        "metrics": as_json,
    }
    with open(os.path.join(WORK, f"BENCH_{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": as_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
