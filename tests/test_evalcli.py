import csv
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlearn import evalcli, learner, logic, store
from dlearn.constraints import parse_constraints
from dlearn.evalcli import (Metrics, apply_mode, cross_validate, evaluate,
                            main, parse_examples, stratified_folds)
from dlearn.store import Example
from dlearn.util import derive_rng
from helpers import AKA_MD, TITLE_MD, TITLE_SCHEMA_TEXT, brute_force_index, seeded_titles, title_rows
from test_learner import build_mini_dataset

DATA_DIR = os.path.join(os.path.dirname(__file__), "data", "movieexample")


def movie_args(extra):
    return [
        "--schema", os.path.join(DATA_DIR, "schema.txt"),
        "--data", os.path.join(DATA_DIR, "data"),
        "--target", "highGrossing",
        "--constraints", os.path.join(DATA_DIR, "constraints.txt"),
        "--examples", os.path.join(DATA_DIR, "examples.txt"),
        "--d", "3",
    ] + extra


def test_metrics_identities():
    m = Metrics(tp=3, fp=1, fn=2)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.6)
    assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert Metrics().precision == 0.0 and Metrics().f1 == 0.0


def test_parse_examples():
    pos, neg = parse_examples('+,Superbad\n-,"与, comma"\n', "highGrossing")
    assert pos == [Example("highGrossing", ("Superbad",))]
    assert neg == [Example("highGrossing", ("与, comma",))]
    with pytest.raises(ValueError):
        parse_examples("?,x\n", "highGrossing")


def test_apply_mode():
    mds, cfds = ["m"], ["c"]
    assert apply_mode(mds, cfds, "full") == (["m"], ["c"])
    assert apply_mode(mds, cfds, "no-md") == ([], ["c"])
    assert apply_mode(mds, cfds, "no-cfd") == (["m"], [])


def test_evaluate_mini_dataset():
    db, mds, cfds, pos, neg = build_mini_dataset()
    cfg = learner.LearnerConfig(d=3, rng_seed=7)
    definition = learner.learn(db, mds, cfds, pos, neg, cfg)
    m = evaluate(definition, pos, neg, db, mds, cfds, cfg)
    assert (m.tp, m.fp, m.fn) == (10, 0, 0)
    assert m.f1 == 1.0
    empty = learner.LearnedDefinition(target="highGrossing")
    m0 = evaluate(empty, pos, neg, db, mds, cfds, cfg)
    assert (m0.precision, m0.recall, m0.f1) == (0.0, 0.0, 0.0)


def test_no_md_mode_equals_full_with_empty_mds():
    db, _, cfds, pos, neg = build_mini_dataset()
    cfg = learner.LearnerConfig(d=3, rng_seed=7)
    h1 = learner.learn(db, *apply_mode([], cfds, "full"), pos, neg, cfg)
    h2 = learner.learn(db, *apply_mode([], cfds, "no-md"), pos, neg, cfg)
    assert h1.pretty() == h2.pretty()


def test_stratified_folds():
    pos = [Example("t", (f"p{i}",)) for i in range(10)]
    neg = [Example("t", (f"n{i}",)) for i in range(20)]
    folds = stratified_folds(pos, neg, 5, derive_rng(0, "folds"))
    assert len(folds) == 5
    for train_p, train_n, test_p, test_n in folds:
        assert len(test_p) == 2 and len(test_n) == 4
        assert len(train_p) == 8 and len(train_n) == 16
        assert not set(e.key() for e in test_p) & set(e.key() for e in train_p)


def test_stratified_folds_minimum():
    pos = [Example("t", ("a",)), Example("t", ("b",))]
    folds = stratified_folds(pos, [], 2, derive_rng(1, "folds"))
    assert all(len(f[2]) == 1 for f in folds)
    with pytest.raises(ValueError):
        stratified_folds(pos, [], 3, derive_rng(1, "folds"))
    with pytest.raises(ValueError):
        stratified_folds(pos, [], 1, derive_rng(1, "folds"))


def test_stratified_folds_deterministic():
    pos = [Example("t", (f"p{i}",)) for i in range(7)]
    neg = [Example("t", (f"n{i}",)) for i in range(5)]
    a = stratified_folds(pos, neg, 3, derive_rng(5, "folds"))
    b = stratified_folds(pos, neg, 3, derive_rng(5, "folds"))
    assert a == b


def test_cross_validate_mini():
    db, mds, cfds, pos, neg = build_mini_dataset()
    cfg = learner.LearnerConfig(d=3, rng_seed=3, min_pos=1)
    results, mean = cross_validate(db, mds, cfds, pos, neg, 2, cfg)
    assert len(results) == 2
    assert mean.tp == sum(m.tp for m in results)
    assert mean.tp + mean.fn == len(pos)


def test_cli_learn_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "definition.txt"
    rc = main(["learn"] + movie_args(["--min-pos", "1", "--seed", "3", "--out", str(out)]))
    assert rc == 0
    text = out.read_text()
    assert "highGrossing(" in text and "# pos=" in text
    shown = capsys.readouterr().out
    assert "tp" in shown and "f1" in shown

    rc = main(["eval"] + movie_args(["--min-pos", "1", "--seed", "3",
                                     "--definition", str(out),
                                     "--metrics-csv", str(tmp_path / "m.csv")]))
    assert rc == 0
    rows = list(csv.reader(open(tmp_path / "m.csv")))
    assert rows[0][:4] == ["run", "tp", "fp", "fn"]
    assert rows[1][1] == "2" and rows[1][2] == "0"


def test_cli_determinism_and_threads(tmp_path):
    outs = []
    for name, threads in [("a", "1"), ("b", "1"), ("c", "8")]:
        out = tmp_path / f"def_{name}.txt"
        main(["learn"] + movie_args(["--min-pos", "1", "--seed", "9",
                                     "--threads", threads, "--out", str(out)]))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cli_saturate_prints_ground_clause(capsys):
    rc = main(["saturate"] + movie_args(["--example", "Superbad"]))
    assert rc == 0
    shown = capsys.readouterr().out.strip()
    clause = logic.parse_clause(shown)
    assert clause.head == logic.Rel("highGrossing", (logic.Constant("Superbad"),))
    assert "movies('m1'" in shown


def test_cli_subsume(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("t(V0) :- r(V0,V1).\n")
    b.write_text("t('x') :- r('x','y'), s('y').\n")
    assert main(["subsume", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("COVERED")
    assert main(["subsume", str(b), str(a)]) == 1
    assert capsys.readouterr().out.strip() == "NOT_COVERED"


def test_cli_sim_index(capsys):
    rc = main(["sim-index"] + movie_args([]))
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert ["highGrossing.title", "movies.title", "Superbad", "Superbad (2007)",
            f"{(1.0 + 8 / 15) / 2:.6f}"] in rows


def test_cli_oracle_lists_repairs(capsys):
    rc = main(["oracle"] + movie_args([]))
    assert rc == 0
    shown = capsys.readouterr().out
    assert "# repair 0" in shown
    assert "_v(" in shown


def test_cli_cv(capsys, tmp_path):
    rc = main(["cv"] + movie_args(["--folds", "2", "--min-pos", "1", "--seed", "1",
                                   "--metrics-csv", str(tmp_path / "cv.csv")]))
    assert rc == 0
    rows = list(csv.reader(open(tmp_path / "cv.csv")))
    assert rows[-1][0] == "mean"


def test_cli_sim_index_matches_brute_force_on_fan_out(tmp_path, capsys):
    titles = seeded_titles(40, seed=3, family=3)
    (tmp_path / "schema.txt").write_text(TITLE_SCHEMA_TEXT)
    (tmp_path / "data").mkdir()
    for relation, rows in title_rows(titles).items():
        with open(tmp_path / "data" / f"{relation}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    (tmp_path / "constraints.txt").write_text(TITLE_MD + "\n" + AKA_MD + "\n")
    (tmp_path / "examples.txt").write_text(
        "".join(f"{'+' if i < 20 else '-'},{t}\n" for i, t in enumerate(titles)))
    assert main(["sim-index", "--schema", str(tmp_path / "schema.txt"),
                 "--data", str(tmp_path / "data"), "--target", "highGrossing",
                 "--constraints", str(tmp_path / "constraints.txt"),
                 "--examples", str(tmp_path / "examples.txt"), "--km", "5"]) == 0
    shown = capsys.readouterr().out

    schema = store.parse_schema(TITLE_SCHEMA_TEXT, target="highGrossing")
    db = store.load_csv(schema, str(tmp_path / "data"))
    mds, _ = parse_constraints(TITLE_MD + "\n" + AKA_MD, schema)
    examples = [Example("highGrossing", (t,)) for t in titles]
    expect = brute_force_index(db, examples, mds, 5, 0.65)
    assert any(len(m) >= 2 for m in expect[(("highGrossing", "title"), ("movies", "title"))].values())
    want = io.StringIO()
    writer = csv.writer(want)
    for pair in sorted(expect):
        (r1, a1), (r2, a2) = pair
        for left in sorted(expect[pair]):
            for right, score in expect[pair][left]:
                writer.writerow([f"{r1}.{a1}", f"{r2}.{a2}", left, right, f"{score:.6f}"])
    assert shown == want.getvalue()


def _replaced(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


def _one_line_error(argv, capsys) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("dlearn: error: ")
    return err


def test_cli_malformed_schema_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "schema.txt"
    bad.write_text("movies(id:text, title:blob)\n")
    argv = _replaced(movie_args(["--out", str(tmp_path / "d.txt")]), "--schema", str(bad))
    assert "bad attribute" in _one_line_error(["learn"] + argv, capsys)


def test_cli_malformed_constraints_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "constraints.txt"
    bad.write_text("md: highGrossing[title] ~ nowhere[title]\n")
    argv = _replaced(movie_args(["--out", str(tmp_path / "d.txt")]), "--constraints", str(bad))
    assert "line 1" in _one_line_error(["learn"] + argv, capsys)


def test_cli_malformed_definition_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "definition.txt"
    bad.write_text("# pos=1 neg=0\nhighGrossing(V0 :- movies(V1,V0,V2).\n")
    err = _one_line_error(["eval"] + movie_args(["--definition", str(bad)]), capsys)
    assert "parse error" in err


def test_cli_bad_example_label_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "examples.txt"
    bad.write_text('+,"Super\nbad"\n?,Zoolander\n')
    argv = _replaced(movie_args([]), "--examples", str(bad))
    err = _one_line_error(["sim-index"] + argv, capsys)
    assert err == "dlearn: error: examples line 3: label must be '+' or '-', got '?'\n"


def test_cli_example_with_wrong_value_count_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "examples.txt"
    bad.write_text("+,Superbad,extra\n+,Zoolander\n-,Orphanage\n")
    argv = _replaced(movie_args(["--out", str(tmp_path / "d.txt")]), "--examples", str(bad))
    err = _one_line_error(["learn"] + argv, capsys)
    assert err == "dlearn: error: examples line 1: 2 values for a target of arity 1\n"
    assert not (tmp_path / "d.txt").exists()


_EXAMPLE_VALUE = st.text(
    alphabet=st.one_of(st.sampled_from(",\"'\\ \n"),
                       st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda arity: st.tuples(st.just(arity), st.lists(
    st.tuples(st.sampled_from("+-"), st.lists(_EXAMPLE_VALUE, min_size=arity, max_size=arity)),
    max_size=6))))
def test_parse_examples_reads_back_csv_writer_rows(case):
    arity, rows = case
    buf = io.StringIO()
    writer = csv.writer(buf)
    for label, values in rows:
        writer.writerow([label, *values])
    pos, neg = parse_examples(buf.getvalue(), "t", arity)
    assert pos == [Example("t", tuple(v)) for label, v in rows if label == "+"]
    assert neg == [Example("t", tuple(v)) for label, v in rows if label == "-"]
