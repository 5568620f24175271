import csv
import random

import pytest

from dlearn import store
from dlearn.store import StoreError


def write_csvs(tmp_path, rows):
    for rel, lines in rows.items():
        (tmp_path / f"{rel}.csv").write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


SCHEMA_TEXT = """\
# comment line
movies(id:text, title:text, year:integer)
mov2genres(id:text, name:text)
highGrossing(title:text)
"""


@pytest.fixture
def schema():
    return store.parse_schema(SCHEMA_TEXT, target="highGrossing")


def test_parse_schema(schema):
    assert [r.name for r in schema.relations] == ["movies", "mov2genres", "highGrossing"]
    assert schema.relation("movies").attributes[2].domain == "integer"
    assert [r.name for r in schema.stored_relations] == ["movies", "mov2genres"]


def test_parse_schema_rejects_unknown_target():
    with pytest.raises(StoreError):
        store.parse_schema("r(a:text)", target="nope")


def test_parse_schema_rejects_duplicates():
    with pytest.raises(StoreError):
        store.parse_schema("r(a:text)\nr(b:text)", target="r")
    with pytest.raises(StoreError):
        store.parse_schema("r(a:text, a:text)", target="r")


@pytest.mark.parametrize("name", ["eq", "sim", "rep"])
def test_parse_schema_rejects_a_reserved_literal_name(name):
    # a clause over such a relation would print `eq('x','y')`, which
    # parse_clause reads back as an equality literal
    with pytest.raises(StoreError, match=rf"schema line 2: '{name}' is a reserved literal name"):
        store.parse_schema(f"t(v:text)\n{name}(a:text, b:text)", target="t")
    store.parse_schema(f"t(v:text)\n{name}x(a:text, b:text)", target="t")


def test_load_csv_quoted_row(tmp_path, schema):
    write_csvs(tmp_path, {
        "movies": ['m1,"Superbad (2007)",2007'],
        "mov2genres": ["m1,comedy"],
    })
    db = store.load_csv(schema, str(tmp_path))
    assert db.tuples("movies")[0].values == ("m1", "Superbad (2007)", "2007")


def test_load_csv_empty_relation(tmp_path, schema):
    write_csvs(tmp_path, {"movies": [], "mov2genres": []})
    db = store.load_csv(schema, str(tmp_path))
    assert db.tuples("movies") == []


def test_load_csv_arity_error_reports_line(tmp_path, schema):
    write_csvs(tmp_path, {"movies": ["m1,only-two"], "mov2genres": []})
    with pytest.raises(StoreError, match=r"movies\.csv:1"):
        store.load_csv(schema, str(tmp_path))


def test_load_csv_errors_name_the_line_a_record_starts_on(tmp_path, schema):
    # a quoted line break in the first record puts the second on line 3
    write_csvs(tmp_path, {"movies": [], "mov2genres": ['m1,"com\nedy"', "m2", "m3,drama"]})
    with pytest.raises(StoreError, match=r"mov2genres\.csv:3: expected 2 fields, got 1"):
        store.load_csv(schema, str(tmp_path))
    write_csvs(tmp_path, {"movies": ['m1,"Super\nbad",2007', "m2,T,notayear"], "mov2genres": []})
    with pytest.raises(StoreError, match=r"movies\.csv:3: attribute 'year' expects an integer"):
        store.load_csv(schema, str(tmp_path))
    write_csvs(tmp_path, {"movies": ['m1,"Super\nbad",2007', 'm2,"Zoo', "lander,2001"],
                          "mov2genres": []})
    with pytest.raises(StoreError, match=r"movies\.csv:3: malformed CSV: unexpected end of data"):
        store.load_csv(schema, str(tmp_path))


def test_load_csv_missing_file(tmp_path, schema):
    write_csvs(tmp_path, {"movies": []})
    with pytest.raises(StoreError, match="mov2genres"):
        store.load_csv(schema, str(tmp_path))


def test_load_csv_integer_validation(tmp_path, schema):
    write_csvs(tmp_path, {"movies": ["m1,T,notayear"], "mov2genres": []})
    with pytest.raises(StoreError, match="integer"):
        store.load_csv(schema, str(tmp_path))


def test_load_dump_load_round_trip(tmp_path, schema):
    write_csvs(tmp_path, {
        "movies": ['m1,"title, with comma",2007', 'm2,"with ""quotes""",2001'],
        "mov2genres": ["m1,comedy", "m2,drama"],
    })
    db = store.load_csv(schema, str(tmp_path))
    out = tmp_path / "dump"
    out.mkdir()
    for rel in schema.stored_relations:
        with open(out / f"{rel.name}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(t.values for t in db.tables[rel.name])
    db2 = store.load_csv(schema, str(out))
    assert db.tables == db2.tables
    assert db.indexes == db2.indexes


def test_select_eq_movie_example(movie_db):
    got = store.select_eq(movie_db, "mov2genres", "name", {"comedy"})
    assert [t.values for t in got] == [("m1", "comedy"), ("m2", "comedy")]


def test_select_eq_empty_set(movie_db):
    assert store.select_eq(movie_db, "mov2genres", "name", set()) == []


def test_select_eq_countries_by_name(movie_db):
    got = store.select_eq(movie_db, "countries", "name", {"USA", "Spain"})
    assert [t.values for t in got] == [("c1", "USA"), ("c2", "Spain")]


def test_select_eq_unknown_attribute(movie_db):
    with pytest.raises(StoreError):
        store.select_eq(movie_db, "movies", "nope", {"x"})
    with pytest.raises(StoreError):
        store.select_eq(movie_db, "nope", "name", {"x"})


def test_select_eq_matches_linear_scan(schema):
    rng = random.Random(5)
    for _ in range(25):
        rows = {
            "movies": [(f"m{i}", rng.choice("abc"), str(rng.randint(1, 3)))
                       for i in range(rng.randint(0, 8))],
            "mov2genres": [(f"m{rng.randint(0, 5)}", rng.choice("pq"))
                           for _ in range(rng.randint(0, 6))],
        }
        db = store.from_tuples(schema, rows)
        rel = rng.choice(["movies", "mov2genres"])
        attr = rng.choice([a.name for a in schema.relation(rel).attributes])
        values = {rng.choice("abcpq"), rng.choice("abcpq")}
        pos = schema.relation(rel).attr_index(attr)
        expect = [t for t in db.tuples(rel) if t.values[pos] in values]
        assert store.select_eq(db, rel, attr, values) == expect


def test_select_sim_annotates_match(movie_db, movie_idx):
    got = store.select_sim(movie_db, "movies", "title", {"Superbad"}, movie_idx)
    assert len(got) == 1
    sel = got[0]
    assert sel.tuple.values == ("m1", "Superbad (2007)", "2007")
    assert (sel.probe_value, sel.matched_value) == ("Superbad", "Superbad (2007)")


def test_select_sim_empty_values(movie_db, movie_idx):
    assert store.select_sim(movie_db, "movies", "title", set(), movie_idx) == []


def test_select_sim_zoolander(movie_db, movie_idx):
    got = store.select_sim(movie_db, "movies", "title", {"Zoolander"}, movie_idx)
    assert [s.tuple.values for s in got] == [("m2", "Zoolander (2001)", "2001")]


def test_select_sim_subset_of_index(movie_db, movie_idx):
    got = store.select_sim(movie_db, "movies", "title", {"Superbad", "Zoolander"}, movie_idx)
    for sel in got:
        matches = dict((v, s) for v, s, _ in movie_idx.matches("movies", "title", sel.probe_value))
        assert sel.matched_value in matches


def test_load_csv_malformed_quoting(tmp_path, schema):
    (tmp_path / "movies.csv").write_text('m1,"bad"quote,2007\n', encoding="utf-8")
    (tmp_path / "mov2genres.csv").write_text("", encoding="utf-8")
    with pytest.raises(StoreError, match="malformed CSV"):
        store.load_csv(schema, str(tmp_path))


@pytest.mark.parametrize("text, records", [
    ('+,The "Best" Movie\n', [(1, ["+", 'The "Best" Movie'])]),
    ('+,"say ""hi"""\n', [(1, ["+", 'say "hi"'])]),
    ('+,"Super\r\nbad"\r\n\r\n-,x', [(1, ["+", "Super\r\nbad"]), (3, []), (4, ["-", "x"])]),
])
def test_csv_records_accepts_rfc_4180_and_bare_quotes_inside_a_value(text, records):
    assert list(store.csv_records(text, "f:")) == records
