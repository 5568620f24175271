import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlearn import constraints, logic, store
from dlearn.constraints import (MD, ConstraintError, find_cfd_violations,
                                make_cfd, parse_constraints, print_constraints)
from dlearn.logic import Constant as C
from dlearn.logic import Eq, EqClosure, Rel
from dlearn.logic import Variable as V
from dlearn.util import DisjointSet
from helpers import reference_find_cfd_violations

SCHEMA_TEXT = """\
movies(id:text, title:text, year:integer)
highGrossing(title:text)
mov2locale(title:text, language:text, country:text)
"""


@pytest.fixture
def schema():
    return store.parse_schema(SCHEMA_TEXT, target="highGrossing")


def test_parse_md(schema):
    mds, cfds = parse_constraints(
        "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]", schema)
    assert cfds == []
    assert mds == [MD((("highGrossing", "title"), ("movies", "title")))]


def test_parse_md_rejects_other_forms(schema):
    # the engine unifies the one matched pair's own values
    for text in ("md: movies[title] ~ mov2locale[title] -> movies[title,id] <-> mov2locale[title,language]",
                 "md: movies[title,id] ~ mov2locale[title,language] -> movies[title] <-> mov2locale[title]",
                 "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[id]"):
        with pytest.raises(ConstraintError, match=re.escape(
                "line 2: expected 'md: R1[A] ~ R2[B] -> R1[A] <-> R2[B]', got")):
            parse_constraints("# comment\n" + text, schema)


def test_parse_cfd(schema):
    _, cfds = parse_constraints(
        "cfd: mov2locale : title, language -> country : (_, 'English' || _)", schema)
    cfd = cfds[0]
    assert cfd.lhs == ("title", "language")
    assert cfd.rhs == "country"
    assert cfd.cells == (None, "English")
    assert cfd.x_positions == (0, 1) and cfd.rhs_position == 2


def test_parse_errors(schema):
    with pytest.raises(ConstraintError, match="line 1"):
        parse_constraints("md: A[x] ~", schema)
    with pytest.raises(ConstraintError, match="unknown relation"):
        parse_constraints("md: nope[x] ~ movies[title] -> nope[x] <-> movies[title]", schema)
    with pytest.raises(ConstraintError):
        parse_constraints("md: movies[] ~ mov2locale[] -> movies[id] <-> mov2locale[title]", schema)
    with pytest.raises(ConstraintError, match="no attribute"):
        parse_constraints("cfd: movies : nope -> title : (_ || _)", schema)
    with pytest.raises(ConstraintError,
                       match=re.escape("line 2: pattern has 4 cells for 2 + 1 attributes")):
        parse_constraints("\ncfd: mov2locale : title, language -> country : (_, _, _ || _)", schema)


_MD_FORM = "md: R1[A] ~ R2[B] -> R1[A] <-> R2[B]"
_CFD_FORM = "cfd: R : X1,...,Xk -> A : (p1,...,pk || _)"
_RHS_CELL = f"the right-hand cell must be '_', as in '{_CFD_FORM}'"


@pytest.mark.parametrize("text, message", [
    ("md: A[x] ~", f"line 1: expected '{_MD_FORM}', got 'md: A[x] ~'"),
    ("# comment\n\nmd: nope[x] ~ movies[title] -> nope[x] <-> movies[title]",
     "line 3: unknown relation 'nope'"),
    ("md: movies[nope] ~ mov2locale[title] -> movies[nope] <-> mov2locale[title]",
     "line 1: relation 'movies' has no attribute 'nope'"),
    ("md: movies[title] ~ mov2locale[nope] -> movies[title] <-> mov2locale[nope]",
     "line 1: relation 'mov2locale' has no attribute 'nope'"),
    ("cfd: mov2locale : title -> country", f"line 1: expected '{_CFD_FORM}', got "
                                            "'cfd: mov2locale : title -> country'"),
    ("cfd: mov2locale : , -> country : (_ || _)", "line 1: CFD left-hand side is empty"),
    ("cfd: mov2locale : title -> country : ('a' || 'b' || 'c')",
     "line 1: CFD pattern needs one '||' before the right-hand cell"),
    ("cfd: mov2locale : title -> country : (_, _)",
     "line 1: CFD pattern needs one '||' before the right-hand cell"),
    ("cfd: mov2locale : title -> country : (x || _)", "line 1: bad pattern cell 'x'"),
    ("cfd: mov2locale : title -> country : (_ || x)", "line 1: bad pattern cell 'x'"),
    ("cfd: mov2locale : title -> country : (_ || )", "line 1: bad pattern cell ''"),
    ("cfd: nope : title -> country : (_ || _)", "line 1: unknown relation 'nope'"),
    ("cfd: movies : nope -> title : (_ || _)", "line 1: relation 'movies' has no attribute 'nope'"),
    ("cfd: movies : id -> nope : (_ || _)", "line 1: relation 'movies' has no attribute 'nope'"),
    ("\ncfd: mov2locale : title, language -> country : (_, _, _ || _)",
     "line 2: pattern has 4 cells for 2 + 1 attributes"),
    ("cfd: mov2locale : title -> country : (_ || 'USA')", f"line 1: {_RHS_CELL}"),
    ("cfd: mov2locale : title, title -> country : (_, _ || _)",
     "line 1: CFD attributes must be distinct"),
    ("cfd: mov2locale : title -> title : (_ || _)", "line 1: CFD attributes must be distinct"),
    ("fd: a -> b  # comment", "line 1: expected 'md:' or 'cfd:', got 'fd: a -> b  # comment'"),
    # a line with two faults reports the one checked first
    ("md: nope[x] ~ movies[nope] -> nope[x] <-> movies[nope]", "line 1: unknown relation 'nope'"),
    ("cfd: nope : title -> country : (x || _)", "line 1: bad pattern cell 'x'"),
    ("cfd: movies : nope -> other : (_ || _)", "line 1: relation 'movies' has no attribute 'other'"),
    ("cfd: mov2locale : nope -> country : (_, _ || 'USA')",
     "line 1: relation 'mov2locale' has no attribute 'nope'"),
    ("cfd: mov2locale : title -> country : (_, _ || 'USA')",
     "line 1: pattern has 3 cells for 1 + 1 attributes"),
    ("cfd: mov2locale : title, title -> country : (_ || _)",
     "line 1: pattern has 2 cells for 2 + 1 attributes"),
    # the right half is the one right-hand cell: a '||' before an X cell
    ("cfd: mov2locale : title, language -> country : (_ || _, _)",
     "line 1: CFD pattern needs one '||' before the right-hand cell"),
    ("cfd: mov2locale : title, language -> country : ('a' || 'b', _)",
     "line 1: CFD pattern needs one '||' before the right-hand cell"),
])
def test_every_parse_error_message_is_exact(schema, text, message):
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        parse_constraints(text, schema)


@pytest.mark.parametrize("text", ["cfd: countries : id, id -> name : (_,_ || _)",
                                  "cfd: countries : id -> id : (_ || _)"])
def test_cfd_attributes_must_be_distinct(movie_schema, text):
    with pytest.raises(ConstraintError, match=re.escape("line 1: CFD attributes must be distinct")):
        parse_constraints(text, movie_schema)


def test_pattern_cells_quote_separators_and_comment_marks(schema):
    text = ("cfd: mov2locale : title, language -> country : "
            "('Korea, Republic of', 'a#b||y''s' || _)  # 'quoted' comment, too")
    _, cfds = parse_constraints(text, schema)
    assert cfds[0].cells == ("Korea, Republic of", "a#b||y's")
    with pytest.raises(ConstraintError, match=re.escape(
            "line 1: CFD pattern needs one '||' before the right-hand cell")):
        parse_constraints("cfd: mov2locale : title -> country : ('a' || 'b' || 'c')", schema)
    with pytest.raises(ConstraintError):
        parse_constraints("cfd: mov2locale : title -> country : ('a'b' || _)", schema)


# `str.splitlines` breaks at these, so the line-based format cannot hold them
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CELL_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from("',#|_() :->~[]"),
    st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS)), max_size=8)
_LOCALE = ("title", "language", "country")


@st.composite
def _cfd(draw):
    order = draw(st.permutations(_LOCALE))
    k = draw(st.integers(1, 2))
    cells = draw(st.lists(st.none() | _CELL_TEXT, min_size=k, max_size=k))
    return tuple(order[:k]), order[k], cells


@settings(max_examples=300, deadline=None)
@given(st.lists(_cfd(), max_size=3), st.booleans())
def test_print_parse_round_trip_of_arbitrary_pattern_cells(specs, with_md):
    schema = store.parse_schema(SCHEMA_TEXT, target="highGrossing")
    cfds = [make_cfd(schema, "mov2locale", lhs, rhs, cells) for lhs, rhs, cells in specs]
    mds = [MD((("highGrossing", "title"), ("movies", "title")))] if with_md else []
    assert parse_constraints(print_constraints(mds, cfds), schema) == (mds, cfds)


_VALID_LINES = (
    "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]",
    "cfd: mov2locale : title, language -> country : (_, 'English' || _)",
    "cfd: mov2locale : title, language -> country : ('Korea, Republic of', 'K''R#1' || _)  # comment",
)
_TOKEN_RE = re.compile(r"'(?:[^']|'')*'|\w+|\s+|<->|->|\|\||.")
_FUZZ_TOKENS = ("'", "''", ",", "#", "||", "|", "_", "(", ")", "[", "]", ":", "~", "->", "<->",
                ";", " ", "\n", "'a,b'", "md:", "cfd:", "title", "movies", "mov2locale", "nope")
_MUTATION = st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 60),
                      st.sampled_from(_FUZZ_TOKENS) | st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_VALID_LINES), st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_constraint_lines_raise_only_constraint_errors(line, mutations):
    schema = store.parse_schema(SCHEMA_TEXT, target="highGrossing")
    tokens = _TOKEN_RE.findall(line)
    for op, at, token in mutations:
        at %= len(tokens) + 1
        if op == "insert":
            tokens.insert(at, token)
        elif at < len(tokens):
            tokens[at:at + 1] = [] if op == "delete" else [token]
    try:
        parse_constraints("".join(tokens), schema)
    except ConstraintError:
        pass


def test_conflicting_cfds_rejected(schema):
    text = "\n".join([
        "cfd: mov2locale : title -> country : ('Bait' || 'USA')",
        "cfd: mov2locale : title -> country : ('Bait' || 'Ireland')",
    ])
    # a constant right-hand cell is rejected on its own line, before any
    # second CFD could conflict with it
    with pytest.raises(ConstraintError, match=re.escape(
            "line 1: the right-hand cell must be '_', as in "
            "'cfd: R : X1,...,Xk -> A : (p1,...,pk || _)'")):
        parse_constraints(text, schema)


def test_round_trip_pretty(schema):
    text = "\n".join([
        "md: highGrossing[title] ~ movies[title] -> highGrossing[title] <-> movies[title]",
        "cfd: mov2locale : title, language -> country : (_, 'English' || _)",
    ])
    mds, cfds = parse_constraints(text, schema)
    printed = print_constraints(mds, cfds)
    mds2, cfds2 = parse_constraints(printed, schema)
    assert mds2 == mds and cfds2 == cfds


@pytest.fixture
def locale_cfd(schema):
    return make_cfd(schema, "mov2locale", ["title", "language"], "country", [None, "English"])


def test_violation_found_with_equated_titles(locale_cfd):
    body = (
        Rel("mov2locale", (V(1), C("English"), V(3))),
        Rel("mov2locale", (V(2), C("English"), V(4))),
        Eq(V(1), V(2)),
    )
    out = find_cfd_violations(body, locale_cfd, EqClosure(body))
    assert len(out) == 1
    v = out[0]
    assert (v.first, v.second) == (0, 1)
    assert v.rhs_terms == (V(3), V(4))


def test_no_violation_single_literal(locale_cfd):
    body = (Rel("mov2locale", (V(1), C("English"), V(3))),)
    assert find_cfd_violations(body, locale_cfd, EqClosure(body)) == []


def test_no_violation_distinct_unequated_x(locale_cfd):
    body = (
        Rel("mov2locale", (V(1), C("English"), V(3))),
        Rel("mov2locale", (V(2), C("English"), V(4))),
    )
    assert find_cfd_violations(body, locale_cfd, EqClosure(body)) == []


def test_no_violation_when_pattern_fails(locale_cfd):
    body = (
        Rel("mov2locale", (V(1), C("French"), V(3))),
        Rel("mov2locale", (V(2), C("French"), V(4))),
        Eq(V(1), V(2)),
    )
    assert find_cfd_violations(body, locale_cfd, EqClosure(body)) == []


def test_no_violation_equal_rhs(locale_cfd):
    body = (
        Rel("mov2locale", (V(1), C("English"), V(3))),
        Rel("mov2locale", (V(2), C("English"), V(3))),
        Eq(V(1), V(2)),
    )
    assert find_cfd_violations(body, locale_cfd, EqClosure(body)) == []


def test_violation_matches_tuple_semantics(schema, locale_cfd):
    """Clause-level detection on an all-constant body agrees with checking
    the corresponding tuples directly."""
    import itertools
    import random

    rng = random.Random(3)
    titles, langs, countries = ["Bait", "Net"], ["English", "French"], ["USA", "Ireland"]
    for _ in range(60):
        rows = [
            (rng.choice(titles), rng.choice(langs), rng.choice(countries))
            for _ in range(rng.randint(0, 4))
        ]
        body = tuple(Rel("mov2locale", tuple(C(v) for v in row)) for row in rows)
        got = {(v.first, v.second) for v in find_cfd_violations(body, locale_cfd, EqClosure(body))}
        expect = set()
        for i, j in itertools.combinations(range(len(rows)), 2):
            t1, t2 = rows[i], rows[j]
            if (t1[0] == t2[0] and t1[1] == t2[1] == "English" and t1[2] != t2[2]):
                expect.add((i, j))
        assert got == expect


def test_violation_takes_the_first_agreeing_x_pair_in_option_order(locale_cfd):
    # both titles can become V7 or V8, so (V8, V8) and (V7, V7) both agree at
    # the title position; V1's options come first, and they list V8 first
    body = (
        Rel("mov2locale", (V(1), C("English"), V(3))),
        Rel("mov2locale", (V(2), C("English"), V(4))),
    )
    alts = {V(1): [V(8), V(7)], V(2): [V(7), V(8)]}
    out = find_cfd_violations(body, locale_cfd, EqClosure(body), alternatives=alts)
    assert [(v.first, v.second, v.x_terms, v.rhs_terms) for v in out] == [
        (0, 1, ((V(8), V(8)), (C("English"), C("English"))), (V(3), V(4)))]


def test_violation_via_alternatives(locale_cfd):
    body = (
        Rel("mov2locale", (V(1), C("English"), V(3))),
        Rel("mov2locale", (V(2), C("English"), V(4))),
        Eq(V(1), V(2)),
        Eq(V(3), V(4)),
    )
    # right-hand sides equal under the closure, so no base violation; an
    # alternative value for V3 re-creates one
    assert find_cfd_violations(body, locale_cfd, EqClosure(body)) == []
    alts = {V(3): [V(9)]}
    out = find_cfd_violations(body, locale_cfd, EqClosure(body), alternatives=alts)
    assert [v.rhs_terms for v in out] == [(V(9), V(4))]


def _random_violation_input(rng):
    """A body of mov2locale literals over small pools of variables and
    constants (some equated by eq literals), and alternatives for a few of
    its terms, as CFD injection builds them."""
    pool = [V(k) for k in range(6)] + [C("English"), C("French"), C("a"), C("b")]
    body = [Rel("mov2locale", tuple(rng.choice(pool) for _ in range(3)))
            for _ in range(rng.randint(0, 7))]
    body.insert(rng.randint(0, len(body)), Rel("movies", (V(0), V(1), V(2))))
    body += [Eq(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(body)
    extra = [V(k) for k in range(6, 10)] + [C("English")]
    alternatives = {term: rng.sample(extra + pool, rng.randint(1, 3))
                    for term in rng.sample(pool, rng.randint(0, 4))}
    return tuple(body), alternatives


def test_find_cfd_violations_equals_the_reference_finder(schema):
    # two X positions, with a wildcard or a constant cell at each, and one;
    # the closure is an EqClosure or the union-find that injection grows.
    # With handled swap pairs, the violations whose right-hand pair is
    # handled both ways are left out, and only those.
    cfds = [make_cfd(schema, "mov2locale", ["title", "language"], "country", cells)
            for cells in ([None, None], [None, "English"], ["a", None])]
    cfds.append(make_cfd(schema, "mov2locale", ["language"], "title", [None]))
    rng = random.Random(11)
    found = filtered = 0
    for _ in range(400):
        body, alternatives = _random_violation_input(rng)
        union_find = DisjointSet()
        for lit in body:
            if isinstance(lit, Eq):
                union_find.union(lit.a, lit.b)
        for cfd in cfds:
            want = reference_find_cfd_violations(body, cfd, EqClosure(body), alternatives)
            assert find_cfd_violations(body, cfd, EqClosure(body), alternatives) == want
            rhs_pairs = [v.rhs_terms for v in want]
            handled = {pair for pair in rhs_pairs if rng.random() < 0.5}
            handled |= {(t, z) for z, t in handled if rng.random() < 0.7}
            kept = [v for v in want
                    if not (v.rhs_terms in handled and v.rhs_terms[::-1] in handled)]
            positions = constraints.cfd_literals(body, cfd)
            assert find_cfd_violations(body, cfd, union_find, alternatives, handled,
                                       positions) == kept
            assert find_cfd_violations(body, cfd, EqClosure(body), alternatives, handled) == kept
            found += len(want)
            filtered += len(want) - len(kept)
    assert found >= 1000 and filtered >= 300, (found, filtered)
