from hypothesis import given
from hypothesis import strategies as st

from dlearn.logic import Constant
from dlearn.util import DisjointSet


def _fresh(key):
    """A new object equal to key: ints above 256 and strs built at run time
    are not interned, so each call returns a distinct object."""
    if isinstance(key, Constant):
        return Constant("".join(list(key.value)))
    return int(str(key))


_KEYS = [1000 + i for i in range(4)] + [Constant(f"name {i}") for i in range(4)]
_ops = st.lists(st.tuples(st.sampled_from(["union", "same", "find"]),
                          st.sampled_from(_KEYS), st.sampled_from(_KEYS)), max_size=30)


@given(_ops)
def test_disjoint_set_agrees_with_an_equality_reference(ops):
    dsu = DisjointSet()
    classes = [[k] for k in _KEYS]

    def cls(x):
        return next(c for c in classes if any(x == k for k in c))

    for op, a, b in ops:
        a, b = _fresh(a), _fresh(b)
        if op == "union":
            ca, cb = cls(a), cls(b)
            if ca is not cb:
                classes.remove(cb)
                ca.extend(cb)
            dsu.union(a, b)
        elif op == "same":
            assert (dsu.find(a) is dsu.find(b)) == (cls(a) is cls(b))
        else:
            root = dsu.find(a)
            assert root == dsu.find(_fresh(a)) and root in cls(a)
    for a in _KEYS:
        for b in _KEYS:
            assert (dsu.find(_fresh(a)) is dsu.find(_fresh(b))) == (cls(a) is cls(b))


def test_fresh_keys_are_distinct_objects():
    for key in _KEYS:
        assert _fresh(key) == key and _fresh(key) is not key

