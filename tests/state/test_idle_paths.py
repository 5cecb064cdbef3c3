"""``Matrix`` and ``Vector`` against the generic helper path.

The hot domain operations check a key once and touch the backend
directly instead of going through ``_get`` / ``_set``. Here one SE is
driven through its domain API and a twin only through ``_get`` /
``_set`` (the path a refused key still takes, and the one the fast
paths must reproduce), over keys the store refuses as well as keys it
accepts, with checkpoint cuts taken and dropped in between. After every
operation the two must agree on what was read or raised and on
everything the store, its indexes and its journal hold, and every cut
still held must equal the store's items at the moment it was taken.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StateError
from repro.state import Matrix, Vector

coordinates = st.one_of(st.integers(-2, 5), st.booleans(),
                        st.sampled_from([0.0, 1.5, "a"]))
values = st.one_of(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False),
                   st.just("x"))
numbers = st.lists(st.one_of(st.integers(-2, 2),
                             st.floats(-3, 3, allow_nan=False),
                             st.booleans()), max_size=8)
operands = st.one_of(numbers.map(lambda v: Vector(values=v)),
                     st.lists(st.one_of(values, st.booleans()), max_size=8))
checkpointing = st.one_of(st.tuples(st.just("cut")),
                          st.tuples(st.just("drop")))

matrix_ops = st.lists(st.one_of(
    st.tuples(st.just("set"), coordinates, coordinates, values),
    st.tuples(st.just("add"), coordinates, coordinates, values),
    st.tuples(st.just("get"), coordinates, coordinates),
    st.tuples(st.just("get_row"), coordinates),
    st.tuples(st.just("multiply"), numbers),
    checkpointing,
), max_size=40)

vector_ops = st.lists(st.one_of(
    st.tuples(st.just("set"), coordinates, values),
    st.tuples(st.just("add_vector"), operands),
    st.tuples(st.just("to_list")),
    checkpointing,
), max_size=30)


def outcome(action, *args):
    """``repr`` of what ``action`` returned, or the type it raised."""
    try:
        return repr(action(*args))
    except (StateError, KeyError, ValueError, TypeError) as exc:
        return type(exc)


def cells(se):
    """The twin's ``(key, value)`` pairs."""
    return list(se._iter_items())


def checkpoint(se, op, held):
    """Take a cut as a checkpoint's begin does (the journal restarts),
    or drop the oldest cut still held."""
    if op == "cut":
        cut = se.cut()
        assert repr(cut.items) == repr(list(se.backend.items()))
        held.append((cut, repr(cut.items)))
        se.mark_clean()
    elif held:
        held.pop(0)


def assert_cuts_unchanged(held):
    for cut, taken in held:
        assert repr(cut.items) == taken


# -- Matrix ----------------------------------------------------------------

def twin_add(twin, row, col, delta):
    value = twin._get((row, col), 0.0) + delta
    twin._set((row, col), value)
    return value


def twin_get_row(twin, row):
    twin._get((row, 0), 0.0)  # refuses a bad row as a cell read would
    cols = {col for (r, col), _value in cells(twin) if r == row}
    values = [0.0] * (max(cols) + 1 if cols else 0)
    for col in cols:
        values[col] = twin._get((row, col))
    return values


def twin_multiply(twin, operand):
    totals = {}
    for col, weight in enumerate(operand):
        if weight:
            for (row, c), _value in cells(twin):
                if c == col:
                    totals[row] = (totals.get(row, 0.0)
                                   + twin._get((row, c)) * weight)
    values = [0.0] * (max(totals) + 1 if totals else 0)
    for row, total in totals.items():
        values[row] = total
    return values


MATRIX_OPS = {
    "set": (lambda m, r, c, v: m.set_element(r, c, v),
            lambda t, r, c, v: t._set((r, c), v)),
    "add": (lambda m, r, c, d: m.add_element(r, c, d), twin_add),
    "get": (lambda m, r, c: m.get_element(r, c),
            lambda t, r, c: t._get((r, c), 0.0)),
    "get_row": (lambda m, r: m.get_row(r).to_list(), twin_get_row),
    "multiply": (lambda m, v: m.multiply(Vector(values=v)).to_list(),
                 twin_multiply),
}


def assert_same_store(se, twin):
    assert repr(list(se.backend.items())) == \
        repr(list(twin.backend.items()))
    assert repr(se.journal()) == repr(twin.journal())
    assert se.update_count == twin.update_count


@given(ops=matrix_ops)
# Float addition does not associate: a row summed in any order but
# ascending column reads 0.6 here, not 0.6000000000000001.
@example(ops=[("set", 0, 0, 0.1), ("set", 0, 1, 0.2), ("set", 0, 2, 0.3),
              ("multiply", [1, 1, 1])])
@settings(max_examples=300, deadline=None)
def test_matrix_domain_ops_match_the_helper_path(ops):
    matrix, twin = Matrix(), Matrix()
    held, twin_held = [], []
    for op in ops:
        if op[0] in MATRIX_OPS:
            domain, reference = MATRIX_OPS[op[0]]
            assert outcome(domain, matrix, *op[1:]) == \
                outcome(reference, twin, *op[1:]), op
        else:
            checkpoint(matrix, op[0], held)
            checkpoint(twin, op[0], twin_held)
        assert_same_store(matrix, twin)
        assert_cuts_unchanged(held + twin_held)
        for index in ("_cols", "_row_cols"):
            assert repr(getattr(matrix.backend, index)) == \
                repr(getattr(twin.backend, index))


# -- Vector ----------------------------------------------------------------

def twin_add_vector(twin, other):
    theirs = other.to_list() if isinstance(other, Vector) else list(other)
    for index, value in enumerate(theirs):
        if value:
            twin._set(index, twin._get(index, 0.0) + value)


def twin_to_list(twin):
    top = max((index for index, _value in cells(twin)), default=-1)
    return [twin._get(index, 0.0) for index in range(top + 1)]


def scribbled(values):
    """What was returned, then scribbled on: a copy leaves the SE as it
    was, a view of its store would not."""
    shown = list(values)
    values.append("scribbled")
    return shown


VECTOR_OPS = {
    "set": (lambda v, i, x: v.set(i, x), lambda t, i, x: t._set(i, x)),
    "add_vector": (lambda v, other: v.add_vector(other), twin_add_vector),
    "to_list": (lambda v: scribbled(v.to_list()),
                lambda t: scribbled(twin_to_list(t))),
}


@given(start=numbers, ops=vector_ops)
# Trailing zeros in the operand do not grow an empty receiver.
@example(start=[], ops=[("add_vector", Vector(values=[0.0, 2.0, 0.0, 0.0])),
                        ("to_list",)])
# A short receiver grows past a zero gap to the last non-zero, and the
# new slots journal after the old one, as ``set`` would (the journal's
# frozensets of 1, 8, 9 print differently in another order).
@example(start=[0.0] * 8,
         ops=[("cut",), ("add_vector", Vector(
             values=[0.0, 1.0] + [0.0] * 7 + [2.0, 0.0])), ("to_list",)])
@settings(max_examples=300, deadline=None)
def test_vector_domain_ops_match_the_helper_path(start, ops):
    vector, twin = Vector(values=start), Vector(values=start)
    held, twin_held = [], []
    for op in ops:
        if op[0] in VECTOR_OPS:
            domain, reference = VECTOR_OPS[op[0]]
            assert outcome(domain, vector, *op[1:]) == \
                outcome(reference, twin, *op[1:]), op
        else:
            checkpoint(vector, op[0], held)
            checkpoint(twin, op[0], twin_held)
        assert_same_store(vector, twin)
        assert_cuts_unchanged(held + twin_held)
