"""CF's state kernels, counted: Python calls per ``add_rating`` and per
``get_rec``, never a clock.

CF runs in-process laid out as the ``cf-mixed-inproc`` benchmark row
(``user_item`` and ``co_occ`` on 2 instances each), over 400 users and
60 items. After a 2,000-rating preload, 300 ops at 20 % reads are each
injected and drained on their own, as a closed loop does, and the
profiler's "call" events are summed per kind of op.
"""

import sys
from collections import Counter

from repro.apps import CollaborativeFiltering
from repro.state import Vector
from repro.workloads import RatingsWorkload

USERS, ITEMS = 400, 60


def call_counts(fn) -> Counter:
    """Python-level "call" events while ``fn()`` runs, by function."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_cf_ops_cost_a_bounded_number_of_python_calls():
    app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
    preload = RatingsWorkload(n_users=USERS, n_items=ITEMS,
                              read_fraction=0.0, seed=11)
    assert preload.apply_to(app, 2_000) == (2_000, 0)
    app.run()
    calls, ops = Counter(), Counter()
    mix = RatingsWorkload(n_users=USERS, n_items=ITEMS, read_fraction=0.2,
                          seed=12)
    for op in mix.ops(300):
        if op.kind == "add_rating":
            args = (op.user, op.item, op.rating)
        else:
            args = (op.user,)

        def serve():
            getattr(app, op.kind)(*args)
            app.run()

        calls[op.kind] += sum(call_counts(serve).values())
        ops[op.kind] += 1
    assert len(app.results("get_rec")) == ops["get_rec"] > 30
    per_op = {kind: calls[kind] / ops[kind] for kind in ops}
    # A cell read is two C-level dict reads, ``multiply`` one pass over
    # each operand column, and a merge grows its vector once.
    assert per_op["get_rec"] <= 150, per_op
    assert per_op["add_rating"] <= 145, per_op


def test_a_merge_into_an_empty_vector_sets_no_element():
    partials = [Vector(values=[0.0, 1.5, 0.0, 2.0, 0.0]),
                Vector(values=[3.0, 0.0, 0.0, 0.0, 0.0, 1.0])]
    merged = []
    calls = call_counts(lambda: merged.append(
        CollaborativeFiltering().merge(partials)))
    assert calls["ListBackend._do_set"] == 0
    assert calls["ListBackend._check_index"] == 0
    (rec,) = merged
    assert rec.to_list() == [3.0, 1.5, 0.0, 2.0, 0.0, 1.0]
    assert rec.journal().written == set(range(6))
