"""Tests for the capability-certification layer.

Three concerns, in order: the *matrix* — every bundled application and
hand-built SDG receives exactly the certificates the static proofs
support, with readable refusals for the rest; the *fold synthesis* —
the incremental form of a foldable merge computes what the original
loop computes; and the *soundness boundary* — programs whose merges
the lint pass flags are never granted ``COMMUTATIVE_MERGE``, so the
runtime's relaxed paths stay unreachable for them by construction.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capabilities import (
    MergeFold,
    ProgramCapabilities,
    certify,
)
from repro.analysis.engine import bundled_objects
from repro.apps import CollaborativeFiltering
from repro.apps.logistic_regression import LogisticRegression
from repro.apps.multiclass import N_CLASSES, N_FEATURES, MulticlassRegression
from repro.state import Vector
from repro.testing import build_cf_sdg, build_iterative_sdg, build_kv_sdg

from tests.analysis.fixtures import (
    clean,
    laundered_index_merge,
    operand_swap_merge,
    order_sensitive_merge,
)


def certify_bundled(key):
    target, label = bundled_objects()[key]()
    return certify(target, label.split(":")[-1])


# ---------------------------------------------------------------------------
# The certification matrix
# ---------------------------------------------------------------------------

#: key -> (flags, commutative, foldable, entries, edges) for every
#: bundled target.
BUNDLED_MATRIX = {
    "cf": (["COMMUTATIVE_MERGE", "SUBSTRATE_SAFE"],
           ("merge",), ("merge",), [], []),
    "kvstore": (["SUBSTRATE_SAFE"], (), (), [], []),
    "lr": (["COMMUTATIVE_MERGE", "COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"],
           ("average",), (), ["train"], []),
    "kmeans": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"],
               (), (), ["observe"], []),
    "multiclass": (["COMMUTATIVE_MERGE", "COALESCIBLE_DISPATCH",
                    "SUBSTRATE_SAFE"],
                   ("average",), (), ["train"], []),
    "wordcount": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"], (), (),
                  ["query", "split"], [("split", "count")]),
    "pagerank": (["SUBSTRATE_SAFE"], (), (), [], []),
}


class TestBundledMatrix:
    @pytest.mark.parametrize("key", sorted(BUNDLED_MATRIX))
    def test_bundled_target_certificates(self, key):
        expected = BUNDLED_MATRIX[key]
        caps = certify_bundled(key)
        got = (caps.flags, caps.commutative_merges, caps.foldable_merges,
               sorted(caps.coalescible_entries),
               sorted(caps.coalescible_edges))
        assert got == expected, f"{key}: {got}"

    def test_refused_certificates_carry_readable_reasons(self):
        kv = certify_bundled("kvstore")
        assert any("non-commutative writes" in r for r in kv.refusals)
        assert any("bump" in r for r in kv.refusals)
        kmeans = certify_bundled("kmeans")
        assert any("merge_centroids" in r for r in kmeans.refusals)

    def test_hand_built_cf_sdg(self):
        caps = certify(build_cf_sdg)
        assert caps.flags == ["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"]
        assert ("updateUserItem", "updateCoOcc") in caps.coalescible_edges
        # The order-sensitive merge TE is refused, with the line.
        assert any("mergeRec" in r for r in caps.refusals)

    def test_hand_built_kv_sdg(self):
        caps = certify(build_kv_sdg)
        assert caps.flags == ["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"]
        assert sorted(caps.coalescible_entries) == ["serve"]

    def test_hand_built_iterative_sdg_coalesces_both_directions(self):
        caps = certify(build_iterative_sdg)
        assert sorted(caps.coalescible_edges) == [
            ("stepA", "stepB"), ("stepB", "stepA"),
        ]


class TestCertifyDispatch:
    def test_sdg_factory_uses_function_name(self):
        assert certify(build_kv_sdg).target == "build_kv_sdg"

    def test_sdg_instance_uses_graph_name(self):
        sdg = build_kv_sdg()
        assert certify(sdg).target == sdg.name

    def test_explicit_name_wins(self):
        assert certify(build_kv_sdg, name="custom").target == "custom"

    def test_uncertifiable_target_rejected(self):
        with pytest.raises(TypeError, match="cannot certify"):
            certify(42)


# ---------------------------------------------------------------------------
# The soundness boundary: flagged merges are never certified
# ---------------------------------------------------------------------------


class TestUncertifiedRefused:
    @pytest.mark.parametrize("module, cls_name, merge_name", [
        (order_sensitive_merge, "OrderSensitiveMerge", "newest_wins"),
        (operand_swap_merge, "OperandSwapMerge", "alternating"),
        (laundered_index_merge, "LaunderedIndexMerge", "top_pick"),
    ], ids=["index", "operand-swap", "laundered-index"])
    def test_flagged_merge_refused_by_name(self, module, cls_name,
                                           merge_name):
        caps = certify(getattr(module, cls_name))
        assert "COMMUTATIVE_MERGE" not in caps.flags
        assert not caps.commutative_merges
        assert not caps.merge_folds
        assert any(merge_name in r for r in caps.refusals)

    def test_clean_fixture_earns_every_flag(self):
        caps = certify(clean.CleanCounters)
        assert caps.flags == [
            "COMMUTATIVE_MERGE", "COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE",
        ]


# ---------------------------------------------------------------------------
# Fold synthesis
# ---------------------------------------------------------------------------


def vectors(rows):
    out = []
    for values in rows:
        v = Vector()
        v.add_vector(values)
        out.append(v)
    return out


class TestFoldSynthesis:
    def test_cf_fold_is_keyed_by_te_name(self):
        caps = certify(CollaborativeFiltering)
        assert list(caps.merge_folds) == ["get_rec_2_merge_merge"]
        assert isinstance(caps.merge_folds["get_rec_2_merge_merge"],
                          MergeFold)

    def test_fold_matches_the_buffered_merge(self):
        fold = certify(CollaborativeFiltering).merge_folds[
            "get_rec_2_merge_merge"]
        items = vectors([[1, 2, 3], [4, 0, 6], [7, 8, 0]])
        acc = fold.init()
        for item in items:
            acc = fold.step(acc, item)
        merged = CollaborativeFiltering.merge(None, items)
        assert acc.to_list() == merged.to_list()
        # The engine invokes the merge over [accumulator]: the init
        # value is the additive identity, so re-merging is a no-op.
        assert CollaborativeFiltering.merge(
            None, [acc]).to_list() == merged.to_list()

    def test_fold_init_is_fresh_per_call(self):
        fold = certify(CollaborativeFiltering).merge_folds[
            "get_rec_2_merge_merge"]
        first = fold.step(fold.init(), vectors([[5]])[0])
        second = fold.init()
        assert second.to_list() != first.to_list()

    def test_non_foldable_commutative_merge_has_no_fold(self):
        caps = certify(LogisticRegression)
        assert caps.commutative_merges == ("average",)
        assert not caps.foldable_merges
        assert not caps.merge_folds


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_to_dict_is_json_clean_and_fold_free(self):
        payload = certify(CollaborativeFiltering).to_dict()
        assert "merge_folds" not in payload
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
        assert payload["flags"] == [
            "COMMUTATIVE_MERGE", "SUBSTRATE_SAFE",
        ]
        assert payload["foldable_merges"] == ["merge"]

    def test_edges_serialise_as_pairs(self):
        payload = certify_bundled("wordcount").to_dict()
        assert payload["coalescible_edges"] == [["split", "count"]]

    def test_empty_constructor_records_refusals(self):
        caps = ProgramCapabilities.empty("t", "reason one", "reason two")
        assert caps.flags == []
        assert caps.refusals == ("reason one", "reason two")


# ---------------------------------------------------------------------------
# Property: certified-commutative merges really are order-insensitive
# ---------------------------------------------------------------------------

# One integer-valued item strategy per certified merge. Integer inputs
# make commutativity *exact* (float addition is only logically
# commutative), matching the optimizer differentials' contract.
_ITEM_STRATEGIES = {
    (CollaborativeFiltering, "merge"):
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    (LogisticRegression, "average"):
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    (MulticlassRegression, "average"):
        st.lists(st.lists(st.integers(-20, 20), min_size=N_FEATURES,
                          max_size=N_FEATURES),
                 min_size=N_CLASSES, max_size=N_CLASSES),
}


def _as_merge_input(cls, raw_items):
    if cls is CollaborativeFiltering:
        return vectors(raw_items)
    return raw_items


def _canonical(cls, result):
    return result.to_list() if cls is CollaborativeFiltering else result


def test_every_certified_commutative_merge_is_property_tested():
    """The strategy table must cover the whole certified surface."""
    certified = set()
    for key in BUNDLED_MATRIX:
        target, label = bundled_objects()[key]()
        if not isinstance(target, type):
            continue  # hand-built SDG merges carry no fold/method pair
        for merge in certify(target).commutative_merges:
            certified.add((target, merge))
    assert certified == set(_ITEM_STRATEGIES)


@pytest.mark.parametrize("cls, merge_name", sorted(
    _ITEM_STRATEGIES, key=lambda pair: (pair[0].__name__, pair[1])),
    ids=lambda value: getattr(value, "__name__", value))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_certified_merge_is_permutation_invariant(cls, merge_name, data):
    raw = data.draw(st.lists(_ITEM_STRATEGIES[(cls, merge_name)],
                             min_size=1, max_size=5))
    permuted_raw = data.draw(st.permutations(raw))
    merge = getattr(cls, merge_name)
    baseline = merge(None, _as_merge_input(cls, raw))
    shuffled = merge(None, _as_merge_input(cls, permuted_raw))
    assert _canonical(cls, baseline) == _canonical(cls, shuffled)
