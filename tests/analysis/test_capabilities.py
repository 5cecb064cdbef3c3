"""Tests for the capability-certification layer.

Two concerns, in order: the *matrix* — every bundled application and
hand-built SDG receives exactly the certificates the static proofs
support, as plain data, with readable refusals for the rest; and the
*merge property* — every bundled merge the SDG302 scan passes clean
really is insensitive to the order of the gathered list.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capabilities import ProgramCapabilities, certify
from repro.analysis.engine import bundled_objects
from repro.analysis.merges import order_sensitive_sites
from repro.analysis.model import ProgramModel
from repro.apps import CollaborativeFiltering
from repro.apps.kmeans import KMeans
from repro.apps.logistic_regression import LogisticRegression
from repro.apps.multiclass import N_CLASSES, N_FEATURES, MulticlassRegression
from repro.state import Vector
from repro.testing import build_cf_sdg, build_iterative_sdg, build_kv_sdg
from repro.translate.builder import translate

from tests.analysis.fixtures import clean


def certify_bundled(key):
    target, label = bundled_objects()[key]()
    return certify(target, label.split(":")[-1])


# ---------------------------------------------------------------------------
# The certification matrix
# ---------------------------------------------------------------------------

#: key -> (flags, entries, edges) for every bundled target.
BUNDLED_MATRIX = {
    "cf": (["SUBSTRATE_SAFE"], [], []),
    "kvstore": (["SUBSTRATE_SAFE"], [], []),
    "lr": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"], ["train"], []),
    "kmeans": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"], ["observe"], []),
    "multiclass": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"],
                   ["train"], []),
    "wordcount": (["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"],
                  ["query", "split"], [("split", "count")]),
    "pagerank": (["SUBSTRATE_SAFE"], [], []),
}


class TestBundledMatrix:
    @pytest.mark.parametrize("key", sorted(BUNDLED_MATRIX))
    def test_bundled_target_certificates(self, key):
        expected = BUNDLED_MATRIX[key]
        caps = certify_bundled(key)
        got = (caps.flags, sorted(caps.coalescible_entries),
               sorted(caps.coalescible_edges))
        assert got == expected, f"{key}: {got}"
        # The certificate is plain data.
        assert pickle.loads(pickle.dumps(caps)) == caps
        fields = {f.name for f in dataclasses.fields(caps)}
        assert set(caps.to_dict()) == fields | {"flags"}

    def test_refused_certificates_carry_readable_reasons(self):
        kv = certify_bundled("kvstore")
        assert any("non-commutative writes" in r for r in kv.refusals)
        assert any("bump" in r for r in kv.refusals)

    def test_hand_built_cf_sdg(self):
        caps = certify(build_cf_sdg)
        assert caps.flags == ["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"]
        assert ("updateUserItem", "updateCoOcc") in caps.coalescible_edges

    def test_clean_fixture_earns_every_flag(self):
        caps = certify(clean.CleanCounters)
        assert caps.flags == ["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"]

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
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_to_dict_is_json_clean_and_fold_free(self):
        payload = certify(CollaborativeFiltering).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["flags"] == ["SUBSTRATE_SAFE"]
        # The merge gets no licence: the gather always hands it a list.
        assert not [key for key in payload if "merge" in key]

    def test_edges_serialise_as_pairs(self):
        payload = certify_bundled("wordcount").to_dict()
        assert payload["coalescible_edges"] == [["split", "count"]]

    def test_empty_constructor_records_refusals(self):
        caps = ProgramCapabilities.empty("t", "reason one", "reason two")
        assert caps.flags == []
        assert caps.refusals == ("reason one", "reason two")


# ---------------------------------------------------------------------------
# Property: lint-clean merges really are order-insensitive
# ---------------------------------------------------------------------------

# The gather barrier hands a merge the replica values in arrival order,
# which is undefined; the SDG302 scan is what certifies a merge against
# depending on it. One integer-valued item strategy per bundled merge:
# integer inputs make commutativity *exact* (float addition is only
# logically commutative), matching the optimizer differentials' contract.
_ITEM_STRATEGIES = {
    (CollaborativeFiltering, "merge"):
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    (KMeans, "merge_centroids"):
        st.lists(st.one_of(st.just([]),
                           st.lists(st.integers(0, 20), min_size=3,
                                    max_size=3)),
                 max_size=3),
    (LogisticRegression, "average"):
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    (MulticlassRegression, "average"):
        st.lists(st.lists(st.integers(-20, 20), min_size=N_FEATURES,
                          max_size=N_FEATURES),
                 min_size=N_CLASSES, max_size=N_CLASSES),
}


def vectors(rows):
    out = []
    for values in rows:
        v = Vector()
        v.add_vector(values)
        out.append(v)
    return out


def _as_merge_input(cls, raw_items):
    if cls is CollaborativeFiltering:
        return vectors(raw_items)
    return raw_items


def _canonical(cls, result):
    return result.to_list() if cls is CollaborativeFiltering else result


def test_every_certified_commutative_merge_is_property_tested():
    """The strategy table must cover every bundled merge the SDG302
    scan certifies clean (all of them: the bundled apps lint clean)."""
    certified = set()
    for key in BUNDLED_MATRIX:
        target, _label = bundled_objects()[key]()
        if not isinstance(target, type):
            continue  # hand-built SDGs have merge TEs, not methods
        model = ProgramModel.build(target, translate(target))
        for merge, (fn_ast, coll) in model.merge_methods().items():
            if not order_sensitive_sites(fn_ast, coll):
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
