"""Tests for the synthetic workload generators."""

from collections import Counter

import pytest

from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.workloads import (
    KVWorkload,
    LabelledPoints,
    RatingsWorkload,
    TextWorkload,
    ZipfSampler,
)


class TestZipfSampler:
    def test_deterministic_given_seed(self):
        a = ZipfSampler(100, seed=5).sample_many(50)
        b = ZipfSampler(100, seed=5).sample_many(50)
        assert a == b

    def test_skew_favours_low_ranks(self):
        sampler = ZipfSampler(1000, s=1.2, seed=1)
        counts = Counter(sampler.sample_many(5000))
        top10 = sum(counts[r] for r in range(10))
        assert top10 > 5000 * 0.3

    def test_zero_exponent_is_uniform_mass(self):
        sampler = ZipfSampler(10, s=0.0)
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, s=1.0)
        total = sum(sampler.probability(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_samples_in_range(self):
        sampler = ZipfSampler(7, seed=3)
        assert all(0 <= r < 7 for r in sampler.sample_many(200))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, s=-1)
        with pytest.raises(ValueError):
            ZipfSampler(5).probability(5)


class TestRatingsWorkload:
    def test_read_fraction_respected(self):
        workload = RatingsWorkload(read_fraction=0.25, seed=1)
        ops = list(workload.ops(2000))
        reads = sum(1 for op in ops if op.kind == "get_rec")
        assert reads / len(ops) == pytest.approx(0.25, abs=0.05)

    def test_writes_carry_item_and_rating(self):
        workload = RatingsWorkload(read_fraction=0.0)
        for op in workload.ops(50):
            assert op.kind == "add_rating"
            assert 0 <= op.item < workload.n_items
            assert 1 <= op.rating <= 5

    def test_drives_cf_program(self):
        app = CollaborativeFiltering.launch(co_occ=2)
        workload = RatingsWorkload(n_users=20, n_items=10,
                                   read_fraction=0.3, seed=2)
        writes, reads = workload.apply_to(app, 60)
        app.run()
        assert writes + reads == 60
        assert len(app.results("get_rec")) == reads

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RatingsWorkload(read_fraction=1.5)


class TestTextWorkload:
    def test_line_shape(self):
        workload = TextWorkload(words_per_line=5, inter_arrival=10)
        lines = list(workload.lines(4))
        assert [t for t, _ in lines] == [0, 10, 20, 30]
        assert all(len(line.split()) == 5 for _, line in lines)

    def test_zipf_word_frequencies(self):
        workload = TextWorkload(vocabulary=1000, skew=1.2, seed=1)
        counts = Counter()
        for _, line in workload.lines(500):
            counts.update(line.split())
        assert counts["w0"] > counts.get("w500", 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TextWorkload(vocabulary=0)


class TestKVWorkload:
    def test_pure_write_stream(self):
        workload = KVWorkload(read_fraction=0.0, seed=1)
        assert all(op.kind == "put" for op in workload.ops(100))

    def test_mixed_stream(self):
        workload = KVWorkload(read_fraction=0.5, seed=1)
        kinds = Counter(op.kind for op in workload.ops(1000))
        assert kinds["get"] == pytest.approx(500, abs=80)

    def test_skewed_keys_concentrate(self):
        workload = KVWorkload(n_keys=1000, skew=1.2, seed=1)
        keys = Counter(op.key for op in workload.ops(2000))
        assert keys["key0"] > keys.get("key500", 0)

    def test_drives_kv_program(self):
        app = KeyValueStore.launch(table=3)
        workload = KVWorkload(n_keys=50, read_fraction=0.4, seed=9)
        writes, reads = workload.apply_to(app, 100)
        app.run()
        assert writes + reads == 100
        assert len(app.results("get")) == reads


class TestLabelledPoints:
    def test_features_include_bias(self):
        points = LabelledPoints(dimensions=3)
        features, label = next(points.points(1))
        assert len(features) == 4
        assert features[0] == 1.0
        assert label in (0, 1)

    def test_separable_with_wide_margin(self):
        points = LabelledPoints(dimensions=4, margin=3.0, noise=0.2,
                                seed=1)

        # An oracle along the generating direction classifies well.
        direction = points._direction

        def oracle(features):
            z = sum(d * f for d, f in zip(direction, features[1:]))
            return 1.0 if z > 0 else 0.0

        assert points.accuracy_of(oracle) > 0.97

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LabelledPoints(dimensions=0)


class TestDesignSpace:
    def test_sdg_row_claims(self):
        from repro.designspace import TABLE_1

        row = next(row for row in TABLE_1 if row.system == "SDG")
        assert row.programming_model == "imperative"
        assert row.state_representation == "explicit"
        assert row.execution == "pipelined"
        assert row.failure_recovery == "async. local checkpoints"

    def test_sdg_is_unique_in_combination(self):
        """Table 1's argument: no other framework combines imperative
        programming, large explicit state with fine-grained updates,
        pipelined low-latency execution, iteration and async local
        checkpoints."""
        from repro.designspace import YES, frameworks_with

        matches = frameworks_with(
            programming_model="imperative",
            state_representation="explicit",
            large_state=YES,
            fine_grained_updates=YES,
            execution="pipelined",
            low_latency=YES,
            iteration=YES,
        )
        assert [row.system for row in matches] == ["SDG"]

    def test_table_renders_all_rows(self):
        from repro.designspace import TABLE_1, render_table

        rendered = render_table()
        for row in TABLE_1:
            assert row.system in rendered

    def test_fifteen_frameworks(self):
        from repro.designspace import TABLE_1

        assert len(TABLE_1) == 15
