"""Variant partitioning and per-variant modal attribute values."""

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample.errors import ConfigurationError
from logsample.log_model import CASE_SCOPE, CATEGORICAL, NUMERIC, AttributeSpec, Event, build_log
from logsample.variants import build_variant_index

from helpers import log_from_variants, random_variant_freqs, resource_schema, trace_counts
from random import Random


class TestBuildVariantIndex:
    def test_partitions_cases(self, tiny_log):
        index = build_variant_index(tiny_log)
        assert len(index.variants) == 2
        freqs = {v.activities: v.frequency for v in index.variants}
        assert freqs == {("a", "b"): 2, ("a", "c"): 1}
        all_members = [cid for v in index.variants for cid in v.member_case_ids]
        assert sorted(all_members) == sorted(tiny_log.cases)
        assert len(all_members) == len(set(all_members))

    def test_frequencies_sum_to_total(self, skewed):
        index = build_variant_index(skewed)
        assert sum(v.frequency for v in index.variants) == skewed.num_cases

    def test_members_share_the_variant_sequence(self, skewed):
        index = build_variant_index(skewed)
        for variant in index.variants:
            for cid in variant.member_case_ids:
                assert skewed.trace(cid) == variant.activities

    def test_categorical_distribution(self):
        def attrs(case_n, event_idx):
            values = {0: ["r1", "r1"], 1: ["r2", "r1"]}
            return {"resource": values[case_n][event_idx]}

        log = log_from_variants(
            [(("a", "b"), 2)], event_attrs=attrs, schema=resource_schema()
        )
        index = build_variant_index(log, ["resource"])
        assert index.modal_values[("a", "b")]["resource"] == {"r1"}

    def test_modal_ties_keep_all_values(self):
        def attrs(case_n, event_idx):
            return {"resource": "r1" if case_n == 0 else "r2"}

        log = log_from_variants(
            [(("a",), 2)], event_attrs=attrs, schema=resource_schema()
        )
        index = build_variant_index(log, ["resource"])
        assert index.modal_values[("a",)]["resource"] == {"r1", "r2"}

    def test_numeric_distribution(self):
        def attrs(case_n, event_idx):
            return {"cost": [1, 2, 9, 2][case_n]}

        log = log_from_variants(
            [(("a",), 4)],
            event_attrs=attrs,
            schema={"cost": AttributeSpec(NUMERIC, "event")},
        )
        index = build_variant_index(log, ["cost"])
        assert index.modal_values[("a",)]["cost"] == {2}

    def test_case_scope_pools_one_value_per_case(self):
        log = log_from_variants(
            [(("a", "b"), 3)],
            case_attrs=lambda n: {"channel": "web" if n < 2 else "phone"},
            schema={"channel": AttributeSpec(CATEGORICAL, CASE_SCOPE)},
        )
        index = build_variant_index(log, ["channel"])
        assert index.modal_values[("a", "b")]["channel"] == {"web"}

    def test_unknown_attribute(self, tiny_log):
        with pytest.raises(ConfigurationError, match="no_such"):
            build_variant_index(tiny_log, ["no_such"])

    def test_empty_attribute_list_skips_distributions(self, tiny_log):
        index = build_variant_index(tiny_log, [])
        assert index.attributes == ()
        assert all(not d for d in index.modal_values.values())

    def test_invariant_under_case_reordering(self):
        freqs = [(("a", "b"), 2), (("c",), 3), (("a",), 1)]
        log = log_from_variants(freqs)
        log_rev = log_from_variants(list(reversed(freqs)))
        a = build_variant_index(log)
        b = build_variant_index(log_rev)
        assert [v.activities for v in a.variants] == [v.activities for v in b.variants]
        assert [v.frequency for v in a.variants] == [v.frequency for v in b.variants]

    def test_members_are_held_in_case_id_order(self):
        stamp = datetime(2021, 1, 1, tzinfo=timezone.utc)
        ids = ["c2", "c10", "b", "c1"]  # log order is not case-id order
        log = build_log({cid: [Event("a", stamp)] for cid in ids})
        (variant,) = build_variant_index(log).variants
        assert variant.member_case_ids == ("b", "c1", "c10", "c2")

    def test_index_variants_match_traces(self, skewed):
        index = build_variant_index(skewed)
        assert {v.activities: v.frequency for v in index.variants} == trace_counts(skewed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partition_property_on_random_logs(seed):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=8, max_freq=6))
    index = build_variant_index(log)
    members = [cid for v in index.variants for cid in v.member_case_ids]
    assert sorted(members) == sorted(log.cases)
    assert len(members) == len(set(members))
    assert sum(v.frequency for v in index.variants) == log.num_cases
