"""Selection counts, trace ranking, and sampling end to end.

The oracle functions below evaluate the three selection rules by a separate
route (ceil via math, floor-log via repeated integer division) and stay
independent of the implementation under test.
"""

import dataclasses
import math
import re
from datetime import timedelta
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample.errors import ConfigurationError, EmptySampleError
from logsample.experiment import config_from_dict
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    NUMERIC,
    AttributeSpec,
    Event,
    build_log,
)
from logsample.sampling import (
    DIVISION,
    LOGARITHMIC,
    NEWEST_FIRST,
    OLDEST_FIRST,
    RANDOM,
    RANDOM_ORDER,
    REPRESENTATIVE,
    UNIQUE,
    SamplingConfig,
    parse_method_token,
    rank_traces,
    rank_variants,
    sample,
    sample_count,
)
from logsample.variants import VariantIndex, build_variant_index

from helpers import (
    T0,
    attributed_log,
    log_from_variants,
    random_variant_freqs,
    resource_schema,
    trace_counts,
)


# --- independent oracle -----------------------------------------------------

def oracle_unique(freq: int) -> int:
    return 1


def oracle_division(freq: int, k: int) -> int:
    return math.ceil(freq / k)


def oracle_log_floor(freq: int, k: int) -> int:
    exponent = 0
    remaining = freq
    while remaining >= k:
        remaining //= k
        exponent += 1
    return min(exponent, freq)


def oracle_log_nearest(freq: int, k: int) -> int:
    exact = math.log(freq) / math.log(k)
    floor = oracle_log_floor(freq, k)
    fraction = exact - floor
    if abs(fraction - 0.5) < 1e-9:
        return min(floor + 1, freq)
    return min(floor + (1 if fraction > 0.5 else 0), freq)


def oracle_kept(freqs, method, k=None):
    if method == UNIQUE:
        return [oracle_unique(f) for f in freqs]
    if method == DIVISION:
        return [oracle_division(f, k) for f in freqs]
    return [oracle_log_floor(f, k) for f in freqs]


# --- sample_count -----------------------------------------------------------

class TestSampleCount:
    def test_division_examples(self):
        cfg = SamplingConfig(DIVISION, k=10)
        assert sample_count(cfg, 95) == 10
        assert sample_count(cfg, 95) == oracle_division(95, 10)

    def test_log_floor_drops_infrequent(self):
        cfg = SamplingConfig(LOGARITHMIC, k=10)
        assert sample_count(cfg, 9) == 0

    def test_unique_is_one(self):
        assert sample_count(SamplingConfig(UNIQUE), 1000) == 1

    def test_log_exact_power(self):
        assert sample_count(SamplingConfig(LOGARITHMIC, k=2), 8) == 3

    def test_log_floor_has_no_float_wobble(self):
        # powers of k are exact even where float log would round down
        cfg = SamplingConfig(LOGARITHMIC, k=10)
        assert sample_count(cfg, 1000) == 3
        cfg3 = SamplingConfig(LOGARITHMIC, k=3)
        assert sample_count(cfg3, 243) == 5

    def test_log_nearest_rounds_half_up(self):
        cfg = SamplingConfig(LOGARITHMIC, k=4, log_rounding="nearest")
        assert sample_count(cfg, 8) == 2  # exactly halfway between 4^1 and 4^2
        assert sample_count(cfg, 7) == 1

    def test_division_keeps_one_up_to_k(self):
        cfg = SamplingConfig(DIVISION, k=7)
        for n in range(1, 8):
            assert sample_count(cfg, n) == 1

    def test_frequency_below_one_is_refused(self):
        with pytest.raises(ValueError, match="frequency must be >= 1, got 0"):
            sample_count(SamplingConfig(UNIQUE), 0)

    def test_random_has_no_per_variant_count(self):
        cfg = SamplingConfig(RANDOM, fraction=0.5)
        with pytest.raises(ConfigurationError):
            sample_count(cfg, 10)

    @settings(max_examples=300, deadline=None)
    @given(
        freq=st.integers(min_value=1, max_value=100_000),
        k=st.integers(min_value=2, max_value=50),
    )
    def test_matches_oracle_everywhere(self, freq, k):
        assert sample_count(SamplingConfig(DIVISION, k=k), freq) == oracle_division(freq, k)
        assert sample_count(SamplingConfig(LOGARITHMIC, k=k), freq) == oracle_log_floor(freq, k)
        nearest = SamplingConfig(LOGARITHMIC, k=k, log_rounding="nearest")
        assert sample_count(nearest, freq) == oracle_log_nearest(freq, k)


class TestSamplingConfig:
    def test_k_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(DIVISION, k=1)
        with pytest.raises(ConfigurationError):
            SamplingConfig(LOGARITHMIC, k=0)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(method=DIVISION, k=2.5), "k"),
            (dict(method=LOGARITHMIC, k=3.0), "k"),
            (dict(method=DIVISION, k=True), "k"),
            (dict(method=RANDOM, fraction=True), "fraction"),
            (dict(method=RANDOM, fraction="0.5"), "fraction"),
            (dict(method="bogus"), "selection method 'bogus'"),
            (dict(method=UNIQUE, sorting="bogus"), "sorting strategy 'bogus'"),
            (dict(method=UNIQUE, log_rounding="bogus"), "log rounding 'bogus'"),
        ],
        ids=["k-float", "k-whole-float", "k-bool", "fraction-bool", "fraction-str",
             "method", "sorting", "rounding"],
    )
    def test_bad_settings_are_named(self, kwargs, named):
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            SamplingConfig(**kwargs)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(RANDOM, fraction=0.0)
        with pytest.raises(ConfigurationError):
            SamplingConfig(RANDOM, fraction=1.5)
        SamplingConfig(RANDOM, fraction=1.0)

    def test_labels(self):
        assert SamplingConfig(DIVISION, k=10).label == "d10"
        assert SamplingConfig(LOGARITHMIC, k=2).label == "log2"
        assert SamplingConfig(UNIQUE).label == "unique"
        assert SamplingConfig(RANDOM, fraction=0.5).label == "random:0.5"
        assert SamplingConfig(RANDOM, fraction=1).label == "random:1"
        assert SamplingConfig(RANDOM, fraction=0.03).label == "random:0.03"

    def test_distinct_fractions_have_distinct_labels(self):
        # six significant digits would give both random:0.123457
        first, second = (parse_method_token(t) for t in ("random:0.1234567", "random:0.1234568"))
        assert (first.label, second.label) == ("random:0.1234567", "random:0.1234568")
        config = config_from_dict({"grid": ["random:0.1234567", "random:0.1234568"]})
        assert [entry.fraction for entry in config.grid] == [0.1234567, 0.1234568]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_label_reads_back_as_its_fraction(self, fraction):
        config = SamplingConfig(RANDOM, fraction=fraction)
        assert parse_method_token(config.label).fraction == fraction

    def test_parse_method_token(self):
        assert parse_method_token("d10").method == DIVISION
        assert parse_method_token("d10").k == 10
        assert parse_method_token("log2").k == 2
        assert parse_method_token("unique").method == UNIQUE
        assert parse_method_token("random:0.25").fraction == 0.25
        assert parse_method_token("random").fraction == 1.0
        for bad in (
            "bogus7", "random:abc", "random:", "d\u00b2", "log\u00b2", "d\u0663",
            "random:\u0660.\u0665",
        ):
            with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
                parse_method_token(bad)


# --- rank_traces ------------------------------------------------------------

class TestRankTraces:
    def test_representative_prefers_modal_heavy_trace(self, resource_log):
        # case 0 has three r1 observations, case 1 has one
        index = build_variant_index(resource_log, ["resource"])
        variant = index.variants[0]
        ranked = rank_traces(variant, index, REPRESENTATIVE)
        assert ranked == ["c000000", "c000001"]

    def test_representative_ties_break_by_case_id(self, tiny_log):
        # no attributes -> build index with one constant attribute
        def attrs(case_n, event_idx):
            return {"resource": "r1"}

        log = log_from_variants(
            [(("a", "b"), 3)], event_attrs=attrs, schema=resource_schema()
        )
        index = build_variant_index(log, ["resource"])
        ranked = rank_traces(index.variants[0], index, REPRESENTATIVE)
        assert ranked == sorted(ranked)

    def test_representative_without_attributes_is_an_error(self, tiny_log):
        index = build_variant_index(tiny_log, [])
        with pytest.raises(ConfigurationError):
            rank_traces(index.variants[0], index, REPRESENTATIVE)

    def test_unknown_sorting_is_refused(self, tiny_log):
        index = build_variant_index(tiny_log)
        with pytest.raises(ConfigurationError, match="unknown sorting strategy 'bogus'"):
            rank_traces(index.variants[0], index, "bogus")

    def test_arrival_time_directions(self, tiny_log):
        # helpers assign strictly increasing start times by case number
        index = build_variant_index(tiny_log)
        variant = next(v for v in index.variants if v.frequency == 2)
        oldest = rank_traces(variant, index, OLDEST_FIRST)
        newest = rank_traces(variant, index, NEWEST_FIRST)
        assert oldest == sorted(variant.member_case_ids)
        assert newest == list(reversed(oldest))

    def test_random_is_deterministic_per_seed(self, skewed):
        index = build_variant_index(skewed)
        variant = index.variants[0]
        first = rank_traces(variant, index, RANDOM_ORDER, seed=7)
        second = rank_traces(variant, index, RANDOM_ORDER, seed=7)
        other = rank_traces(variant, index, RANDOM_ORDER, seed=8)
        assert first == second
        assert sorted(first) == sorted(variant.member_case_ids)
        assert first != other  # 900 cases make a collision implausible

    def test_ranking_is_a_permutation(self, skewed):
        index = build_variant_index(skewed)
        for sorting in (OLDEST_FIRST, NEWEST_FIRST, RANDOM_ORDER):
            for variant in index.variants:
                ranked = rank_traces(variant, index, sorting, seed=1)
                assert sorted(ranked) == sorted(variant.member_case_ids)


def oracle_representative_score(case_id, index, variant):
    """Reference score: the case's observations walked against its variant's modal sets."""
    log = index.source_log
    modal_values = index.modal_values[variant.activities]
    score = 0
    for name in index.attributes:
        modal = modal_values[name]
        if not modal:
            continue
        spec = log.attribute_schema[name]
        if spec.scope == CASE_SCOPE:
            if log.cases[case_id].attributes.get(name) in modal:
                score += 1
        else:
            for value in log.cases[case_id].event_attributes.get(name, ()):
                if value in modal:
                    score += 1
    return score


ATTRIBUTE_SCHEMA = {
    "region": AttributeSpec(CATEGORICAL, CASE_SCOPE),
    "resource": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
    "cost": AttributeSpec(NUMERIC, EVENT_SCOPE),
}


@st.composite
def attributed_logs(draw):
    """Small logs with a case-scoped and two event-scoped attributes, values often missing.

    Value domains are tiny so scores tie often; ``cost`` mixes 1 and 1.0,
    which are one value to a set.
    """
    variants = st.sampled_from([("a", "b"), ("a", "c"), ("b",)])
    traces = draw(st.lists(variants, min_size=1, max_size=12))
    cases, case_attributes = {}, {}
    for n, trace in enumerate(traces):
        cid = f"c{n:02d}"
        events = cases[cid] = []
        region = draw(st.sampled_from(["north", "south", None]))
        if region is not None:
            case_attributes[cid] = {"region": region}
        for j, activity in enumerate(trace):
            attrs = {}
            resource = draw(st.sampled_from(["r1", "r2", "r3", None]))
            cost = draw(st.sampled_from([1, 1.0, 2, None]))
            if resource is not None:
                attrs["resource"] = resource
            if cost is not None:
                attrs["cost"] = cost
            events.append(Event(activity, T0 + timedelta(hours=n, minutes=j), attrs))
    names = draw(st.lists(st.sampled_from(sorted(ATTRIBUTE_SCHEMA)), min_size=1, max_size=4))
    return build_log(cases, case_attributes, ATTRIBUTE_SCHEMA), names


@settings(max_examples=150, deadline=None)
@given(attributed_logs())
def test_representative_ranking_matches_per_case_oracle(case):
    """Case and event scope, missing values, ties and an attribute named twice."""
    log, names = case
    index = build_variant_index(log, names)
    for variant in index.variants:
        expected = sorted(
            variant.member_case_ids,
            key=lambda cid: (-oracle_representative_score(cid, index, variant), cid),
        )
        assert rank_traces(variant, index, REPRESENTATIVE) == expected


# --- sample -----------------------------------------------------------------

def run_sample(log, config):
    index = build_variant_index(log)
    return sample(log, index, config)


class TestSample:
    def test_division_k10_on_skewed(self, skewed):
        sampled, report = run_sample(
            skewed, SamplingConfig(DIVISION, k=10, sorting=RANDOM_ORDER)
        )
        expected = oracle_kept([900, 90, 10], DIVISION, 10)
        assert report.sampled_cases == sum(expected) == 100
        assert report.reduction_rate == 10.0
        assert report.variant_preserving
        kept = sorted(kept for _, kept, _ in report.per_variant)
        assert kept == sorted(expected)

    def test_unique_on_skewed(self, skewed):
        sampled, report = run_sample(skewed, SamplingConfig(UNIQUE, sorting=RANDOM_ORDER))
        assert report.sampled_cases == 3
        assert report.variant_preserving
        assert report.reduction_rate == pytest.approx(1000 / 3, abs=0.01)

    def test_log_k10_on_skewed(self, skewed):
        sampled, report = run_sample(
            skewed, SamplingConfig(LOGARITHMIC, k=10, sorting=RANDOM_ORDER)
        )
        expected = oracle_kept([900, 90, 10], LOGARITHMIC, 10)
        assert sorted(k for _, k, _ in report.per_variant) == sorted(expected)
        assert report.sampled_cases == 4
        assert report.reduction_rate == 250.0
        assert report.variant_preserving

    def test_log_drops_variant_below_k(self):
        log = log_from_variants(
            [(("a", "b", "c"), 900), (("a", "c"), 90), (("b", "c"), 10), (("c",), 9)]
        )
        sampled, report = run_sample(
            log, SamplingConfig(LOGARITHMIC, k=10, sorting=RANDOM_ORDER)
        )
        assert not report.variant_preserving
        assert report.sampled_variants == 3
        dropped = [kept for _, kept, total in report.per_variant if total == 9]
        assert dropped == [0]

    def test_sample_is_sub_log(self, skewed):
        sampled, _ = run_sample(skewed, SamplingConfig(DIVISION, k=10, sorting=RANDOM_ORDER))
        for cid, case in sampled.cases.items():
            original = skewed.cases[cid]
            assert case.trace == original.trace
            assert case.timestamps == original.timestamps
            assert case.event_attributes == original.event_attributes
            assert case.attributes == original.attributes

    def test_random_selection_size_and_determinism(self, skewed):
        cfg = SamplingConfig(RANDOM, fraction=0.25, seed=3)
        first, report = run_sample(skewed, cfg)
        second, _ = run_sample(skewed, cfg)
        assert report.sampled_cases == math.ceil(0.25 * 1000)
        assert set(first.cases) == set(second.cases)

    def test_random_fraction_one_keeps_everything(self, skewed):
        _, report = run_sample(skewed, SamplingConfig(RANDOM, fraction=1.0))
        assert report.sampled_cases == 1000
        assert report.reduction_rate == 1.0
        assert report.variant_preserving

    @pytest.mark.parametrize(
        "fraction, cases, kept", [(0.07, 100, 7), (0.14, 50, 7), (0.55, 180, 99)]
    )
    def test_random_keeps_ceil_of_the_fraction_of_cases(self, fraction, cases, kept):
        # each product lands just above a whole number in floats, as 0.07 * 100 == 7.000000000000001
        log = log_from_variants([(("a",), cases)])
        _, report = run_sample(log, SamplingConfig(RANDOM, fraction=fraction))
        assert report.sampled_cases == kept

    def test_empty_sample_raises_with_config_label(self):
        log = log_from_variants([(("a",), 5), (("b",), 3)])
        with pytest.raises(EmptySampleError, match="log10"):
            run_sample(log, SamplingConfig(LOGARITHMIC, k=10, sorting=RANDOM_ORDER))

    def test_index_of_another_log_is_rejected(self, skewed):
        other = log_from_variants([(("a",), 2)])
        with pytest.raises(ConfigurationError, match="different log"):
            sample(skewed, build_variant_index(other), SamplingConfig(UNIQUE))

    def test_representative_sampling_keeps_top_scored(self, resource_log):
        index = build_variant_index(resource_log, ["resource"])
        sampled, report = sample(
            resource_log, index, SamplingConfig(UNIQUE, sorting=REPRESENTATIVE)
        )
        assert list(sampled.cases) == ["c000000"]

    def test_deterministic_for_same_config(self, skewed):
        cfg = SamplingConfig(DIVISION, k=3, sorting=RANDOM_ORDER, seed=11)
        a, _ = run_sample(skewed, cfg)
        b, _ = run_sample(skewed, cfg)
        assert list(a.cases) == list(b.cases)


# --- properties over random logs --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10))
def test_division_and_unique_preserve_variants(seed, k):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=6, max_freq=20))
    original = trace_counts(log).keys()
    for cfg in (
        SamplingConfig(DIVISION, k=k, sorting=RANDOM_ORDER, seed=seed),
        SamplingConfig(UNIQUE, sorting=RANDOM_ORDER, seed=seed),
    ):
        sampled, report = run_sample(log, cfg)
        assert trace_counts(sampled).keys() == original
        assert report.variant_preserving


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10))
def test_log_keeps_variant_iff_frequency_reaches_k(seed, k):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=6, max_freq=20))
    cfg = SamplingConfig(LOGARITHMIC, k=k, sorting=RANDOM_ORDER, seed=seed)
    try:
        sampled, report = run_sample(log, cfg)
    except EmptySampleError:
        index = build_variant_index(log)
        assert all(v.frequency < k for v in index.variants)
        return
    kept_variants = trace_counts(sampled).keys()
    index = build_variant_index(log)
    for variant in index.variants:
        assert (variant.activities in kept_variants) == (variant.frequency >= k)


SORTINGS = (REPRESENTATIVE, OLDEST_FIRST, NEWEST_FIRST, RANDOM_ORDER)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sample_matches_oracle_per_variant(seed):
    rnd = Random(seed)
    log = attributed_log(rnd, max_variants=6, max_freq=20)
    index = build_variant_index(log)
    freqs = [v.frequency for v in index.variants]
    k = rnd.choice([2, 3, 5, 10])
    fraction = rnd.choice([0.1, 0.3, 0.5, 1.0])
    for method in (UNIQUE, DIVISION, LOGARITHMIC, RANDOM):
        for sorting in SORTINGS:
            cfg = SamplingConfig(
                method,
                k=k if method in (DIVISION, LOGARITHMIC) else None,
                fraction=fraction if method == RANDOM else None,
                sorting=sorting,
                seed=seed,
            )
            try:
                sampled, report = sample(log, index, cfg)
            except EmptySampleError:
                assert method != RANDOM and sum(oracle_kept(freqs, method, k)) == 0
                continue
            kept = [kept for _, kept, _ in report.per_variant]
            if method != RANDOM:
                assert kept == oracle_kept(freqs, method, k)
            held = set(sampled.cases)
            assert kept == [len(held & set(v.member_case_ids)) for v in index.variants]
            assert [(seq, total) for seq, _, total in report.per_variant] == [
                (v.activities, v.frequency) for v in index.variants
            ]
            assert report.sampled_variants == sum(n > 0 for n in kept)
            assert report.variant_preserving == (report.sampled_variants == len(index.variants))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["unique", "d2", "d3", "log2", "log3"]),
)
def test_sorting_and_seed_choose_cases_not_traces(seed, token):
    """Per-variant counts fix the kept traces: sorting and seed only pick which members."""
    rnd = Random(seed)
    log = attributed_log(rnd, max_variants=6, max_freq=20)
    index = build_variant_index(log)
    outcomes = []
    for sorting in SORTINGS:
        for sample_seed in (seed, seed + 1):
            try:
                sampled, report = sample(log, index, parse_method_token(token, sorting, sample_seed))
            except EmptySampleError:
                outcomes.append(EmptySampleError)
                continue
            outcomes.append((trace_counts(sampled), report))
    assert all(outcome == outcomes[0] for outcome in outcomes)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_warm_index_samples_as_a_fresh_one(seed):
    """A ranking the index kept gives the sub-log and report a fresh index gives."""
    log = attributed_log(Random(seed), max_variants=6, max_freq=20)
    configs = [
        parse_method_token(token, sorting, sample_seed)
        for token in ("unique", "d2", "d3", "log2", "log3", "random:0.4")
        for sorting in SORTINGS
        for sample_seed in ((seed, seed + 1) if sorting == RANDOM_ORDER else (seed,))
    ]

    def outcome(index, config):
        try:
            sampled, report = sample(log, index, config)
        except EmptySampleError:
            return EmptySampleError
        return list(sampled.cases), report

    warm = build_variant_index(log)
    first = [outcome(warm, config) for config in configs]
    assert warm.rankings  # the samples above ranked through it
    for config, before in zip(reversed(configs), reversed(first)):
        fresh = outcome(build_variant_index(log), config)
        assert outcome(warm, config) == before == fresh


def test_indexes_of_one_log_stay_equal_after_ranking(skewed):
    index, other = build_variant_index(skewed), build_variant_index(skewed)
    sample(skewed, index, SamplingConfig(DIVISION, k=10, sorting=RANDOM_ORDER, seed=3))
    assert len(index.rankings[RANDOM_ORDER][1]) == len(index.variants) and not other.rankings
    assert index == other
    assert repr(index) == repr(other)


def test_rankings_are_no_constructor_parameter(skewed):
    index = build_variant_index(skewed)
    rank_variants(index, NEWEST_FIRST)
    with pytest.raises(TypeError):
        VariantIndex(**{f.name: getattr(index, f.name) for f in dataclasses.fields(index)})
    # a copy starts without the rankings, even of another log
    assert not dataclasses.replace(index).rankings
    assert not dataclasses.replace(index, source_log=log_from_variants([(("a",), 1)])).rankings


def test_index_keeps_each_sortings_rankings_and_one_random_seeds(skewed):
    index = build_variant_index(skewed)
    newest = rank_variants(index, NEWEST_FIRST)
    for seed in range(20):
        sample(skewed, index, SamplingConfig(DIVISION, k=3, sorting=RANDOM_ORDER, seed=seed))
    assert index.rankings.keys() == {NEWEST_FIRST, RANDOM_ORDER}
    assert index.rankings[RANDOM_ORDER][0] == 19
    assert rank_variants(index, NEWEST_FIRST) is newest
    assert rank_variants(index, NEWEST_FIRST, seed=5) is newest  # only random reads the seed
    assert rank_variants(index, RANDOM_ORDER, seed=4) == [
        rank_traces(variant, index, RANDOM_ORDER, 4) for variant in index.variants
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_size_monotone_in_k(seed):
    rnd = Random(seed)
    freqs = [f for _, f in random_variant_freqs(rnd, max_variants=10, max_freq=50)]
    for method in (DIVISION, LOGARITHMIC):
        sizes = []
        for k in (2, 3, 5, 10):
            cfg = SamplingConfig(method, k=k)
            sizes.append(sum(sample_count(cfg, f) for f in freqs))
        assert sizes == sorted(sizes, reverse=True)
