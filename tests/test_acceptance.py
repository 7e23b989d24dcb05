"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line (visible even under pytest capture).

Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import os
import sys
import time
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from logsample.cli import cli
from logsample.errors import EmptySampleError
from logsample.experiment import ExperimentConfig, run_experiment
from logsample.features import extract_features
from logsample.log_model import parse_xes, write_csv
from logsample.sampling import (
    DIVISION,
    LOGARITHMIC,
    RANDOM_ORDER,
    UNIQUE,
    SamplingConfig,
    parse_method_token,
    sample,
    sample_count,
)
from logsample.variants import build_variant_index

from helpers import log_from_variants, random_variant_freqs, skewed_log, trace_counts, trend_log

K_GRID = (2, 3, 5, 10)


_terminal = None


@pytest.fixture(scope="module", autouse=True)
def _capture_terminal(request):
    global _terminal
    _terminal = request.config.pluginmanager.get_plugin("terminalreporter")


def announce(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {tag}"
    if detail:
        line += f" ({detail})"
    if _terminal is not None:
        _terminal.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)


def check(tag: str, ok: bool, detail: str = "") -> None:
    announce(tag, ok, detail)
    assert ok, f"{tag}: {detail}"


# --- independent per-variant oracle (same routes as tests/test_sampling.py) --

def oracle_division(freq: int, k: int) -> int:
    return math.ceil(freq / k)


def oracle_log_floor(freq: int, k: int) -> int:
    exponent, remaining = 0, freq
    while remaining >= k:
        remaining //= k
        exponent += 1
    return min(exponent, freq)


# --- shared expensive runs ----------------------------------------------------

@pytest.fixture(scope="module")
def property_run():
    """1000 random logs sampled with unique / division / logarithmic.

    Records violations for variant preservation (A2), sub-log integrity (A3),
    and size monotonicity in k (A4).
    """
    rnd = Random(20260809)
    preservation, integrity, monotonicity = [], [], []
    started = time.perf_counter()

    for i in range(1000):
        freqs = random_variant_freqs(rnd)
        log = log_from_variants(freqs)
        index = build_variant_index(log)
        original_variants = {v.activities for v in index.variants}
        freq_of = {v.activities: v.frequency for v in index.variants}
        k = rnd.choice(K_GRID)

        configs = (
            SamplingConfig(UNIQUE, sorting=RANDOM_ORDER, seed=i),
            SamplingConfig(DIVISION, k=k, sorting=RANDOM_ORDER, seed=i),
            SamplingConfig(LOGARITHMIC, k=k, sorting=RANDOM_ORDER, seed=i),
        )
        for cfg in configs:
            try:
                sampled, report = sample(log, index, cfg)
            except EmptySampleError:
                if cfg.method != LOGARITHMIC or any(f >= k for f in freq_of.values()):
                    preservation.append((i, cfg.label, "unexpected empty sample"))
                continue

            kept_variants = trace_counts(sampled).keys()
            if cfg.method in (UNIQUE, DIVISION):
                if kept_variants != original_variants or not report.variant_preserving:
                    preservation.append((i, cfg.label, "variant set changed"))
            else:
                for seq, freq in freq_of.items():
                    if (seq in kept_variants) != (freq >= k):
                        preservation.append((i, cfg.label, f"variant {seq} freq {freq}"))

            if not set(sampled.cases) <= set(log.cases):
                integrity.append((i, cfg.label, "case ids not a subset"))
            for cid, case in sampled.cases.items():
                # every column of the case: id, trace, timestamps, attributes of both scopes
                if case != log.cases[cid]:
                    integrity.append((i, cfg.label, f"case {cid} mutated"))

        # closed-form sizes over the k grid, checked per log
        for method in (DIVISION, LOGARITHMIC):
            sizes = [
                sum(sample_count(SamplingConfig(method, k=kk), f) for f in freq_of.values())
                for kk in K_GRID
            ]
            if sizes != sorted(sizes, reverse=True):
                monotonicity.append((i, method, sizes))
            rates = [log.num_cases / s for s in sizes if s > 0]
            if rates != sorted(rates):
                monotonicity.append((i, method, rates))

        # spot-check a slice of logs through the full sampling pipeline
        if i % 25 == 0:
            for method in (DIVISION, LOGARITHMIC):
                observed = []
                for kk in K_GRID:
                    try:
                        _, rep = sample(
                            log, index,
                            SamplingConfig(method, k=kk, sorting=RANDOM_ORDER, seed=i),
                        )
                        observed.append(rep.sampled_cases)
                    except EmptySampleError:
                        observed.append(0)
                nonzero = [s for s in observed if s > 0]
                if nonzero != sorted(nonzero, reverse=True):
                    monotonicity.append((i, f"{method}-sampled", observed))

    return {
        "elapsed": time.perf_counter() - started,
        "preservation": preservation,
        "integrity": integrity,
        "monotonicity": monotonicity,
    }


@pytest.fixture(scope="module")
def trend_run():
    """5x5 cross-validated benchmark on the dominant-variant trend log."""
    grid = tuple(
        parse_method_token(token, sorting=RANDOM_ORDER)
        for token in ("d2", "d10", "log2", "unique")
    )
    config = ExperimentConfig(folds=5, repeats=5, grid=grid, seed=123)
    log = trend_log()
    started = time.perf_counter()
    report = run_experiment(log, config)
    return {"elapsed": time.perf_counter() - started, "report": report}


# --- criteria -----------------------------------------------------------------

def test_a01_exact_sample_sizes_match_oracle():
    started = time.perf_counter()
    log = skewed_log()
    index = build_variant_index(log)
    freqs = [v.frequency for v in index.variants]
    assert sorted(freqs, reverse=True) == [900, 90, 10]

    _, div_report = sample(log, index, SamplingConfig(DIVISION, k=10, sorting=RANDOM_ORDER))
    _, uni_report = sample(log, index, SamplingConfig(UNIQUE, sorting=RANDOM_ORDER))
    _, log_report = sample(log, index, SamplingConfig(LOGARITHMIC, k=10, sorting=RANDOM_ORDER))

    ok = (
        div_report.sampled_cases == sum(oracle_division(f, 10) for f in freqs) == 100
        and div_report.reduction_rate == 10.0
        and uni_report.sampled_cases == 3
        and abs(uni_report.reduction_rate - 333.33) <= 0.01
        and log_report.sampled_cases == sum(oracle_log_floor(f, 10) for f in freqs) == 4
        and log_report.reduction_rate == 250.0
    )
    elapsed = time.perf_counter() - started
    check(
        "A01 exact per-variant sample sizes vs brute-force oracle",
        ok and elapsed < 1.0,
        f"div10={div_report.sampled_cases}, unique={uni_report.sampled_cases}, "
        f"log10={log_report.sampled_cases}, {elapsed:.2f}s",
    )


def test_a02_variant_preservation(property_run):
    violations = property_run["preservation"]
    elapsed = property_run["elapsed"]
    check(
        "A02 variant preservation on 1000 random logs",
        not violations and elapsed < 30.0,
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_a03_sub_log_integrity(property_run):
    violations = property_run["integrity"]
    check(
        "A03 sampled logs are bit-identical sub-logs",
        not violations,
        f"{len(violations)} violations",
    )


def test_a04_monotonicity_in_k(property_run):
    violations = property_run["monotonicity"]
    check(
        "A04 sampled size non-increasing / reduction non-decreasing in k",
        not violations,
        f"{len(violations)} violations",
    )


def test_a05_feature_counts():
    log = log_from_variants([(("a", "b", "c", "d"), 1)])
    rows = extract_features(log, include_end_marker=False)
    worked_example_ok = [(r.prefix, r.target) for r in rows] == [
        (("a",), "b"),
        (("a", "b"), "c"),
        (("a", "b", "c"), "d"),
    ]

    rnd = Random(42)
    count_ok = True
    for _ in range(100):
        log = log_from_variants(random_variant_freqs(rnd, max_variants=10, max_freq=10))
        lengths = [len(log.trace(cid)) for cid in log.cases]
        without = len(extract_features(log, include_end_marker=False))
        with_marker = len(extract_features(log, include_end_marker=True))
        if without != sum(n - 1 for n in lengths) or with_marker != sum(lengths):
            count_ok = False
            break

    check(
        "A05 feature row counts and the four-activity worked example",
        worked_example_ok and count_ok,
    )


def test_a06_identity_experiment():
    started = time.perf_counter()
    log = skewed_log()  # 1000 cases
    identity = parse_method_token("random:1.0")
    config = ExperimentConfig(folds=5, repeats=1, grid=(identity,), seed=7)
    report = run_experiment(log, config)
    strategy_rows = [r for r in report.rows if r.strategy == identity.label]
    ok = bool(strategy_rows) and all(
        r.ok and r.reduction_rate == 1.0 and r.rel_accuracy == 1.0 for r in strategy_rows
    )
    elapsed = time.perf_counter() - started
    check(
        "A06 identity configuration gives reduction 1.0 and relative accuracy 1.0",
        ok and elapsed < 10.0,
        f"{len(strategy_rows)} rows, {elapsed:.1f}s",
    )


def test_a07_accuracy_retention_trend(trend_run):
    report = trend_run["report"]
    elapsed = trend_run["elapsed"]
    d2 = report.aggregates["d2"]
    unique = report.aggregates["unique"]
    ok = (
        d2.runs == 25
        and unique.runs == 25
        and d2.rel_accuracy >= unique.rel_accuracy - 0.02
    )
    check(
        "A07 division retains accuracy at least as well as unique on a skewed log",
        ok and elapsed < 60.0,
        f"d2={d2.rel_accuracy:.4f}, unique={unique.rel_accuracy:.4f}, {elapsed:.1f}s",
    )


def test_a08_speedup_direction(trend_run):
    report = trend_run["report"]
    baseline = report.aggregates["baseline"]
    strong = [
        agg
        for name, agg in report.aggregates.items()
        if name != "baseline" and agg.runs and agg.reduction_rate > 2.0
    ]
    ok = bool(strong) and all(
        agg.fe_seconds < baseline.fe_seconds
        and agg.train_seconds < baseline.train_seconds
        and agg.fe_speedup > 1.0
        and agg.train_speedup > 1.0
        for agg in strong
    )
    detail = ", ".join(
        f"{agg.strategy}: fe x{agg.fe_speedup:.1f}, train x{agg.train_speedup:.1f}"
        for agg in strong
    )
    check("A08 every strongly reducing strategy extracts and trains faster", ok, detail)


def _find_dataset(names):
    roots = [Path(os.environ.get("LOGSAMPLE_DATA", "data")), Path("data")]
    for root in roots:
        for name in names:
            candidate = root / name
            if candidate.exists():
                return candidate
    return None


def test_a09_public_log_statistics():
    rtfm = _find_dataset(
        [
            "Road_Traffic_Fine_Management_Process.xes.gz",
            "Road_Traffic_Fine_Management_Process.xes",
            "rtfm.xes.gz",
            "rtfm.xes",
        ]
    )
    bpic = _find_dataset(
        [
            "BPI_Challenge_2012_W.xes.gz",
            "BPI_Challenge_2012_W.xes",
            "bpic2012w.xes.gz",
            "bpic2012w.xes",
        ]
    )
    if rtfm is None and bpic is None:
        announce("A09 public log statistics", True, "skipped: datasets not present")
        pytest.skip("public datasets not present; set LOGSAMPLE_DATA to enable")

    details = []
    ok = True
    if rtfm is not None:
        log = parse_xes(rtfm)
        variants = len(trace_counts(log))
        good = (
            log.num_cases == 150370
            and len(log.activity_alphabet) == 11
            and variants == 231
        )
        ok = ok and good
        details.append(f"rtfm: {log.num_cases} cases, {len(log.activity_alphabet)} acts, {variants} variants")
    if bpic is not None:
        log = parse_xes(bpic)
        variants = len(trace_counts(log))
        good = (
            log.num_cases == 9658
            and len(log.activity_alphabet) == 6
            and variants == 2643
        )
        ok = ok and good
        details.append(f"bpic-2012-w: {log.num_cases} cases, {len(log.activity_alphabet)} acts, {variants} variants")
    check("A09 public log statistics", ok, "; ".join(details))


def test_a10_bench_determinism(tmp_path):
    log = skewed_log()
    log_path = tmp_path / "fixture.csv"
    write_csv(log, log_path)

    runner = CliRunner()
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        result = runner.invoke(
            cli,
            [
                "bench", str(log_path),
                "--folds", "3", "--repeats", "2",
                "--grid", "d2,d3,log2,unique,random:0.5",
                "--seed", "42",
                "-o", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())

    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    check(
        "A10 identical seeds give byte-identical report CSVs",
        ok,
        f"{len(outputs[0])} bytes",
    )
