"""One measured pass of one workload, in a fresh interpreter.

Usage (normally started by run.py): ``python3 perfbench/worker.py SPEC_JSON``.
``PYTHONPATH`` must point at the checkout's ``src`` so the code under test
is the one imported.

The spec names the workload kind (``bench`` or ``sample``), the generated
input, an output directory, the seed and, for ``bench``, the ``--sort``
token of ``logsample bench``, which the pass runs in-process through the
CLI. ``t0`` is the parent's ``time.monotonic()`` taken just before this
process was started; set-up time is measured from it to the moment
``logsample`` and ``logsample.cli`` are imported and the workload's
configuration is built. The last line of standard output is one
JSON object with the timings, counts, output checks and, when traced, the
per-layer numbers. The timings include ``reference_s``, the time of a fixed
pure-Python loop run just before and just after the workload (the mean of
the two), which tells how fast the host ran during this pass.
"""

import contextlib
import csv
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import logsample
from logsample import cli
from logsample import experiment as exp
from logsample import features as feat
from logsample import log_model, sampling

from tracing import Tracer

SAMPLE_TOKENS = ("d10", "d2", "log2", "unique")
SAMPLE_SORTINGS = ("representative", "newest-first")
MAX_ORDER = 5  # the predictor's default suffix length, which test rows are grouped by
# Public names the CLI and the sample-export pass call, with the span each gets when traced.
ENTRY_POINTS = {
    "load_log": "log_model.load",
    "write_csv": "log_model.write_csv",
    "build_variant_index": "variants.build_index",
    "sample": "sampling.sample",
    "extract_features": "features.extract",
    "export_features": "features.export",
}
EXPERIMENT_METRICS = (
    "experiment.cells",
    "experiment.fe_speedup_mean",
    "experiment.train_speedup_mean",
    "experiment.baseline_accuracy",
    "experiment.mean_rel_accuracy",
)


def build_config(spec: dict):
    if spec["kind"] == "bench":
        return ["bench", spec["input"], "--folds", "3", "--repeats", "1",
                "--sort", spec["sorting"], "--seed", str(spec["seed"])]
    return [
        (token, sorting, logsample.parse_method_token(token, sorting=sorting, seed=spec["seed"]))
        for sorting in SAMPLE_SORTINGS
        for token in SAMPLE_TOKENS
    ]


class Layers:
    """Installs the tracer's wrappers and turns its records into per-layer numbers."""

    def __init__(self, tracer: Tracer, errors: list[str]):
        self.tracer = tracer
        self.errors = errors
        self.items: dict[str, int] = dict.fromkeys(
            ("load_events", "write_rows", "kept_cases", "extract_rows", "encode_rows",
             "train_rows", "evaluate_rows"), 0)
        self.test_row_sets: dict[int, list] = {}

    def _add(self, key: str, n: int) -> None:
        self.items[key] += n

    def _extracted(self, args, rows) -> None:
        log = args[0]
        with_end = args[1] if len(args) > 1 else True
        expected = log.num_events - (0 if with_end else log.num_cases)
        if len(rows) != expected:
            self.errors.append(
                f"extract_features returned {len(rows)} rows, expected {expected} "
                "(one per event after the first of each case, plus one end row per case)"
            )
        self._add("extract_rows", len(rows))

    def _evaluated(self, args, result) -> None:
        rows = args[1]
        self.test_row_sets.setdefault(id(rows), rows)
        self._add("evaluate_rows", result.n)

    def install(self) -> None:
        """Patch the package where its functions are consumed."""
        t = self.tracer
        span = t.span
        hooks = {
            "log_model.load": lambda a, r: self._add("load_events", r.num_events),
            "log_model.write_csv": lambda a, r: self._add("write_rows", a[0].num_events),
            "features.extract": self._extracted,
            "features.encode": lambda a, r: self._add("encode_rows", len(r)),
            "predictor.train": lambda a, r: self._add("train_rows", len(a[0])),
            "metrics.evaluate": self._evaluated,
            "sampling.sample": lambda a, r: self._add("kept_cases", r[0].num_cases),
        }
        consumed = {
            exp: {
                "run_experiment": "experiment.run",
                "extract_features": "features.extract",
                "encode": "features.encode",
                "train": "predictor.train",
                "evaluate": "metrics.evaluate",
                "sample": "sampling.sample",
                "build_variant_index": "variants.build_index",
                "subset_log": "log_model.subset_log",
            },
            sampling: {"subset_log": "log_model.subset_log"},
            feat: {"encode": "features.encode"},
            cli: ENTRY_POINTS,
            logsample: ENTRY_POINTS,
        }
        for module, names in consumed.items():
            for attr, name in names.items():
                t.patch(module, attr, lambda fn, n=name: span(n, fn, hooks.get(n)))
        t.patch(sampling, "rank_traces", lambda fn: t.counter("rank_traces", fn, timed=True))
        t.patch(log_model.EventLog, "trace", lambda fn: t.counter("trace", fn))

    def metrics(self) -> dict:
        t = self.tracer
        it = self.items

        def per_row_us(seconds: float, rows: int) -> float:
            return seconds / rows * 1e6 if rows else 0.0

        groups = rows = 0
        for test_rows in self.test_row_sets.values():
            rows += len(test_rows)
            groups += len({(r.prefix[-MAX_ORDER:], r.target) for r in test_rows})
        encode_s = t.total("features.encode")
        evaluate_s = t.total("metrics.evaluate")
        return {
            "log_model.load_s": t.total("log_model.load"),
            "log_model.load_events": it["load_events"],
            "log_model.write_csv_s": t.total("log_model.write_csv"),
            "log_model.write_rows": it["write_rows"],
            "log_model.subset_log_s": t.total("log_model.subset_log"),
            "log_model.subset_log_calls": t.calls("log_model.subset_log"),
            "log_model.trace_calls": t.counts["trace"],
            "variants.build_index_s": t.total("variants.build_index"),
            "sampling.sample_s": t.total("sampling.sample"),
            "sampling.sample_calls": t.calls("sampling.sample"),
            "sampling.rank_traces_calls": t.counts["rank_traces"],
            "sampling.rank_traces_s": t.seconds["rank_traces"],
            "sampling.kept_cases": it["kept_cases"],
            "features.extract_s": t.total("features.extract"),
            "features.extract_rows": it["extract_rows"],
            "features.encode_s": encode_s,
            "features.encode_rows": it["encode_rows"],
            "features.encode_us_per_row": per_row_us(encode_s, it["encode_rows"]),
            "features.export_s": t.total("features.export"),
            "predictor.train_s": t.total("predictor.train"),
            "predictor.train_rows": it["train_rows"],
            "metrics.evaluate_s": evaluate_s,
            "metrics.evaluate_rows": it["evaluate_rows"],
            "metrics.evaluate_us_per_row": per_row_us(evaluate_s, it["evaluate_rows"]),
            "metrics.rows_per_group": rows / groups if groups else 0.0,
            "experiment.run_s": t.total("experiment.run"),
            "experiment.self_s": t.self_time("experiment.run"),
        }


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now, a probe of the host's current speed.

    Garbage collection is off while it runs, so the program's heap cannot
    change the probe.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[tuple[str, int], int] = {}
        rows = []
        for i in range(40000):
            key = ("A%02d" % (i % 23), i % 37)
            counts[key] = counts.get(key, 0) + 1
            rows.append((key, i))
        rows.sort(key=lambda r: (r[0][1], r[1]))
        ",".join(name for name, _ in counts)
        return time.perf_counter() - start
    finally:
        gc.enable()


def csv_data_rows(path: Path) -> int:
    with path.open(newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def run_bench(spec: dict, argv: list[str], errors: list[str]) -> dict:
    """``logsample bench``; the aggregate table it prints goes to aggregates.csv."""
    out = Path(spec["out"])
    core = out / "report.csv"
    aggregates = out / "aggregates.csv"

    start = time.perf_counter()
    with aggregates.open("w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        cli.cli([*argv, "-o", str(core)], standalone_mode=False)
    wall = time.perf_counter() - start

    with core.open(newline="", encoding="utf-8") as fh:
        cells = list(csv.DictReader(fh))
    failed = 0
    for cell in cells:
        where = f"report row {cell['strategy']} fold {cell['fold']}"
        if cell["ok"] != "True":
            failed += 1
            continue
        for col in ("accuracy_full", "accuracy_sampled"):
            if not 0.0 <= float(cell[col]) <= 1.0:
                errors.append(f"{where}: {col} {cell[col]} is outside [0, 1]")
        if cell["strategy"] == "baseline" and float(cell["rel_accuracy"]) != 1.0:
            errors.append(f"{where}: baseline rel_accuracy is {cell['rel_accuracy']}, not 1.0")
    if not any(c["strategy"] == "baseline" for c in cells):
        errors.append("the report has no baseline rows")

    with aggregates.open(newline="", encoding="utf-8") as fh:
        by_strategy = {row["strategy"]: row for row in csv.DictReader(fh)}
    baseline = by_strategy.pop("baseline")
    ran = [row for row in by_strategy.values() if int(row["runs"])]

    def mean_of(col: str) -> float:
        return statistics.fmean(float(row[col]) for row in ran) if ran else 0.0

    return {
        "wall_s": wall,
        "attempted": len(cells),
        "failed": failed,
        "core_sha256": hashlib.sha256(core.read_bytes()).hexdigest(),
        "experiment": {
            "experiment.cells": len(cells),
            "experiment.fe_speedup_mean": mean_of("fe_speedup"),
            "experiment.train_speedup_mean": mean_of("train_speedup"),
            "experiment.baseline_accuracy": float(baseline["accuracy"]),
            "experiment.mean_rel_accuracy": mean_of("rel_accuracy"),
        },
    }


def run_sample(spec: dict, configs, errors: list[str]) -> dict:
    out = Path(spec["out"])
    features_path = out / "features.csv"

    start = time.perf_counter()
    log = logsample.load_log(spec["input"])
    index = logsample.build_variant_index(log)
    written = []
    failed = 0
    d10 = None
    for token, sorting, config in configs:
        try:
            sampled, _ = logsample.sample(log, index, config)
        except logsample.EmptySampleError:
            failed += 1
            continue
        path = out / f"{token}-{sorting}.csv"
        logsample.write_csv(sampled, path)
        written.append((config, sampled, path))
        if token == "d10" and sorting == "representative":
            d10 = sampled
    if d10 is None:
        raise RuntimeError("the d10 representative sample failed; nothing to export")
    rows = logsample.extract_features(d10)
    alphabet = sorted(d10.activity_alphabet)
    window = logsample.default_window([len(d10.trace(cid)) for cid in d10.cases])
    logsample.export_features(rows, alphabet, window, features_path)
    wall = time.perf_counter() - start

    for config, sampled, path in written:
        expected = sum(logsample.sample_count(config, v.frequency) for v in index.variants)
        if sampled.num_cases != expected:
            errors.append(
                f"{path.name}: kept {sampled.num_cases} cases, the rule gives {expected}"
            )
        on_disk = csv_data_rows(path)
        if on_disk != sampled.num_events:
            errors.append(f"{path.name}: {on_disk} rows written for {sampled.num_events} events")
    if len(rows) != d10.num_events:
        errors.append(
            f"extract_features on the d10 sample gave {len(rows)} rows "
            f"for {d10.num_events} events"
        )
    with features_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        exported = sum(1 for _ in reader)
    if width != window * (len(alphabet) + 1) + 1:
        errors.append(
            f"export header has {width} columns, expected W*(|A|+1)+1 = "
            f"{window * (len(alphabet) + 1) + 1}"
        )
    if exported != len(rows):
        errors.append(f"export has {exported} rows for {len(rows)} feature rows")

    return {
        "wall_s": wall,
        "attempted": len(configs),
        "failed": failed,
        "core_sha256": None,
        "experiment": dict.fromkeys(EXPERIMENT_METRICS, 0),
    }


def workload_properties(log) -> tuple[dict, list[str]]:
    """Input properties the layers' costs depend on, from the untraced package."""
    errors = []
    index = logsample.build_variant_index(log, [])
    lengths = [len(log.trace(cid)) for cid in log.cases]
    rows = logsample.extract_features(log)
    if len(rows) != log.num_events:
        errors.append(
            f"extract_features on the input gave {len(rows)} rows for {log.num_events} events"
        )
    groups = {(r.prefix[-MAX_ORDER:], r.target) for r in rows}
    singletons = sum(1 for v in index.variants if v.frequency == 1)
    return {
        "workload.cases": log.num_cases,
        "workload.events": log.num_events,
        "workload.mean_trace_len": statistics.fmean(lengths),
        "workload.window": logsample.default_window(lengths),
        "workload.rows_per_group": len(rows) / len(groups),
        "variants.variants": len(index.variants),
        "variants.singleton_share": singletons / len(index.variants),
    }, errors


def main() -> None:
    spec = json.loads(sys.argv[1])
    config = build_config(spec)
    setup_s = time.monotonic() - spec["t0"]
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return

    Path(spec["out"]).mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    load_peak_mb = None
    if spec.get("memtrace"):
        tracemalloc.start()
        logsample.load_log(spec["input"])
        load_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        gc.collect()

    tracer = layers = None
    if spec["trace"]:
        tracer = Tracer()
        layers = Layers(tracer, errors)
        layers.install()

    run = run_bench if spec["kind"] == "bench" else run_sample
    reference_before = reference_s()
    try:
        result = run(spec, config, errors)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = (reference_before + reference_s()) / 2

    out = {
        "setup_s": setup_s,
        "wall_s": result["wall_s"],
        "reference_s": reference,
        "peak_rss_mb": peak_rss_mb,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "core_sha256": result["core_sha256"],
        "errors": errors,
        "layers": None,
        "properties": None,
    }
    if spec.get("properties"):
        # an untimed load after the pass: the bench pass's log stays inside the CLI
        out["properties"], prop_errors = workload_properties(logsample.load_log(spec["input"]))
        errors.extend(prop_errors)
    if layers is not None:
        tracer.write_jsonl(Path(spec["out"]) / "spans.jsonl")
        out["layers"] = {**layers.metrics(), **result["experiment"]}
        if load_peak_mb is not None:
            out["layers"]["log_model.load_peak_mb"] = load_peak_mb
    print(json.dumps(out))


if __name__ == "__main__":
    main()
