"""Benchmark driver for logsample: one workload (or all), one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bench-skewed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

The driver writes a seeded synthetic log into ``.perfbench_work/`` and then
starts one fresh interpreter per measured pass (``worker.py``), with
``PYTHONPATH`` set to this checkout's ``src``. Passes repeat until
``--seconds`` are used up (at least three). Every pass checks its outputs;
any failed check makes the run exit non-zero.

With ``--trace 0`` the final line reports the end-to-end metrics. The
timings ``wall_s``, ``events_per_s`` and ``setup_s`` are medians over the
passes of host-scaled times: each pass's time divided by the time a fixed
pure-Python loop took in the same interpreter (see ``worker.reference_s``),
times ``REFERENCE_S``. ``peak_rss_mb`` is the median over passes. With
``--trace 1`` untraced and traced passes alternate; the final line reports
the per-layer metrics of the fastest traced pass and ``trace.overhead_s``,
the traced ``wall_s`` minus the untraced one. A layer a workload never
calls reports 0. Each traced pass leaves its spans in
``spans.jsonl`` next to its outputs.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from synth import LogShape, write_log

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
# The reference loop's time on a quiet host (2-vCPU VM, Python 3.11). Host-scaled
# timings are in seconds at that speed.
REFERENCE_S = 0.034
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    kind: str  # "bench" (k-fold experiment) or "sample" (sample + export)
    shape: LogShape
    input_name: str
    sorting: str | None


# Case counts are scaled down from the ROADMAP's M log so that a pass takes
# about a second and many passes fit in one run; the shape parameters that make the workloads differ (skew,
# noise share, alphabet, trace lengths, attributes) are kept.
WORKLOADS = {
    # About 37 cases per Zipf variant, so each test fold has about 12 rows per
    # (last 5 activities, target) group: grouping or caching in evaluation
    # shows its full effect.
    "bench-skewed": Workload(
        "bench",
        LogShape(cases=1000, variants=27, activities=20, min_len=3, max_len=15),
        "log.csv",
        "random",  # --sort token of `logsample bench`
    ),
    # Half the cases are noise, so almost every variant is a singleton and
    # suffix sharing is low; long traces make the window (and encode) large.
    "bench-diverse": Workload(
        "bench",
        LogShape(cases=300, variants=60, activities=40, min_len=5, max_len=30,
                 noise_share=0.5, case_attr_values=4),
        "log.xes.gz",
        "rep",
    ),
    # Parsing and writing dominate; the predictor, metrics and experiment
    # modules are never called.
    "sample-export": Workload(
        "sample",
        LogShape(cases=4000, variants=160, activities=20, min_len=3, max_len=15,
                 case_attr_values=4),
        "log.csv",
        None,
    ),
}


class RunFailed(Exception):
    pass


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Runner:
    """Starts worker interpreters for one workload and collects their results."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.monotonic()
        self.work = WORK / name
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spec(self, **extra) -> dict:
        return {
            "kind": self.workload.kind,
            "sorting": self.workload.sorting,
            "seed": self.seed,
            "input": str(self.work / self.workload.input_name),
            "trace": 0,
            **extra,
        }

    def spawn(self, spec: dict) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunFailed("out of time before the pass could start")
        spec["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed("a pass did not finish within the run's time limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            raise RunFailed(f"worker exited with code {proc.returncode}")
        return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(name, seed)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    input_path = runner.work / runner.workload.input_name
    input_sha = write_log(runner.workload.shape, seed, input_path)
    print(f"{name}: seed {seed}, input {input_path.name} sha256 {input_sha}", flush=True)

    # the first interpreter also compiles the package's bytecode; not counted
    runner.spawn(runner.spec(setup_only=True))

    passes: dict[bool, list[dict]] = {False: [], True: []}
    durations = []
    start = time.monotonic()
    n = 0
    while True:
        elapsed = time.monotonic() - start
        traced = trace and n % 2 == 1
        enough = len(passes[False]) >= MIN_PASSES and (not trace or len(passes[True]) >= 2)
        if enough and not traced and elapsed + statistics.median(durations) > seconds:
            break
        began = time.monotonic()
        spec = runner.spec(
            out=str(runner.work / f"pass{n}"),
            trace=int(traced),
            memtrace=traced and not passes[True],
            properties=n == 0,
        )
        passes[traced].append(runner.spawn(spec))
        durations.append(time.monotonic() - began)
        n += 1

    results = passes[False] + passes[True]
    errors = [e for r in results for e in r["errors"]]
    shas = {r["core_sha256"] for r in results if r["core_sha256"]}
    if len(shas) > 1:
        errors.append(f"the core report CSV differs between passes of one seed: {sorted(shas)}")
    return {
        "core_sha256": shas.pop() if shas else None,
        "plain": passes[False],
        "traced": passes[True],
        "properties": results[0]["properties"],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": errors,
    }


def host_scaled(passes: list[dict], key: str) -> float:
    """Median over passes of ``key`` relative to the pass's reference loop, in seconds at REFERENCE_S.

    Other tenants of a shared host slow every pass, and the load comes and
    goes for minutes: the fastest raw pass of a run moved by more than half
    between runs minutes apart. The reference loop runs in the same
    interpreter and slows with the pass, so the ratio keeps mostly the
    program's own cost.
    """
    return statistics.median(r[key] / r["reference_s"] for r in passes) * REFERENCE_S


def end_to_end(run: dict) -> dict:
    wall = host_scaled(run["plain"], "wall_s")
    return {
        "setup_s": host_scaled(run["plain"] + run["traced"], "setup_s"),
        "wall_s": wall,
        "events_per_s": run["properties"]["workload.events"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in run["plain"]),
    }


def per_layer(run: dict) -> dict:
    """Layer numbers of the fastest traced pass, so that they add up within one pass."""
    fastest = min(run["traced"], key=lambda r: r["wall_s"])
    values = {**fastest["layers"], **run["properties"]}
    values["log_model.load_peak_mb"] = run["traced"][0]["layers"]["log_model.load_peak_mb"]
    values["trace.overhead_s"] = (
        host_scaled(run["traced"], "wall_s") - host_scaled(run["plain"], "wall_s")
    )
    return values


def report(name: str, run: dict, trace: bool, units: dict) -> dict:
    values = per_layer(run) if trace else end_to_end(run)
    missing = set(units) - set(values)
    if missing:
        raise RunFailed(f"no value for metric(s) {sorted(missing)}")
    props = ", ".join(f"{k.split('.', 1)[1]}={v:.6g}" for k, v in run["properties"].items())
    print(f"{name}: {props}")
    if run["core_sha256"]:
        print(f"{name}: core report sha256 {run['core_sha256']}")
    for kind in ("plain", "traced"):
        walls = [r["wall_s"] for r in run[kind]]
        if len(walls) > 1:
            q1, q2, q3 = statistics.quantiles(walls, n=4)
            print(f"{name}: {kind} raw wall_s over {len(walls)} passes: min {min(walls):.4f}, "
                  f"quartiles {q1:.4f} {q2:.4f} {q3:.4f}; per pass "
                  + " ".join(f"{w:.4f}" for w in walls))
    passes = run["plain"] + run["traced"]
    for key in ("setup_s", "reference_s"):
        raw = [r[key] for r in passes]
        print(f"{name}: raw {key} over {len(raw)} passes: "
              f"min {min(raw):.4f}, median {statistics.median(raw):.4f}")
    for metric, unit in units.items():
        print(f"  {metric:32s} {values[metric]:>16.6f} {unit}")
    for error in run["errors"]:
        print(f"{name}: CHECK FAILED: {error}")
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "logsample" / "__init__.py").is_file():
        print("error: run from the root of a logsample checkout (src/logsample is missing)",
              file=sys.stderr)
        return 2
    end_units, layer_units = metric_units()
    units = layer_units if args.trace else end_units

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            values = report(name, run, bool(args.trace), units)
            if len(names) > 1:
                values = {f"{name}.{m}": v for m, v in values.items()}
            metrics.update(values)
            attempted += run["attempted"]
            failed += run["failed"]
            correct = correct and not run["errors"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
