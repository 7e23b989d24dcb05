"""Command line interface.

Subcommands mirror the library: inspect variants, draw a sample, export
features, train and apply the built-in predictor, and run the
cross-validated benchmark.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click

from . import experiment as exp
from .errors import LogSampleError
from .features import default_window, export_features, extract_features
from .log_model import ColumnMapping, load_log, write_csv
from .metrics import evaluate
from .predictor import load_model, save_model, train as train_model
from .sampling import (
    NEWEST_FIRST,
    OLDEST_FIRST,
    RANDOM_ORDER,
    REPRESENTATIVE,
    SamplingConfig,
    sample,
)
from .variants import build_variant_index

SORT_TOKENS = {
    "rep": REPRESENTATIVE,
    "time-asc": OLDEST_FIRST,
    "time-desc": NEWEST_FIRST,
    "random": RANDOM_ORDER,
}


def with_log_options(fn):
    """Add the CSV column options; the command receives them as one ``columns`` mapping."""

    @click.option("--case-col", default="case_id", show_default=True, help="CSV case id column.")
    @click.option("--activity-col", default="activity", show_default=True, help="CSV activity column.")
    @click.option("--time-col", default="timestamp", show_default=True, help="CSV timestamp column.")
    @functools.wraps(fn)
    def command(case_col, activity_col, time_col, **kwargs):
        return fn(columns=ColumnMapping(case_col, activity_col, time_col), **kwargs)

    return command


def _items(text: str) -> list[str]:
    """The non-blank entries of a comma-separated list, stripped."""
    return [item.strip() for item in text.split(",") if item.strip()]


@click.group()
def cli():
    """Variant-aware event log sampling for next-activity prediction."""


@cli.command()
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--attr", default=None, help="Comma-separated attribute names to summarise.")
@with_log_options
def variants(log_path, attr, columns):
    """Print the variant table (sequence, frequency, modal values) as CSV."""
    log = load_log(log_path, columns)
    index = build_variant_index(log, _items(attr) if attr else None)

    writer = csv.writer(sys.stdout)
    writer.writerow(["variant", "frequency", *(f"modal_{a}" for a in index.attributes)])
    for variant in index.variants:
        modal = index.modal_values[variant.activities]
        modal_cells = ["|".join(sorted(map(str, modal[a]))) for a in index.attributes]
        writer.writerow([",".join(variant.activities), variant.frequency, *modal_cells])


@cli.command(name="sample")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", required=True, type=click.Choice(["unique", "log", "div", "random"]))
@click.option("--k", type=int, default=None, help="Base for log / div selection.")
@click.option("--fraction", type=float, default=None, help="Fraction for random selection.")
@click.option("--sort", "sort_token", default="rep", show_default=True,
              type=click.Choice(sorted(SORT_TOKENS)))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--log-rounding", default="floor", show_default=True,
              type=click.Choice(["floor", "nearest"]))
@click.option("--attr", default=None, help="Attributes for representative sorting.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False),
              help="Write the sample report JSON here instead of stderr.")
@with_log_options
def sample_cmd(log_path, method, k, fraction, sort_token, seed, log_rounding, attr,
               output, report_path, columns):
    """Sample a log and write the kept cases as CSV."""
    log = load_log(log_path, columns)
    index = build_variant_index(log, _items(attr) if attr else None)
    config = SamplingConfig(
        method=method,
        k=k,
        fraction=fraction,
        sorting=SORT_TOKENS[sort_token],
        seed=seed,
        log_rounding=log_rounding,
    )
    sampled, report = sample(log, index, config)
    write_csv(sampled, output, columns)
    payload = json.dumps(report.to_dict(), indent=2)
    if report_path:
        Path(report_path).write_text(payload + "\n", encoding="utf-8")
    else:
        click.echo(payload, err=True)
    click.echo(
        f"kept {report.sampled_cases}/{report.original_cases} cases "
        f"({report.sampled_variants}/{report.original_variants} variants) -> {output}"
    )


@cli.command()
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--end-marker/--no-end-marker", default=True, show_default=True)
@click.option("--window", type=int, default=None,
              help="One-hot window length; defaults to the 95th percentile trace length.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@with_log_options
def features(log_path, end_marker, window, output, columns):
    """Export one-hot encoded prefix features as CSV."""
    log = load_log(log_path, columns)
    rows = extract_features(log, end_marker)
    alphabet = sorted(log.activity_alphabet)
    if window is None:
        window = default_window([len(case.trace) for case in log.cases.values()])
    export_features(rows, alphabet, window, output)
    click.echo(f"wrote {len(rows)} rows (window {window}) -> {output}")


@cli.command(name="train")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--end-marker/--no-end-marker", default=True, show_default=True)
@click.option("--max-order", type=int, default=5, show_default=True)
@click.option("--smoothing", type=float, default=0.01, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@with_log_options
def train_cmd(log_path, end_marker, max_order, smoothing, output, columns):
    """Train the built-in next-activity predictor and save it as JSON."""
    log = load_log(log_path, columns)
    rows = extract_features(log, end_marker)
    model = train_model(rows, max_order=max_order, smoothing=smoothing)
    save_model(model, output)
    click.echo(f"trained on {len(rows)} rows -> {output}")


@cli.command(name="predict")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--prefix", required=True, help="Comma-separated activity prefix.")
def predict_cmd(model_path, prefix):
    """Predict the next activity for an activity prefix."""
    model = load_model(model_path)
    activities = tuple(_items(prefix))
    payload = {
        "predicted": model.predict(activities),
        "distribution": model.distribution(activities),
    }
    click.echo(json.dumps(payload, indent=2))


@cli.command(name="evaluate")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--end-marker/--no-end-marker", default=True, show_default=True)
@with_log_options
def evaluate_cmd(model_path, log_path, end_marker, columns):
    """Evaluate a saved model on a log; prints one CSV line of accuracies."""
    model = load_model(model_path)
    log = load_log(log_path, columns)
    rows = extract_features(log, end_marker)
    result = evaluate(model, rows)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "overall_accuracy", "balanced_accuracy"])
    writer.writerow([result.n, result.overall_accuracy, result.balanced_accuracy])


@cli.command()
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--repeats", type=int, default=5, show_default=True)
@click.option("--grid", default=",".join(exp.DEFAULT_GRID_TOKENS), show_default=True,
              help="Comma-separated strategy tokens (d2, log10, unique, random:0.5).")
@click.option("--sort", "sort_token", default="random", show_default=True,
              type=click.Choice(sorted(SORT_TOKENS)),
              help="Trace ranking used by every grid entry.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--end-marker/--no-end-marker", default=True, show_default=True)
@click.option("--window", type=int, default=None)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Load the experiment config from JSON (overrides the flags above).")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False),
              help="Per-row report CSV (deterministic); timings go to <output>.timings.csv.")
@click.option("--markdown", is_flag=True, help="Print the aggregate table as markdown.")
@with_log_options
def bench(log_path, folds, repeats, grid, sort_token, seed, end_marker, window,
          config_path, output, markdown, columns):
    """Benchmark sampling strategies with repeated k-fold cross-validation."""
    if config_path:
        config = exp.config_from_json(config_path)
    else:
        config = exp.config_from_dict({
            "folds": folds,
            "repeats": repeats,
            "grid": _items(grid),
            "sorting": SORT_TOKENS[sort_token],
            "seed": seed,
            "end_marker": end_marker,
            "window": window,
        })
    log = load_log(log_path, columns)
    report = exp.run_experiment(log, config)
    name = Path(log_path).name
    for suffix in (".gz", ".xes", ".csv"):  # in any case, as load_log reads them
        name = name[: -len(suffix)] if name.lower().endswith(suffix) else name
    report.log_name = name

    exp.write_rows_csv(report, output)
    timings_path = f"{output}.timings.csv"
    exp.write_timings_csv(report, timings_path)
    click.echo(exp.render_report(report, "markdown" if markdown else "csv"), nl=False)
    click.echo(f"rows -> {output}; timings -> {timings_path}", err=True)


def main():
    try:
        cli(standalone_mode=False)
    except (LogSampleError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)


if __name__ == "__main__":
    main()
