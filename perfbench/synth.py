"""Seeded synthetic event logs for the benchmark, written as CSV or XES.

Only ``random.Random(seed)`` and integer arithmetic feed the output, so one
seed gives byte-identical files on every supported Python version.

The size of a log is fixed by its shape, not by the seed: variant
frequencies follow Zipf weights rounded by largest remainder, and trace
lengths follow a fixed stride through the length range. The seed picks
the activity sequences, the case order, the timestamps and the attribute
values. Two seeds therefore give logs with the same number of cases and
events, so run-to-run spread measures the program and the machine rather
than a bigger or smaller input.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random
from xml.sax.saxutils import quoteattr

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
ZIPF_S = 1.1
RESOURCES = 10  # values of the event attribute every event carries


@dataclass(frozen=True)
class LogShape:
    """What a generated log looks like; the seed fills in the content."""

    cases: int
    variants: int  # structured variants drawn with Zipf weights
    activities: int
    min_len: int
    max_len: int
    noise_share: float = 0.0  # share of cases that are random activity sequences
    case_attr_values: int = 0  # 0 = no case attribute


@dataclass
class GeneratedCase:
    case_id: str
    activities: tuple[str, ...]
    timestamps: list[datetime]
    resources: list[str]
    channel: str | None


def zipf_counts(total: int, n: int, s: float) -> list[int]:
    """Split ``total`` over ``n`` ranks with weights 1/r**s, largest remainder."""
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(n), key=lambda r: (-(exact[r] - counts[r]), r))
    for r in order[: total - sum(counts)]:
        counts[r] += 1
    return counts


def _stride_length(i: int, lo: int, hi: int) -> int:
    span = hi - lo + 1
    stride = 7 if span % 7 else 5
    return lo + (i * stride + 3) % span


def generate(shape: LogShape, seed: int) -> list[GeneratedCase]:
    rnd = Random(seed)
    alphabet = [f"A{i:02d}" for i in range(shape.activities)]

    n_noise = round(shape.cases * shape.noise_share)
    counts = zipf_counts(shape.cases - n_noise, shape.variants, ZIPF_S)
    seen: set[tuple[str, ...]] = set()
    plan: list[tuple[str, ...]] = []
    for rank, count in enumerate(counts):
        length = _stride_length(rank, shape.min_len, shape.max_len)
        seq = tuple(rnd.choice(alphabet) for _ in range(length))
        while seq in seen:
            seq = tuple(rnd.choice(alphabet) for _ in range(length))
        seen.add(seq)
        plan.extend([seq] * count)
    for i in range(n_noise):
        length = _stride_length(i, shape.min_len, shape.max_len)
        plan.append(tuple(rnd.choice(alphabet) for _ in range(length)))
    rnd.shuffle(plan)

    cases = []
    for n, seq in enumerate(plan):
        start = T0 + timedelta(minutes=10 * n, milliseconds=rnd.randrange(600_000))
        stamps = [start]
        for _ in seq[1:]:
            stamps.append(stamps[-1] + timedelta(milliseconds=rnd.randrange(1_000, 3_600_000)))
        resources = [f"r{rnd.randrange(RESOURCES)}" for _ in seq]
        channel = None
        if shape.case_attr_values:
            channel = f"ch{rnd.randrange(shape.case_attr_values)}"
        cases.append(GeneratedCase(f"c{n:06d}", seq, stamps, resources, channel))
    return cases


def _stamp(dt: datetime) -> str:
    return dt.isoformat(timespec="milliseconds")


def write_csv_log(cases: list[GeneratedCase], path: Path) -> None:
    header = ["case_id", "activity", "timestamp", "resource"]
    has_channel = cases[0].channel is not None
    if has_channel:
        header.append("channel")
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for case in cases:
            for j, act in enumerate(case.activities):
                row = [case.case_id, act, _stamp(case.timestamps[j]), case.resources[j]]
                if has_channel:
                    row.append(case.channel)
                writer.writerow(row)


def write_xes_log(cases: list[GeneratedCase], path: Path) -> None:
    """Minimal XES: log > trace > event with string and date attributes, gzipped."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    ]
    for case in cases:
        lines.append("<trace>")
        lines.append(f'<string key="concept:name" value={quoteattr(case.case_id)}/>')
        if case.channel is not None:
            lines.append(f'<string key="channel" value={quoteattr(case.channel)}/>')
        for j, act in enumerate(case.activities):
            lines.append("<event>")
            lines.append(f'<string key="concept:name" value={quoteattr(act)}/>')
            lines.append(f'<date key="time:timestamp" value="{_stamp(case.timestamps[j])}"/>')
            lines.append(f'<string key="org:resource" value={quoteattr(case.resources[j])}/>')
            lines.append("</event>")
        lines.append("</trace>")
    lines.append("</log>")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with path.open("wb") as raw:
        # mtime=0 and no file name keep the gzip header, and so the bytes, fixed
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
            fh.write(data)


def write_log(shape: LogShape, seed: int, path: Path) -> str:
    """Generate a log into ``path`` (.csv or .xes.gz); return the file's sha256."""
    cases = generate(shape, seed)
    if path.name.endswith(".xes.gz"):
        write_xes_log(cases, path)
    else:
        write_csv_log(cases, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()
