"""Trace ranking and variant-aware case selection.

Selection works per variant: rank the variant's traces by how well they
represent it (or by arrival time, or randomly), then keep the top slice whose
size comes from the configured selection distribution. The "random" method
ignores variants and draws a fraction of all cases instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import ConfigurationError, EmptySampleError
from .log_model import EventLog, subset_log
from .variants import Variant, VariantIndex

UNIQUE = "unique"
LOGARITHMIC = "log"
DIVISION = "div"
RANDOM = "random"
_METHODS = (UNIQUE, LOGARITHMIC, DIVISION, RANDOM)

REPRESENTATIVE = "representative"
OLDEST_FIRST = "oldest-first"
NEWEST_FIRST = "newest-first"
RANDOM_ORDER = "random"
_SORTINGS = (REPRESENTATIVE, OLDEST_FIRST, NEWEST_FIRST, RANDOM_ORDER)

FLOOR = "floor"
NEAREST = "nearest"


@dataclass(frozen=True)
class SamplingConfig:
    """How many traces to keep per variant, and which ones.

    method: unique | log | div | random. ``k`` (>= 2) parametrises log and
    div; ``fraction`` in (0, 1] parametrises random. ``log_rounding`` picks
    floor (default) or nearest-integer rounding of the logarithm.
    """

    method: str
    k: int | None = None
    fraction: float | None = None
    sorting: str = REPRESENTATIVE
    seed: int = 0
    log_rounding: str = FLOOR

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(f"unknown selection method {self.method!r}")
        if self.sorting not in _SORTINGS:
            raise ConfigurationError(f"unknown sorting strategy {self.sorting!r}")
        if self.log_rounding not in (FLOOR, NEAREST):
            raise ConfigurationError(f"unknown log rounding {self.log_rounding!r}")
        k, fraction = self.k, self.fraction
        if self.method in (LOGARITHMIC, DIVISION):
            if not (isinstance(k, int) and not isinstance(k, bool) and k >= 2):
                raise ConfigurationError(
                    f"{self.method} selection needs an integer k >= 2, got {k!r}"
                )
        if self.method == RANDOM:
            number = isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
            if not (number and 0.0 < fraction <= 1.0):
                raise ConfigurationError(
                    f"random selection needs a number fraction in (0, 1], got {fraction!r}"
                )

    @property
    def label(self) -> str:
        """Short token for reports: unique, d10, log2, random:0.5."""
        if self.method == DIVISION:
            return f"d{self.k}"
        if self.method == LOGARITHMIC:
            return f"log{self.k}"
        if self.method == RANDOM:  # :g where it reads back as the same float
            text = f"{self.fraction:g}"
            return f"random:{text if float(text) == self.fraction else repr(float(self.fraction))}"
        return self.method


@dataclass(frozen=True)
class SampleReport:
    """Outcome of one sampling run."""

    original_cases: int
    sampled_cases: int
    original_variants: int
    sampled_variants: int
    reduction_rate: float
    variant_preserving: bool
    per_variant: tuple[tuple[tuple[str, ...], int, int], ...]  # (variant, kept, total)

    def to_dict(self) -> dict:
        return {
            **vars(self),  # shallow: asdict would deep-copy per_variant only to drop it
            "per_variant": [
                {"variant": list(seq), "kept": kept, "total": total}
                for seq, kept, total in self.per_variant
            ],
        }


def _floor_log(n: int, k: int) -> int:
    """Largest e with k**e <= n, in exact integer arithmetic."""
    e = 0
    power = k
    while power <= n:
        e += 1
        power *= k
    return e


def _nearest_log(n: int, k: int) -> int:
    # round log_k(n) to the nearest integer; geometric midpoint comparison
    # keeps the decision exact (ties round up)
    e = _floor_log(n, k)
    return e + 1 if n * n >= k ** (2 * e + 1) else e


def sample_count(config: SamplingConfig, frequency: int) -> int:
    """Number of traces to keep from a variant with the given frequency."""
    if frequency < 1:
        raise ValueError(f"frequency must be >= 1, got {frequency}")
    if config.method == UNIQUE:
        return 1
    if config.method == DIVISION:
        return (frequency + config.k - 1) // config.k
    if config.method == LOGARITHMIC:
        if config.log_rounding == NEAREST:
            count = _nearest_log(frequency, config.k)
        else:
            count = _floor_log(frequency, config.k)
        return min(count, frequency)
    raise ConfigurationError("random selection has no per-variant count")


def rank_traces(
    variant: Variant, index: VariantIndex, sorting: str, seed: int = 0
) -> list[str]:
    """Order a variant's case ids from highest to lowest keep priority.

    Every strategy is deterministic for a given (log, sorting, seed). Each
    ranks the variant's members, which the index holds in case-id order,
    with one stable sort, so ties keep case-id order.
    """
    ids = variant.member_case_ids
    if sorting == REPRESENTATIVE:
        if not index.attributes:
            raise ConfigurationError(
                "representative sorting needs an index built with attributes"
            )
        return sorted(ids, key=index.scores.__getitem__, reverse=True)
    if sorting in (OLDEST_FIRST, NEWEST_FIRST):
        cases = index.source_log.cases
        # a case arrives with its first event
        return sorted(
            ids, key=lambda cid: cases[cid].timestamps[0], reverse=sorting == NEWEST_FIRST
        )
    if sorting == RANDOM_ORDER:
        rnd = Random(f"{seed}|rank|" + "\x1f".join(variant.activities))
        ids = list(ids)
        rnd.shuffle(ids)
        return ids
    raise ConfigurationError(f"unknown sorting strategy {sorting!r}")


def rank_variants(index: VariantIndex, sorting: str, seed: int = 0) -> list[list[str]]:
    """Every variant's :func:`rank_traces` ranking, in the index's variant order.

    The index keeps the rankings of each sorting, so a second call ranks
    nothing. Only a random ranking reads the seed; the index keeps one seed's
    random rankings, and a call with another seed replaces them.
    """
    seed_read = seed if sorting == RANDOM_ORDER else None
    kept = index.rankings.get(sorting)
    if kept is None or kept[0] != seed_read:
        ranked = [rank_traces(variant, index, sorting, seed) for variant in index.variants]
        kept = index.rankings[sorting] = (seed_read, ranked)
    return kept[1]


def sample(
    log: EventLog, index: VariantIndex, config: SamplingConfig
) -> tuple[EventLog, SampleReport]:
    """Select cases per the config and return the sub-log plus a report.

    Kept cases are carried over untouched (same events, same attribute
    values). The variant methods keep the top of each variant's ranking
    (:func:`rank_variants`, kept on the index), so their samples of one
    sorting and seed nest. Raises EmptySampleError when the configuration
    keeps nothing.
    """
    if index.source_log is not log:
        raise ConfigurationError("the variant index was built from a different log")
    if config.method == RANDOM:
        # the fraction's decimal value: 0.07 * 100 is 7.000000000000001 in floats
        n_keep = math.ceil(Fraction(str(config.fraction)) * log.num_cases)
        rnd = Random(f"{config.seed}|random-selection")
        kept_ids = set(rnd.sample(sorted(log.cases), n_keep))
        kept = [len(kept_ids.intersection(v.member_case_ids)) for v in index.variants]
    else:
        # ranked[:count] keeps count members: rank_traces returns each member once
        kept = [sample_count(config, v.frequency) for v in index.variants]
        # a sample of nothing ranks nothing, so it fails as empty, whatever the sorting
        rankings = rank_variants(index, config.sorting, config.seed) if any(kept) else []
        kept_ids = set()
        for ranked, count in zip(rankings, kept):
            kept_ids.update(ranked[:count])

    if not kept_ids:
        raise EmptySampleError(
            f"sampling with {config.label} keeps zero cases; "
            "every variant is below the selection threshold"
        )

    sampled = subset_log(log, kept_ids)
    kept_variants = len(kept) - kept.count(0)
    report = SampleReport(
        original_cases=log.num_cases,
        sampled_cases=sampled.num_cases,
        original_variants=len(index.variants),
        sampled_variants=kept_variants,
        reduction_rate=log.num_cases / sampled.num_cases,
        per_variant=tuple((v.activities, n, v.frequency) for v, n in zip(index.variants, kept)),
        variant_preserving=kept_variants == len(index.variants),
    )
    return sampled, report


def parse_method_token(token: str, sorting: str = RANDOM_ORDER, seed: int = 0) -> SamplingConfig:
    """Parse a grid token like d10, log2, unique, or random:0.5.

    Raises ConfigurationError naming the token when it is none of these.
    """
    token = token.strip()
    # isdigit(), int() and float() also read non-ASCII digits such as "²" and "٣"
    if not token.isascii():
        raise ConfigurationError(f"cannot parse sampling method token {token!r}")
    if token == UNIQUE:
        return SamplingConfig(UNIQUE, sorting=sorting, seed=seed)
    if token.startswith("d") and token[1:].isdigit():
        return SamplingConfig(DIVISION, k=int(token[1:]), sorting=sorting, seed=seed)
    if token.startswith("log") and token[3:].isdigit():
        return SamplingConfig(LOGARITHMIC, k=int(token[3:]), sorting=sorting, seed=seed)
    try:
        if token == RANDOM or token.startswith("random:"):
            fraction = 1.0 if token == RANDOM else float(token.split(":", 1)[1])
            return SamplingConfig(RANDOM, fraction=fraction, sorting=sorting, seed=seed)
    except ValueError:
        pass  # the fraction is not a number
    raise ConfigurationError(f"cannot parse sampling method token {token!r}")
