"""Sanity checks on measured scalability data before fitting.

The load-bearing rule: capacity is a ratio to the single-user
measurement, so efficiency C(n)/n logically cannot exceed 1.  Rows that
do are measurement or configuration errors (wrong baseline, caching
artifacts, broken load generator) and make the whole dataset invalid.
Everything else here is advisory: noise-shaped irregularities get soft
flags and a "suspect" verdict but do not block fitting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientDataError
from .fitting import Dataset, capacity_ratios
from .model import _set

FLAG_EFFICIENCY_ABOVE_ONE = "efficiency-above-one"   # hard
FLAG_DECREASE_BEFORE_PEAK = "decrease-before-peak"   # soft
FLAG_DOWN_THEN_UP = "down-then-up"                   # soft
FLAG_DUPLICATE_THROUGHPUT = "duplicate-throughput"   # soft
FLAG_ZERO_THROUGHPUT = "zero-throughput"             # soft

HARD_FLAGS = frozenset({FLAG_EFFICIENCY_ABOVE_ONE})

DEFAULT_TOLERANCE = 0.005  # relative slack on the efficiency bound


class Verdict(str, enum.Enum):
    CLEAN = "clean"
    SUSPECT = "suspect"
    INVALID = "invalid"


class ProfileShape(str, enum.Enum):
    RISING = "rising"
    SATURATING = "rising-then-saturating"
    RETROGRADE = "rising-then-retrograde"
    IRREGULAR = "irregular"


@dataclass(frozen=True, init=False)
class ValidationRow:
    n: float
    capacity: float
    efficiency: float
    flags: tuple[str, ...]

    # stores with _set; see MeasuredPoint
    def __init__(self, n: float, capacity: float, efficiency: float, flags: tuple[str, ...]) -> None:
        _set(self, "n", n)
        _set(self, "capacity", capacity)
        _set(self, "efficiency", efficiency)
        _set(self, "flags", flags)


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    verdict: Verdict
    notes: tuple[str, ...]

    @property
    def hard_flagged(self) -> tuple[ValidationRow, ...]:
        return tuple(r for r in self.rows if any(f in HARD_FLAGS for f in r.flags))

    @property
    def soft_flagged(self) -> tuple[ValidationRow, ...]:
        return tuple(
            r for r in self.rows if any(f not in HARD_FLAGS for f in r.flags)
        )


def check_tolerance(tolerance: float) -> None:
    """DomainError unless tolerance is positive and finite; nan is neither."""
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be {'finite' if tolerance > 0.0 else 'positive'}")


def validate_dataset(dataset: Dataset, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Flag physically impossible or suspicious rows.

    tolerance is the relative slack on the efficiency bound: a row is
    hard-flagged when C(n)/n > 1 + tolerance.  Needs the n = 1 baseline
    (MissingBaselineError / ZeroBaselineError otherwise).  The function
    only reads the dataset; it never modifies or drops rows.
    """
    check_tolerance(tolerance)
    ratios = capacity_ratios(dataset)
    caps = [c for _, c in ratios]
    peak_idx = caps.index(max(caps))

    flags: list[list[str]] = [[] for _ in ratios]
    notes: list[str] = []

    seen_decrease_at = None
    seen_x: dict[float, float] = {}
    effs = [cap / n for n, cap in ratios]
    limit = 1.0 + tolerance
    for i, (p, (n, cap), eff) in enumerate(zip(dataset.points, ratios, effs)):
        x = p.x
        if eff > limit:
            flags[i].append(FLAG_EFFICIENCY_ABOVE_ONE)
            notes.append(
                f"N={n:g}: efficiency {eff:.4f} exceeds 1 by more than {tolerance:g}; "
                "capacity is a ratio to N=1 and cannot scale better than linearly"
            )
        if x == 0.0:
            flags[i].append(FLAG_ZERO_THROUGHPUT)
            notes.append(f"N={n:g}: zero throughput")
        if x in seen_x:
            flags[i].append(FLAG_DUPLICATE_THROUGHPUT)
            notes.append(
                f"N={n:g}: throughput {x:g} identical to N={seen_x[x]:g}; "
                "possible copy/paste or stuck load generator"
            )
        else:
            seen_x[x] = p.n
        if i > 0:
            if cap < caps[i - 1]:
                seen_decrease_at = i
                if i <= peak_idx:
                    flags[i].append(FLAG_DECREASE_BEFORE_PEAK)
                    notes.append(
                        f"N={n:g}: capacity drops before the overall maximum; "
                        "likely noise or interference"
                    )
            elif cap > caps[i - 1] and seen_decrease_at is not None:
                flags[i].append(FLAG_DOWN_THEN_UP)
                notes.append(
                    f"N={n:g}: capacity recovers after a decline; "
                    "profile is not unimodal"
                )

    if any(f in HARD_FLAGS for row in flags for f in row):
        verdict = Verdict.INVALID
    elif any(row for row in flags):
        verdict = Verdict.SUSPECT
    else:
        verdict = Verdict.CLEAN

    rows = tuple(
        ValidationRow(n, cap, eff, tuple(fl)) for (n, cap), eff, fl in zip(ratios, effs, flags)
    )
    return ValidationReport(rows=rows, verdict=verdict, notes=tuple(notes))


@dataclass(frozen=True)
class MonotonicityProfile:
    shape: ProfileShape
    peak: float | None   # level with the highest throughput
    knee: float | None   # level where per-user gain collapses, if any


def monotonicity_profile(dataset: Dataset, knee_fraction: float = 0.1) -> MonotonicityProfile:
    """Classify the throughput trend over increasing load.

    Shapes: rising (gains keep coming), rising-then-saturating (gains
    collapse below knee_fraction of the initial per-user gain but never
    go negative), rising-then-retrograde (throughput falls past a peak),
    irregular (anything non-unimodal).  The knee is the start of the
    first segment whose per-added-user gain drops below the threshold;
    the default fraction is a heuristic, not a calibrated constant.
    """
    if len(dataset) < 3:
        raise InsufficientDataError("trend classification needs at least 3 points")
    ns = [p.n for p in dataset.points]
    xs = [p.x for p in dataset.points]
    gains = [
        (xs[i + 1] - xs[i]) / (ns[i + 1] - ns[i]) for i in range(len(ns) - 1)
    ]
    peak_idx = xs.index(max(xs))
    peak_n = ns[peak_idx]

    knee = None
    if gains[0] > 0.0:
        threshold = knee_fraction * gains[0]
        for i in range(1, len(gains)):
            if gains[i] < threshold:
                knee = ns[i]
                break

    decrease_before_peak = any(g < 0.0 for g in gains[:peak_idx])
    increase_after_peak = any(g > 0.0 for g in gains[peak_idx:])
    if gains[0] <= 0.0 or decrease_before_peak or increase_after_peak:
        shape = ProfileShape.IRREGULAR
    elif xs[-1] < xs[peak_idx]:
        shape = ProfileShape.RETROGRADE
    elif knee is not None:
        shape = ProfileShape.SATURATING
    else:
        shape = ProfileShape.RISING
    return MonotonicityProfile(shape=shape, peak=peak_n, knee=knee)
