"""Statistics shared by every representation of a chart.

All operations drop missing values per call (pairwise for fits) and never
impute. Quartiles follow the type-7 convention (linear interpolation of
order statistics at p*(n-1)+1), so boxplot numbers reproduce the common
default of statistical software.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not, mul, sub

from .dataset import Dataset
from .errors import DataError


class EmptyGroupWarning(UserWarning):
    """A group level had no non-missing values and was omitted."""


@dataclass(frozen=True)
class BoxStats:
    group_label: str
    min_whisker: float
    q1: float
    median: float
    q3: float
    max_whisker: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    n: int

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class TickSet:
    positions: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise DataError("tick positions must be strictly ascending")


def bar_counts(
    data: Dataset, x: str, sort_order: str = "appearance"
) -> list[tuple[str, int]]:
    """Counts of non-missing rows per category, in first-appearance order
    (or alphabetical with sort_order="alpha")."""
    col = data.column(x)
    if col.kind != "categorical":
        raise DataError(
            f"column {x!r} is numeric; use a histogram for numeric data"
        )
    counts = Counter(col.values)  # a dict: keys in first-appearance order
    counts.pop(None, None)
    labels = sorted(counts) if sort_order == "alpha" else list(counts)
    return [(label, counts[label]) for label in labels]


def sturges_bins(n: int) -> int:
    return max(1, math.ceil(math.log2(n)) + 1)


def histogram(
    data: Dataset, x: str, bins: int | None = None
) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; right-closed except the first bin,
    which also includes its left edge. Default bin count is Sturges'.
    """
    values = sorted(data.numeric(x).non_missing())
    if not values:
        raise DataError(f"column {x!r} has no non-missing values")
    lo, hi = values[0], values[-1]
    if lo == hi:
        # degenerate range: one half-unit bin either side keeps geometry finite
        return [(lo - 0.5, hi + 0.5, len(values))]
    k = bins if bins is not None else sturges_bins(len(values))
    if k < 1:
        raise DataError("bin count must be at least 1")
    width = (hi - lo) / k
    if width == 0:  # the range is a few subnormal floats apart
        raise DataError(f"column {x!r} spans too narrow a range for {k} bins")
    if width == math.inf:  # the range is wider than the largest double
        raise DataError(f"column {x!r} spans too wide a range for {k} bins; rescale it")
    # _bin_index never decreases as v grows (see there), so the values of
    # bin i are a run of the sorted list, found by bisection
    index = functools.partial(_bin_index, lo=lo, width=width, k=k)
    starts = [bisect_left(values, i, key=index) for i in range(k)] + [len(values)]
    return [
        (lo + i * width, lo + (i + 1) * width, starts[i + 1] - starts[i])
        for i in range(k)
    ]


def _bin_index(v: float, lo: float, width: float, k: int) -> int:
    """The histogram bin of v >= lo among k bins of `width` from lo.

    Never decreases as v grows: v - lo, the division by a positive width
    and int() of a non-negative float each keep order, and so does the
    clamp to k - 1. The nudge lowers a raw index j to j - 1 only for values
    at or below lo + j * width, the smallest values with raw index j, and
    every value with a lower raw index is smaller still.
    """
    idx = int((v - lo) / width)
    if idx >= k:
        return k - 1
    # bins are (lo, hi]; nudge exact left edges down, except bin 0
    if idx > 0 and v <= lo + idx * width:
        return idx - 1
    return idx


def quantile_type7(sorted_values: list[float], p: float) -> float:
    """Order-statistic interpolation at p*(n-1)+1 (1-based)."""
    n = len(sorted_values)
    if n == 0:
        raise DataError("quantile of empty sequence")
    h = p * (n - 1)
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def _box_of(label: str, values: list[float]) -> BoxStats:
    vs = sorted(values)
    q1 = quantile_type7(vs, 0.25)
    med = quantile_type7(vs, 0.50)
    q3 = quantile_type7(vs, 0.75)
    iqr = q3 - q1
    # vs[first:end] is every value within [lo_fence, hi_fence]
    first = bisect_left(vs, q1 - 1.5 * iqr)
    end = bisect_right(vs, q3 + 1.5 * iqr)
    outliers = tuple(vs[:first] + vs[end:])
    return BoxStats(label, vs[first], q1, med, q3, vs[end - 1], outliers)


def box_stats(data: Dataset, y: str, group: str | None = None) -> list[BoxStats]:
    """Five-number summaries per group (whole column when group is None).

    Whiskers reach the most extreme data points within 1.5*IQR of the
    hinges; points beyond are outliers. Group levels with no non-missing
    values are omitted with an EmptyGroupWarning.
    """
    ycol = data.numeric(y)
    if group is None:
        values = ycol.non_missing()
        if not values:
            raise DataError(f"column {y!r} has no non-missing values")
        return [_box_of(y, values)]

    gcol = data.categorical(group)
    # one list per level in order of first appearance (rows with no level
    # fill a None list, dropped after); every present y value is appended
    # to its level's list by map, not by a Python loop
    by_level = {level: [] for level in dict.fromkeys(gcol.values)}
    present = list(map(is_not, ycol.values, repeat(None)))
    deque(
        map(
            list.append,
            map(by_level.__getitem__, compress(gcol.values, present)),
            compress(ycol.values, present),
        ),
        maxlen=0,
    )
    by_level.pop(None, None)
    out = []
    for label, values in by_level.items():
        if not values:
            warnings.warn(
                f"group {label!r} has no non-missing {y!r} values; omitted",
                EmptyGroupWarning,
                stacklevel=2,
            )
            continue
        out.append(_box_of(label, values))
    if not out:
        raise DataError(f"no group of {group!r} has non-missing {y!r} values")
    return out


def linear_fit(x: list[float | None], y: list[float | None]) -> LinearFit:
    """Closed-form OLS: slope = cov(x,y)/var(x), intercept = mean residual 0.

    Pairs with a missing member are dropped first; requires two or more
    pairs and non-constant x. A fit whose sums overflow a double is
    degenerate too.
    """
    if len(x) != len(y):
        raise DataError(f"series lengths differ: {len(x)} vs {len(y)}")
    if None in x or None in y:
        pairs = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
        x, y = [a for a, _ in pairs], [b for _, b in pairs]
    n = len(x)
    if n < 2:
        raise DataError(f"need at least 2 complete pairs, found {n}")
    # whole-column passes in C, summing the same terms in the same order
    # as a loop over the pairs would; x - mx is taken twice rather than
    # held in a list of n floats
    mx = sum(x) / n
    my = sum(y) / n
    try:
        sxx = sum(map(pow, map(sub, x, repeat(mx)), repeat(2)))
    except OverflowError:  # pow raises where a square passes the largest double
        sxx = math.inf
    if sxx == 0:
        raise DataError("x is constant; the fit is degenerate")
    sxy = sum(map(mul, map(sub, x, repeat(mx)), map(sub, y, repeat(my))))
    if not (math.isfinite(sxx) and math.isfinite(sxy)):
        raise DataError("the fit's sums overflow a double; rescale x or y")
    slope = sxy / sxx
    return LinearFit(slope, my - slope * mx, n)


_STEP_MANTISSAS = (1, 2, 5)


def _ceil_quotient(v: float, step: float) -> int:
    q = v / step
    return math.ceil(q - 1e-12 * max(1.0, abs(q)) - 1e-9)


def _floor_quotient(v: float, step: float) -> int:
    q = v / step
    return math.floor(q + 1e-12 * max(1.0, abs(q)) + 1e-9)


def nice_ticks(lo: float, hi: float) -> TickSet:
    """Ticks at multiples of a step from {1,2,5}*10^k, choosing the step
    whose multiple count inside [lo, hi] is closest to 5 (ties go to the
    larger step)."""
    if not (lo < hi):
        raise DataError(f"need lo < hi, got [{lo}, {hi}]")
    span = hi - lo
    k0 = math.floor(math.log10(span))
    best: tuple[int, float, int, int, int] | None = None  # (|n-5|, -step, ...)
    for k in range(k0 - 2, k0 + 2):
        for mant in _STEP_MANTISSAS:
            step = mant * 10.0**k
            m_lo = _ceil_quotient(lo, step)
            m_hi = _floor_quotient(hi, step)
            count = m_hi - m_lo + 1
            if count < 2:
                continue
            key = (abs(count - 5), -step, mant, k, m_lo)
            if best is None or key[:2] < best[:2]:
                best = key
    assert best is not None  # k0-2 always yields >= 2 multiples
    _, _, mant, k, m_lo = best
    step = mant * 10.0**k
    m_hi = _floor_quotient(hi, step)
    positions = []
    labels = []
    for m in range(m_lo, m_hi + 1):
        coeff = m * mant
        positions.append(float(f"{coeff}e{k}"))
        labels.append(_decimal_label(coeff, k))
    return TickSet(tuple(positions), tuple(labels))


def _decimal_label(coeff: int, exp: int) -> str:
    """Plain decimal for coeff*10^exp without float round-off."""
    if coeff == 0:
        return "0"
    sign = "-" if coeff < 0 else ""
    digits = str(abs(coeff))
    if exp >= 0:
        return sign + digits + "0" * exp
    if len(digits) > -exp:
        whole, frac = digits[:exp], digits[exp:]
    else:
        whole, frac = "0", digits.rjust(-exp, "0")
    frac = frac.rstrip("0")
    return sign + (whole + "." + frac if frac else whole)


def round_sig(v: float, figures: int = 2) -> float:
    """Round to a number of significant figures (for "about" summaries)."""
    if v == 0:
        return 0.0
    mag = math.floor(math.log10(abs(v)))
    return round(v, figures - 1 - mag)

