from __future__ import annotations

import math
import random
import sys
import warnings
from decimal import Decimal

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import (
    box_oracle,
    box_scan_oracle,
    histogram_loop_oracle,
    histogram_oracle,
    linear_fit_oracle,
    normal_equations_fit,
    quantile_oracle,
)
from polyrep.errors import DataError
from polyrep.stats import (
    FLAT_ULPS,
    MAX_AXIS_TICKS,
    EmptyGroupWarning,
    bar_counts,
    box_stats,
    histogram,
    is_flat,
    linear_fit,
    nice_ticks,
    quantile_type7,
)


# -- bar_counts --------------------------------------------------------------


def test_bar_counts_penguins(penguins):
    assert bar_counts(penguins.columns["species"].values) == [
        ("Adelie", 152),
        ("Chinstrap", 68),
        ("Gentoo", 124),
    ]


def test_bar_counts_empty():
    assert bar_counts([]) == []
    assert bar_counts([None, None]) == []


def test_bar_counts_excludes_missing():
    # hand count: a=2, b=1, one NA excluded everywhere
    assert bar_counts(["a", "b", None, "a", "c"]) == [("a", 2), ("b", 1), ("c", 1)]


# -- histogram ---------------------------------------------------------------


def test_histogram_forced_two_bins():
    assert histogram([0.0, 1.0, 2.0, 3.0], "x", bins=2) == [
        (0.0, 1.5, 2),
        (1.5, 3.0, 2),
    ]


def test_histogram_degenerate_single_value():
    assert histogram([7.0, 7.0, 7.0], "x") == [(6.5, 7.5, 3)]


def test_histogram_all_missing_errors():
    with pytest.raises(DataError):
        histogram([None, None], "x")


def test_histogram_penguins_default_bins_sum(penguins):
    values = penguins.columns["flipper_length_mm"].values
    bins = histogram(values, "flipper_length_mm")
    assert sum(c for _, _, c in bins) == 342
    assert bins == histogram_oracle([v for v in values if v is not None], len(bins))


@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ),
    st.integers(1, 20),
)
@example([0.0, 5e-324], 2)
@example([0.3, 0.1 + 0.2, 0.3], 5)
def test_histogram_matches_oracle_and_sums(values, k):
    lo, hi = min(values), max(values)
    if is_flat(lo, hi):
        # one value, or values apart by float noise or a few subnormals: one
        # bin, widened as its axis is (a wider range has a width in 20 bins)
        assert histogram(values, "x", bins=k) == [(lo - 0.5, hi + 0.5, len(values))]
        return
    bins = histogram(values, "x", bins=k)
    assert sum(c for _, _, c in bins) == len(values)
    assert bins == histogram_oracle(values, k)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _values_on_bin_edges(draw):
    """(values, k): a range [lo, hi] in k bins and values on the computed
    bin edges lo + i*width and one float either side of them."""
    lo = draw(_finite)
    hi = draw(st.floats(lo, 2e6, exclude_min=True))
    k = draw(st.integers(1, 20))
    width = (hi - lo) / k
    near = []
    for i in range(k + 1):
        edge = lo + i * width
        near += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    inside = [v for v in near if lo <= v <= hi]
    picked = draw(st.lists(st.sampled_from(inside), max_size=60))
    return [lo, hi, *picked], k


@given(_values_on_bin_edges(), st.integers(0, 10))
def test_histogram_matches_the_value_loop_on_bin_edges(case, n_missing):
    values, k = case
    column = [None] * n_missing + values  # missing values are dropped
    lo, hi = min(values), max(values)
    if is_flat(lo, hi):
        assert histogram(column, "x", bins=k) == [(lo - 0.5, hi + 0.5, len(values))]
        return
    assert histogram(column, "x", bins=k) == histogram_loop_oracle(values, k)


def test_histogram_range_too_narrow_for_its_bins():
    # 41 subnormals is not flat, but (hi - lo) / k underflows to zero in 329
    # bins: an error, not a division by zero
    hi = 41 * 5e-324
    assert not is_flat(0.0, hi)
    with pytest.raises(DataError, match="too narrow a range for 329 bins"):
        histogram([0.0, hi], "x", bins=329)
    assert histogram([0.0, hi], "x", bins=1) == [(0.0, hi, 2)]


def test_histogram_range_too_wide_for_its_bins():
    # hi - lo overflows to infinity: an error, not a NaN bin index
    with pytest.raises(DataError) as exc:
        histogram([-1e308, 1e308], "x", bins=2)
    assert str(exc.value) == "column 'x' spans too wide a range for 2 bins; rescale it"


# -- box_stats ---------------------------------------------------------------


def test_box_symmetric_small_case():
    [box] = box_stats([1.0, 2.0, 3.0, 4.0, 5.0], "x")
    assert (box.q1, box.median, box.q3) == (2.0, 3.0, 4.0)
    assert (box.min_whisker, box.max_whisker) == (1.0, 5.0)
    assert box.outliers == ()


def test_box_outlier_flagged():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    # hand oracle: type-7 on sorted data
    q1 = quantile_oracle(values, 0.25)
    q3 = quantile_oracle(values, 0.75)
    assert (q1, q3) == (2.0, 4.0)
    [box] = box_stats(values, "x")
    assert box.outliers == (100.0,)
    assert box.max_whisker == 4.0


def test_box_penguins_by_species_matches_oracle(penguins):
    mass = penguins.columns["body_mass_g"].values
    species = penguins.columns["species"].values
    boxes = box_stats(mass, "body_mass_g", species, "species")
    assert [b.group_label for b in boxes] == ["Adelie", "Chinstrap", "Gentoo"]
    for box in boxes:
        values = [
            m for m, s in zip(mass, species) if s == box.group_label and m is not None
        ]
        lo, q1, med, q3, hi, outliers = box_oracle(values)
        assert (box.min_whisker, box.q1, box.median, box.q3, box.max_whisker) == (
            lo, q1, med, q3, hi,
        )
        assert sorted(box.outliers) == outliers


def test_box_empty_group_warns():
    with pytest.warns(EmptyGroupWarning, match="'b'"):
        boxes = box_stats((1.0, 2.0, None), "y", ("a", "a", "b"), "g")
    assert [b.group_label for b in boxes] == ["a"]


def test_box_stats_with_no_present_group_names_both_columns():
    with pytest.raises(DataError) as exc, pytest.warns(EmptyGroupWarning):
        box_stats((None, 1.0), "y", ("a", None), "g")
    assert str(exc.value) == "no group of 'g' has non-missing 'y' values"


def test_box_random_against_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 1000)
        values = [rng.uniform(-50, 50) for _ in range(n)]
        [box] = box_stats(values, "x")
        lo, q1, med, q3, hi, outliers = box_oracle(values)
        assert math.isclose(box.q1, q1, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(box.median, med, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(box.q3, q3, rel_tol=1e-12, abs_tol=1e-12)
        assert (box.min_whisker, box.max_whisker) == (lo, hi)
        assert sorted(box.outliers) == outliers


@st.composite
def _levels_on_fences(draw):
    """Per-level values with some exactly on both box fences and some one
    float beyond them.

    A level has 4m+1 values with q1 = vs[m] and q3 = vs[3m] exactly (type-7
    positions m and 3m are whole), so its fences are known before drawing
    the m values below q1 and the m above q3.
    """
    q1 = draw(st.floats(-1e3, 1e3))
    q3 = draw(st.floats(q1, 1e3))
    m = draw(st.integers(1, 4))
    lo_fence, hi_fence = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    low = [lo_fence, math.nextafter(lo_fence, -math.inf), q1]
    high = [hi_fence, math.nextafter(hi_fence, math.inf), q3]
    if lo_fence < q1:
        low.append(math.nextafter(lo_fence, math.inf))
    if hi_fence > q3:
        high.append(math.nextafter(hi_fence, -math.inf))
    middle = st.floats(q1, q3) if q1 < q3 else st.just(q1)
    return (
        draw(st.lists(st.sampled_from(low), min_size=m, max_size=m))
        + [q1]
        + draw(st.lists(middle, min_size=2 * m - 1, max_size=2 * m - 1))
        + [q3]
        + draw(st.lists(st.sampled_from(high), min_size=m, max_size=m))
    )


@given(
    levels=st.lists(_levels_on_fences(), min_size=1, max_size=3),
    data=st.data(),
)
def test_box_stats_match_a_linear_scan_on_the_fences(levels, data):
    # rows of every level, two empty levels, rows with no level and rows
    # with no value, in a drawn order
    rows = [(f"g{i}", v) for i, vs in enumerate(levels) for v in vs]
    rows += [("empty", None), ("void", None), ("void", None), (None, 1.0), (None, None),
             ("g0", None)]
    rows = data.draw(st.permutations(rows))
    groups, ys = [g for g, _ in rows], [v for _, v in rows]
    boxes, empty = box_scan_oracle(groups, ys, quantile_type7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = box_stats(ys, "y", groups, "g")
    assert [
        (b.group_label, b.min_whisker, b.q1, b.median, b.q3, b.max_whisker, b.outliers)
        for b in got
    ] == boxes
    assert [(w.category, str(w.message)) for w in caught] == [
        (EmptyGroupWarning, f"group {label!r} has no non-missing 'y' values; omitted")
        for label in empty
    ]


# -- linear_fit --------------------------------------------------------------


def test_fit_perfect_line():
    fit = linear_fit([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert math.isclose(fit.slope, 1.0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 0.0, abs_tol=1e-12)
    assert fit.n == 5


def test_fit_two_points():
    fit = linear_fit([0.0, 1.0], [0.0, 3.0])
    assert (fit.slope, fit.intercept) == (3.0, 0.0)


def test_fit_penguins_matches_normal_equations(penguins):
    xs = penguins.columns["flipper_length_mm"].values
    ys = penguins.columns["bill_length_mm"].values
    fit = linear_fit(list(xs), list(ys))
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    slope, intercept = normal_equations_fit([p[0] for p in pairs], [p[1] for p in pairs])
    assert math.isclose(fit.slope, slope, rel_tol=1e-9)
    assert math.isclose(fit.intercept, intercept, rel_tol=1e-9)
    # residual sum vanishes
    resid = sum(y - fit.predict(x) for x, y in pairs)
    scale = sum(abs(y) for _, y in pairs)
    assert abs(resid) <= 1e-9 * scale


def test_fit_pairwise_missing_removal():
    fit = linear_fit([1.0, None, 2.0, 3.0], [2.0, 9.0, None, 6.0])
    assert fit.n == 2  # only (1,2) and (3,6) survive
    assert math.isclose(fit.slope, 2.0, abs_tol=1e-12)


def test_fit_constant_x_errors():
    with pytest.raises(DataError, match="constant"):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_fit_too_few_points_errors():
    with pytest.raises(DataError):
        linear_fit([1.0], [1.0])


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3,
        max_size=50,
    ),
    st.randoms(use_true_random=False),
)
def test_fit_order_invariant(pairs, rng):
    xs = [p[0] for p in pairs]
    if max(xs) - min(xs) < 1e-3:  # keep x numerically non-constant
        xs[0] += 1.0
        pairs[0] = (xs[0], pairs[0][1])
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    a = linear_fit([p[0] for p in pairs], [p[1] for p in pairs])
    b = linear_fit([p[0] for p in shuffled], [p[1] for p in shuffled])
    assert math.isclose(a.slope, b.slope, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(a.intercept, b.intercept, rel_tol=1e-9, abs_tol=1e-9)


def _fit_bits(fit, x, y):
    """A fit's exact (slope, intercept, n) bits, or its DataError message."""
    try:
        slope, intercept, n = fit(x, y)
    except DataError as exc:
        return str(exc)
    return slope.hex(), intercept.hex(), n


_FIT_VALUES = st.none() | st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-1e6, 1e6)


@given(st.lists(st.tuples(_FIT_VALUES, _FIT_VALUES), max_size=40))
@example([])
@example([(None, 1.0), (2.0, None)])
@example([(1.0, 2.0)])
@example([(2.0, 1.0), (None, 5.0), (2.0, 3.0)])
@example([(1.0, 2.0), (3.0, None), (4.0, 8.0)])
def test_linear_fit_matches_oracle_bit_for_bit(pairs):
    x, y = [a for a, _ in pairs], [b for _, b in pairs]

    def fit(x, y):
        f = linear_fit(x, y)
        return f.slope, f.intercept, f.n

    assert _fit_bits(fit, x, y) == _fit_bits(linear_fit_oracle, x, y)


@pytest.mark.parametrize("x,y", [
    ([0.0, 1e155, 1.0], [1.0, 2.0, 3.0]),  # a square of x passes the largest double
    ([0.0, 1.0, 2.0], [1e308, 1e308, 1.0]),  # the sum of y does
], ids=["square", "sum"])
def test_linear_fit_with_overflowing_sums_is_degenerate(x, y):
    with pytest.raises(DataError) as exc:
        linear_fit(x, y)
    assert str(exc.value) == "the fit's sums overflow a double; rescale x or y"


# -- nice_ticks --------------------------------------------------------------


def test_ticks_species_count_axis():
    ticks = nice_ticks(0, 152, "x")
    assert list(ticks.positions) == [0.0, 50.0, 100.0, 150.0]
    assert list(ticks.labels) == ["0", "50", "100", "150"]


def test_ticks_unit_interval():
    # enumerated by hand: step 0.2 gives 6 multiples, the closest count to 5
    ticks = nice_ticks(0, 1, "x")
    assert list(ticks.positions) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert list(ticks.labels) == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_ticks_small_count_axis():
    assert list(nice_ticks(0, 5, "x").positions) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_ticks_negative_range():
    ticks = nice_ticks(-3, 7, "x")
    assert list(ticks.positions) == [-2.0, 0.0, 2.0, 4.0, 6.0]
    assert list(ticks.labels) == ["-2", "0", "2", "4", "6"]


def test_ticks_fractional_range():
    # enumerate: step 0.05 gives 0.7..0.9 -> 5 multiples, the best count
    ticks = nice_ticks(0.7, 0.9, "x")
    assert list(ticks.labels) == ["0.7", "0.75", "0.8", "0.85", "0.9"]


def test_ticks_degenerate_range_rejected():
    with pytest.raises(DataError):
        nice_ticks(3, 3, "x")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# float edges: zero, subnormals, float noise, magnitudes past 2^53, the largest doubles
_EDGES = st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.1, 0.3,
                          1.0, 2.0**53, 1e16, 1e300, 8.5e307, 1e308, 1.7976931348623157e308])


@st.composite
def _finite_ranges(draw):
    """Finite lo < hi: any two doubles, or a range from a float edge (or
    any double) that is a few ulps, a share of its magnitude, or any double
    wide."""
    lo = draw(_FINITE | _EDGES | _EDGES.map(float.__neg__))
    how = draw(st.sampled_from(("any", "ulps", "share")))
    if how == "ulps":
        hi = lo
        for _ in range(draw(st.integers(1, 2 * FLAT_ULPS))):
            hi = math.nextafter(hi, math.inf)
    elif how == "share":
        hi = lo + abs(lo) * 10.0 ** draw(st.integers(-17, 0)) * draw(st.floats(1, 10))
    else:
        hi = draw(_FINITE | _EDGES)
    lo, hi = sorted((lo, hi))
    assume(lo < hi and math.isfinite(hi))
    return lo, hi


@given(_finite_ranges())
@example((0.3, 0.1 + 0.2))
@example((1.0, 1.0 + 2.0**-52))
@example((0.1, 0.1 + 1e-15))
@example((0.0, 5e-324))
@example((1e16, 1e16 + 2))
@example((-1e308, 1e308))
@example((-8.5e307, 8.5e307))
@example((0.0, 1.7976931348623157e308))
def test_ticks_properties(case):
    # every finite range gets 2 to MAX_AXIS_TICKS ticks, or a DataError
    lo, hi = case
    try:
        ticks = nice_ticks(lo, hi, "x")
    except DataError as exc:
        # only a flat range, one 1e308 or more wide, or one too narrow for a
        # normal step is refused
        assert (is_flat(lo, hi) or hi - lo >= 1e308
                or hi - lo < 5 * sys.float_info.min), (lo, hi)
        assert str(exc) in ("column 'x' spans too narrow a range for an axis; rescale it",
                            "column 'x' spans too wide a range for an axis; rescale it")
        return
    positions = list(ticks.positions)
    assert 2 <= len(positions) <= MAX_AXIS_TICKS
    assert positions == sorted(set(positions))
    # the labels are exact decimals, the multiples of a step of 1, 2 or 5
    # times a power of ten, and each position is its label's double
    assert len(ticks.labels) == len(positions)
    decimals = [Decimal(label) for label in ticks.labels]
    step = decimals[1] - decimals[0]
    assert step.normalize().as_tuple().digits in ((1,), (2,), (5,))
    assert all(b - a == step for a, b in zip(decimals, decimals[1:]))
    assert all(d % step == 0 for d in decimals)
    assert positions == [float(d) for d in decimals]
    assert not any(lbl.endswith(".0") or "e" in lbl.lower() for lbl in ticks.labels)
    assert all(lo - float(step) <= p <= hi + float(step) for p in positions)
