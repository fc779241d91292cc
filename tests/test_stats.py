from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import example, given
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
from polyrep.dataset import Column, Dataset
from polyrep.errors import DataError
from polyrep.stats import (
    EmptyGroupWarning,
    bar_counts,
    box_stats,
    histogram,
    linear_fit,
    nice_ticks,
    quantile_type7,
)


def numeric_ds(values):
    return Dataset({"x": Column("numeric", tuple(values))}, len(values))


def categorical_ds(values):
    return Dataset({"x": Column("categorical", tuple(values))}, len(values))


# -- bar_counts --------------------------------------------------------------


def test_bar_counts_penguins(penguins):
    assert bar_counts(penguins, "species") == [
        ("Adelie", 152),
        ("Chinstrap", 68),
        ("Gentoo", 124),
    ]


def test_bar_counts_empty():
    assert bar_counts(categorical_ds([]), "x") == []


def test_bar_counts_excludes_missing():
    # hand count: a=2, b=1, one NA excluded everywhere
    ds = categorical_ds(["a", "b", None, "a", "c"])
    assert bar_counts(ds, "x") == [("a", 2), ("b", 1), ("c", 1)]


def test_bar_counts_alpha_order():
    ds = categorical_ds(["b", "a", "b"])
    assert bar_counts(ds, "x", sort_order="alpha") == [("a", 1), ("b", 2)]


def test_bar_counts_numeric_column_directs_to_histogram():
    with pytest.raises(DataError, match="histogram"):
        bar_counts(numeric_ds([1.0]), "x")


# -- histogram ---------------------------------------------------------------


def test_histogram_forced_two_bins():
    assert histogram(numeric_ds([0.0, 1.0, 2.0, 3.0]), "x", bins=2) == [
        (0.0, 1.5, 2),
        (1.5, 3.0, 2),
    ]


def test_histogram_degenerate_single_value():
    assert histogram(numeric_ds([7.0, 7.0, 7.0]), "x") == [(6.5, 7.5, 3)]


def test_histogram_all_missing_errors():
    with pytest.raises(DataError):
        histogram(numeric_ds([None, None]), "x")


def test_histogram_penguins_default_bins_sum(penguins):
    bins = histogram(penguins, "flipper_length_mm")
    assert sum(c for _, _, c in bins) == 342
    values = penguins.columns["flipper_length_mm"].non_missing()
    assert bins == histogram_oracle(values, len(bins))


@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ),
    st.integers(1, 20),
)
@example([0.0, 5e-324], 2)
def test_histogram_matches_oracle_and_sums(values, k):
    ds = numeric_ds(values)
    span = max(values) - min(values)
    if span > 0 and span / k == 0:
        # a range a few subnormals wide has no bin width: refused, not binned
        with pytest.raises(DataError, match="too narrow a range"):
            histogram(ds, "x", bins=k)
        return
    bins = histogram(ds, "x", bins=k)
    assert sum(c for _, _, c in bins) == len(values)
    assert bins == histogram_oracle(values, k if min(values) < max(values) else k)


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
    ds = numeric_ds([None] * n_missing + values)  # missing values are dropped
    if (max(values) - min(values)) / k == 0:
        with pytest.raises(DataError, match="too narrow"):
            histogram(ds, "x", bins=k)
        return
    assert histogram(ds, "x", bins=k) == histogram_loop_oracle(values, k)


def test_histogram_range_too_narrow_for_its_bins():
    # (hi - lo) / k underflows to zero: an error, not a division by zero
    with pytest.raises(DataError, match="too narrow a range for 2 bins"):
        histogram(numeric_ds([1e-323, 1.5e-323]), "x", bins=2)
    assert histogram(numeric_ds([1e-323, 1.5e-323]), "x", bins=1) == [
        (1e-323, 1.5e-323, 2)
    ]


def test_histogram_range_too_wide_for_its_bins():
    # hi - lo overflows to infinity: an error, not a NaN bin index
    with pytest.raises(DataError) as exc:
        histogram(numeric_ds([-1e308, 1e308]), "x", bins=2)
    assert str(exc.value) == "column 'x' spans too wide a range for 2 bins; rescale it"


# -- box_stats ---------------------------------------------------------------


def test_box_symmetric_small_case():
    [box] = box_stats(numeric_ds([1.0, 2.0, 3.0, 4.0, 5.0]), "x")
    assert (box.q1, box.median, box.q3) == (2.0, 3.0, 4.0)
    assert (box.min_whisker, box.max_whisker) == (1.0, 5.0)
    assert box.outliers == ()


def test_box_outlier_flagged():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    # hand oracle: type-7 on sorted data
    q1 = quantile_oracle(values, 0.25)
    q3 = quantile_oracle(values, 0.75)
    assert (q1, q3) == (2.0, 4.0)
    [box] = box_stats(numeric_ds(values), "x")
    assert box.outliers == (100.0,)
    assert box.max_whisker == 4.0


def test_box_penguins_by_species_matches_oracle(penguins):
    boxes = box_stats(penguins, "body_mass_g", "species")
    assert [b.group_label for b in boxes] == ["Adelie", "Chinstrap", "Gentoo"]
    mass = penguins.columns["body_mass_g"].values
    species = penguins.columns["species"].values
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
    ds = Dataset(
        {
            "g": Column("categorical", ("a", "a", "b")),
            "y": Column("numeric", (1.0, 2.0, None)),
        },
        3,
    )
    with pytest.warns(EmptyGroupWarning, match="'b'"):
        boxes = box_stats(ds, "y", "g")
    assert [b.group_label for b in boxes] == ["a"]


def test_box_random_against_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 1000)
        values = [rng.uniform(-50, 50) for _ in range(n)]
        [box] = box_stats(numeric_ds(values), "x")
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
    ds = Dataset(
        {"g": Column("categorical", tuple(groups)), "y": Column("numeric", tuple(ys))},
        len(rows),
    )
    boxes, empty = box_scan_oracle(groups, ys, quantile_type7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = box_stats(ds, "y", "g")
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
    ticks = nice_ticks(0, 152)
    assert list(ticks.positions) == [0.0, 50.0, 100.0, 150.0]
    assert list(ticks.labels) == ["0", "50", "100", "150"]


def test_ticks_unit_interval():
    # enumerated by hand: step 0.2 gives 6 multiples, the closest count to 5
    ticks = nice_ticks(0, 1)
    assert list(ticks.positions) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert list(ticks.labels) == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_ticks_small_count_axis():
    assert list(nice_ticks(0, 5).positions) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_ticks_negative_range():
    ticks = nice_ticks(-3, 7)
    assert list(ticks.positions) == [-2.0, 0.0, 2.0, 4.0, 6.0]
    assert list(ticks.labels) == ["-2", "0", "2", "4", "6"]


def test_ticks_fractional_range():
    # enumerate: step 0.05 gives 0.7..0.9 -> 5 multiples, the best count
    ticks = nice_ticks(0.7, 0.9)
    assert list(ticks.labels) == ["0.7", "0.75", "0.8", "0.85", "0.9"]


def test_ticks_degenerate_range_rejected():
    with pytest.raises(DataError):
        nice_ticks(3, 3)


@given(
    st.floats(1e-3, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)
def test_ticks_properties(span, offset_ratio):
    # realistic axes: the range start is at most ~1e6 spans away from zero,
    # keeping tick arithmetic clear of float cancellation pathologies
    lo = span * offset_ratio
    hi = lo + span
    if not (lo < hi) or not math.isfinite(hi):
        return
    ticks = nice_ticks(lo, hi)
    positions = list(ticks.positions)
    assert positions == sorted(set(positions))
    assert all(lo - span * 1e-6 <= p <= hi + span * 1e-6 for p in positions)
    # step is 1, 2 or 5 times a power of ten and every position is a multiple
    step = min(b - a for a, b in zip(positions, positions[1:]))
    mant = step / (10.0 ** math.floor(math.log10(step)))
    assert min(abs(mant - m) for m in (1.0, 2.0, 5.0, 10.0)) < 1e-6
    for p in positions:
        ratio = p / step
        assert abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))
    assert len(ticks.labels) == len(positions)
    assert not any(lbl.endswith(".0") for lbl in ticks.labels)
