"""Alt-text generation: an automatic template grammar plus a manual formula.

The automatic grammar describes a chart sentence by sentence: metadata,
the two axes with their tick labels, the chart type, then one sentence per
mark group. It reads a `chartspec.ChartSummary`: the spec, the bound
`ChartValues` and the data-space axes that `chartspec.summarize` computes.
`scene.layout` draws that same summary for the SVG and tactile page, so the
alt text restates no fact of its own and needs no layout; the trend is the
sign of `ChartValues.fit()`. The checklist looks in a text for the axis
titles of that summary too. Bar charts follow the canonical wording

    This is an untitled chart with no subtitle or caption.
    It has x-axis 'species' with labels Adelie, Chinstrap and Gentoo.
    ...
    Bar 1 is centered horizontally at Adelie, and spans vertically from 0 to 152.

exactly; histogram, boxplot, scatter and line wordings are analogous
house templates (documented in the README, not canonical elsewhere).
Continuous ranges in scatter/line summaries are rounded to two significant
figures with an "about" prefix; counts stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .chartspec import ChartSummary
from .dataset import format_number
from .errors import DataError, SpecError
from .stats import round_sig


@dataclass(frozen=True)
class AltText:
    sentences: tuple[str, ...]

    def __post_init__(self):
        for s in self.sentences:
            if not s.endswith("."):
                raise DataError(f"alt sentence must end with a period: {s!r}")

    @property
    def flattened(self) -> str:
        return "\n".join(self.sentences)


@dataclass(frozen=True)
class ManualAltInput:
    chart_type: str
    data_desc: str
    reason: str
    data_link: str | None = None


def join_labels(labels: list[str] | tuple[str, ...]) -> str:
    """Comma-separated with ' and ' before the last item, no Oxford comma."""
    items = list(labels)
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _plural(n: int, noun: str, plural: str | None = None) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {plural or noun + 's'}"


def _metadata_sentence(title, subtitle, caption) -> str:
    head = (
        f"This is a chart titled '{title}'" if title else "This is an untitled chart"
    )
    if subtitle and caption:
        tail = f"with subtitle '{subtitle}' and caption '{caption}'"
    elif subtitle:
        tail = f"with subtitle '{subtitle}' and no caption"
    elif caption:
        tail = f"with no subtitle and caption '{caption}'"
    else:
        tail = "with no subtitle or caption"
    return f"{head} {tail}."


def _about(v: float) -> str:
    return format_number(round_sig(v, 2))


def auto_alt(summary: ChartSummary) -> AltText:
    """Generate structured alt text from a chart summary.

    Titles and the chart type come from the spec; bars, bins, boxes, point
    and dropped-row counts, ranges and the trend from the values; the axes
    from the summary's. A scatter or line chart whose fit is degenerate
    (constant x) gets no trend sentence.
    """
    spec, values = summary.spec, summary.values
    x_name, y_name = summary.x_axis.title, summary.y_axis.title
    s: list[str] = [_metadata_sentence(spec.title, spec.subtitle, spec.caption)]
    if summary.x_axis.labels:
        s.append(
            f"It has x-axis '{x_name}' with labels "
            f"{join_labels(summary.x_axis.labels)}."
        )
    s.append(
        f"It has y-axis '{y_name}' with labels "
        f"{join_labels(summary.y_axis.labels)}."
    )

    kind = spec.chart_type
    if kind == "bar":
        bars = values.bars
        s.append(f"The chart is a bar chart with {_plural(len(bars), 'vertical bar')}.")
        for i, (label, count) in enumerate(bars, start=1):
            s.append(
                f"Bar {i} is centered horizontally at {label}, "
                f"and spans vertically from 0 to {format_number(count)}."
            )
    elif kind == "histogram":
        bins = values.bins
        s.append(f"The chart is a histogram with {_plural(len(bins), 'bin')}.")
        for i, (lo, hi, count) in enumerate(bins, start=1):
            s.append(
                f"Bin {i} spans horizontally from {format_number(lo)} to "
                f"{format_number(hi)}, and vertically from 0 to {format_number(count)}."
            )
    elif kind == "boxplot":
        boxes = values.boxes
        s.append(f"The chart is a box plot with {_plural(len(boxes), 'box', 'boxes')}.")
        for i, box in enumerate(boxes, start=1):
            base = (
                f"Box {i} summarizes {box.group_label} with median "
                f"{format_number(box.median)}, quartiles {format_number(box.q1)} "
                f"to {format_number(box.q3)}, and whiskers "
                f"{format_number(box.min_whisker)} to {format_number(box.max_whisker)}"
            )
            if box.outliers:
                base += f", plus {_plural(len(box.outliers), 'outlier')}"
            s.append(base + ".")
    elif kind in ("scatter", "line"):
        noun = "scatter plot" if kind == "scatter" else "line chart"
        s.append(f"The chart is a {noun} with {_plural(len(values.rows), 'point')}.")
        (x_lo, x_hi), (y_lo, y_hi) = values.ranges
        s.append(
            f"Values of '{x_name}' vary from about {_about(x_lo)} to "
            f"{_about(x_hi)}, and values of '{y_name}' vary from about "
            f"{_about(y_lo)} to {_about(y_hi)}."
        )
        try:
            slope = values.fit().slope
        except DataError:  # constant x: no trend to state
            pass
        else:
            if slope > 0:
                kind_phrase = "a positive relationship"
            elif slope < 0:
                kind_phrase = "a negative relationship"
            else:
                kind_phrase = "no clear relationship"
            s.append(
                f"Overall there is {kind_phrase} between "
                f"'{x_name}' and '{y_name}'."
            )
        if spec.group:
            s.append(
                f"Points are grouped by '{spec.group}' as "
                f"{join_labels(summary.group_levels)}."
            )
    else:
        raise SpecError(f"no alt-text grammar for chart type {kind!r}")

    if values.dropped_rows == 1:
        s.append("1 row with missing values was dropped.")
    elif values.dropped_rows > 1:
        s.append(f"{values.dropped_rows} rows with missing values were dropped.")
    return AltText(tuple(s))


def manual_alt(spec: ManualAltInput) -> AltText:
    """Instances of the one-line formula
    "<Chart type> of <type of data> where <reason for including chart>."
    plus a data pointer when a link is given."""
    fields = {
        "chart_type": spec.chart_type,
        "data_desc": spec.data_desc,
        "reason": spec.reason,
    }
    cleaned = {}
    for name, value in fields.items():
        v = (value or "").strip().rstrip(".")
        if not v:
            raise SpecError(f"manual alt text requires a non-empty {name}")
        cleaned[name] = v
    sentences = [
        f"{cleaned['chart_type']} of {cleaned['data_desc']} where {cleaned['reason']}."
    ]
    if spec.data_link:
        sentences.append(f"Data available at {spec.data_link.strip()}.")
    return AltText(tuple(sentences))


_TYPE_WORDS = (
    "scatterplot",
    "scatter plot",
    "scatter chart",
    "bar chart",
    "bar graph",
    "histogram",
    "boxplot",
    "box plot",
    "line chart",
    "line graph",
    "line plot",
    "pie chart",
)
_MEANING_STEMS = (
    "relationship",
    "increase",
    "decrease",
    "positive",
    "negative",
    "higher",
    "lower",
    "vary",
    "varies",
)


@dataclass(frozen=True)
class ChecklistReport:
    has_type: bool
    has_axes: bool
    has_scale: bool
    has_meaning: bool

    @property
    def complete(self) -> bool:
        return self.has_type and self.has_axes and self.has_scale and self.has_meaning


def checklist_score(alt: AltText | str, summary: ChartSummary) -> ChecklistReport:
    """Advisory content check: chart type, axis variables, scale, meaning.

    The axis variables are the summary's axis titles (an ungrouped box
    plot's x axis has none). They match token-wise (underscores and case
    ignored), so 'flipper_length_mm' is found in "flipper length in mm".
    """
    text = (alt.flattened if isinstance(alt, AltText) else alt).lower()
    has_type = any(w in text for w in _TYPE_WORDS)

    def axis_present(name: str) -> bool:
        tokens = [t for t in re.split(r"[^a-z0-9]+", name.lower()) if t]
        return bool(tokens) and all(t in text for t in tokens)

    titles = (summary.x_axis.title, summary.y_axis.title)
    has_axes = all(axis_present(t) for t in titles if t)
    has_scale = len(re.findall(r"\d+(?:\.\d+)?", text)) >= 2
    has_meaning = any(stem in text for stem in _MEANING_STEMS)
    return ChecklistReport(has_type, has_axes, has_scale, has_meaning)
