"""Command-line surface: one chart spec in, any representation out.

    polyrep render      spec.json [-o chart.svg]     SVG + .alt.txt sidecar
    polyrep cvd-grid    spec.json [-o grid.svg]      4-panel simulation grid
    polyrep alt         spec.json [--json]           alt text to stdout
    polyrep sonify      spec.json [-o chart.wav]     stereo WAV
    polyrep tactile     spec.json [-o chart.pdf]     emboss-ready PDF
    polyrep audit-palette <colors> [--threshold N]   distinguishability audit

Exit codes: 0 success, 1 validation error (including a failing audit),
2 I/O error. Errors print to stderr as ``polyrep: error[<code>]: ...``.

A chart command is the shared runner `_run` plus its emitter: the runner
parses, binds and summarizes once and writes what the emitter makes.

Each command imports the modules it runs when it runs, and builds only
its own argument parser, so a process that makes one artifact never loads
the code of the others nor parses for them.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .errors import DataError, PolyrepError, SpecError

TYPE_CHECKING = False  # type checkers read it as true; typing is slow to import
if TYPE_CHECKING:
    from .chartspec import ChartSummary


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; our contract says 1
        raise SpecError(message)


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=80)


def _spec_args(p, output_help: str | None = None) -> None:
    """The spec argument, and given `output_help`, the -o artifact path."""
    p.add_argument("spec", help="chart spec JSON file")
    if output_help:
        p.add_argument("-o", "--output", help=output_help)


def _alt_args(p) -> None:
    _spec_args(p)
    p.add_argument("--json", action="store_true", help="emit the sentence list as JSON")


def _sonify_args(p) -> None:
    from .sonify import SonifyConfig as defaults

    _spec_args(p, "output WAV path (default: <spec>.wav)")
    p.add_argument(
        "--mode",
        choices=("discrete", "sweep", "regression"),
        help="tone mode (default: sweep for line charts, else discrete)",
    )
    for flag, kind, default, what in (
        ("--duration", float, defaults.duration_s, "seconds"),
        ("--fmin", float, defaults.f_min, "low pitch Hz"),
        ("--fmax", float, defaults.f_max, "high pitch Hz"),
        ("--rate", int, defaults.sample_rate, "sample rate Hz"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{what} (default %(default)g)")
    p.add_argument("--log-pitch", action="store_true", help="logarithmic pitch mapping")
    p.add_argument(
        "--categorical",
        action="store_true",
        help="ignored: bar charts and histograms play without it",
    )


def _tactile_args(p) -> None:
    from .pdfwrite import PAPER_SIZES_MM

    _spec_args(p, "output PDF path (default: <spec>.pdf)")
    p.add_argument(
        "--paper",
        choices=tuple(PAPER_SIZES_MM),
        default="letter",
        help="page size (default letter)",
    )
    p.add_argument(
        "--preview",
        action="store_true",
        help="also write a sighted-verification SVG next to the PDF",
    )


def _audit_palette_args(p) -> None:
    from .color import AUDIT_THRESHOLD

    p.add_argument(
        "colors",
        help="comma-separated #RRGGBB list, or the palette name 'okabe-ito'",
    )
    p.add_argument("--threshold", type=float, default=AUDIT_THRESHOLD,
                   help="minimum deltaE (default %(default)g)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given the name of a `command`, only that
    command's parser is built under the top level (its help, usage and
    errors are the same as in the full tree); otherwise every command's."""
    parser = _Parser(
        prog="polyrep",
        description="Render one chart spec into coordinated accessible "
        "representations: SVG, alt text, audio, tactile PDF.",
        formatter_class=_formatter,
    )
    parser.add_argument("--version", action="version", version=f"polyrep {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        help_text, add_args, _ = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text, formatter_class=_formatter))
    return parser


def _run(emit, args) -> int:
    """Run a chart command: parse, read, bind and summarize once (sonify
    refuses a box plot before its data is read), then write each artifact
    `emit(summary, args)` makes, a (suffix, bytes, alt text or None), as it
    is made, with the alt text in a ``<path>.alt.txt`` sidecar. The first
    goes to -o or to the spec's stem plus its suffix, a later one to the
    first's path with its own suffix."""
    from .chartspec import bind, load_dataset, parse_spec, summarize

    path = Path(args.spec)
    spec = parse_spec(path.read_bytes())
    if args.command == "sonify" and spec.chart_type == "boxplot":
        raise DataError("cannot sonify a boxplot chart")
    summary = summarize(spec, bind(spec, load_dataset(spec, base_dir=path.parent)))
    first = None
    for suffix, payload, alt in emit(summary, args):
        out = first.with_suffix(suffix) if first else Path(args.output or path.stem + suffix)
        first = first or out
        out.write_bytes(payload)
        print(f"wrote {out}")
        if alt is not None:
            sidecar = Path(f"{out}.alt.txt")
            sidecar.write_text(alt.flattened + "\n", encoding="utf-8")
            print(f"wrote {sidecar}")
    return 0


def _render(summary: ChartSummary, args):
    from .scene import layout
    from .svgout import emit_svg
    from .verbalize import auto_alt

    scene = layout(summary)
    alt = auto_alt(summary)
    yield ".svg", emit_svg(scene, alt), alt


def _cvd_grid(summary: ChartSummary, args):
    from .scene import layout
    from .svgout import cvd_grid, grid_alt
    from .verbalize import auto_alt

    scene = layout(summary)
    alt = auto_alt(summary)
    yield ".cvd.svg", cvd_grid(scene, alt), grid_alt(alt)


def _alt(summary: ChartSummary, args):
    import json

    from .verbalize import auto_alt

    alt = auto_alt(summary)
    print(json.dumps(list(alt.sentences), indent=2) if args.json else alt.flattened)
    return ()


def _sonify(summary: ChartSummary, args):
    from .sonify import SonifyConfig, sonify_points, sonify_sweep, write_wav

    xs, ys = summary.values.points
    cfg = SonifyConfig(
        duration_s=args.duration,
        sample_rate=args.rate,
        f_min=args.fmin,
        f_max=args.fmax,
        log_pitch=args.log_pitch,
    )
    mode = args.mode or ("sweep" if summary.spec.chart_type == "line" else "discrete")
    if mode == "regression":
        ys = list(map(summary.values.fit().predict, xs))
    play = sonify_points if mode == "discrete" else sonify_sweep
    yield ".wav", write_wav(play(xs, ys, cfg)), None


def _tactile(summary: ChartSummary, args):
    from .scene import layout
    from .tactile import TactileLayout, emit_pdf, emit_preview_svg, tactualize
    from .verbalize import auto_alt

    page = tactualize(layout(summary), TactileLayout.for_paper(args.paper))
    yield ".pdf", emit_pdf(page), None
    if args.preview:
        yield ".preview.svg", emit_preview_svg(page, auto_alt(summary)), None


def _cmd_audit_palette(args) -> int:
    from .color import audit_palette, is_palette_name, parse_palette

    colors = args.colors
    if not is_palette_name(colors):
        colors = [h.strip() for h in colors.split(",") if h.strip()]
    report = audit_palette(parse_palette(colors), threshold=args.threshold)
    if args.json:
        print(report.to_json())
    else:
        use_color = sys.stdout.isatty() and not os.environ.get("POLYREP_NO_COLOR")
        print(report.to_text(color=use_color))
    return 0 if report.passed else 1


# name: (help line, argument builder, runner), in `--help` order
_COMMANDS = {
    "render": ("write an SVG chart plus its .alt.txt sidecar",
               lambda p: _spec_args(p, "output SVG path (default: <spec>.svg)"),
               partial(_run, _render)),
    "cvd-grid": ("write a four-panel color-deficiency simulation SVG",
                 lambda p: _spec_args(p, "output SVG path (default: <spec>.cvd.svg)"),
                 partial(_run, _cvd_grid)),
    "alt": ("print generated alt text", _alt_args, partial(_run, _alt)),
    "sonify": ("write a stereo sonification WAV", _sonify_args, partial(_run, _sonify)),
    "tactile": ("write an emboss-ready tactile PDF", _tactile_args, partial(_run, _tactile)),
    "audit-palette": ("check palette distinguishability under CVD simulation",
                      _audit_palette_args, _cmd_audit_palette),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command][2](args)
    except PolyrepError as exc:
        print(f"polyrep: error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"polyrep: error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
