"""polyrep benchmark: per-command latency of the five artifact commands.

    python3 perfbench/run.py --workload fixtures|many-marks|many-rows
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; paths resolve against the checkout that holds this
directory. The run

1. generates the workload's inputs from the seed (workloads.py);
2. times fresh interpreters importing polyrep.cli, half of them before and
   half after the workload, and reports the median (setup_s);
3. starts one child process (loop.py) that runs whole passes of
   `polyrep.cli.main(argv)` for `--seconds`: a closed loop, one client, one
   thread, timing the reference work of speed.py before each command. With
   `--trace 1` every second pass runs with per-layer spans
   (spans.py) installed;
4. checks the first pass's artifacts (checks.py) and that every pass wrote
   identical bytes;
5. prints every metric by name and unit, appends the full record to
   `.perfbench/runs.jsonl`, and prints as its last line
   `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
   end-to-end metrics, `--trace 1` the per-layer ones.

A command's `*_s_p50` (and `chart_s_p50`, for the bundle of five) is the
median per chart over the run's passes, averaged over the workload's
charts; `charts_per_s` is charts completed per second of command time.
The record also holds sample-level percentiles with their sample counts.

Every command time is reported at the reference speed of speed.py: the
measured seconds times REFERENCE_S over the median time of a fixed
reference work timed next to the command in the same run (per-layer self
times: over the run's median reference time). That cancels the speed swings
of a shared host, which move every command time of a run together. `setup_s` stays as measured: import time (file reads, unmarshal,
a fresh process) does not follow the reference, and scaling it made it
noisier. The record keeps the measured values (`end_to_end_measured`,
`per_layer_measured`) beside the reported ones.

`failed` counts commands whose outcome differs from the expected one; the
two known failures on the bundled fixtures (the box plot cannot be
sonified, the scatter's title is too wide for tactile) are expected
outcomes and count in `fail_ratio`, not in `failed`. The end-to-end
metric is its complement `ok_ratio`, which is never 0. `--smoke` shrinks the
synthetic inputs for the benchmark's own tests.

Exits 2 without a result when the checkout has no polyrep sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170.0
SELF_TIME_TOLERANCE = 0.05  # span self times vs traced command time
ERROR_CODES = ("csv", "spec", "data", "braille", "tactile", "io")
STATS_SPANS = ("bar_counts", "histogram", "box_stats", "linear_fit", "nice_ticks")
LAYER_SELF = (
    "cli.main", "chartspec.parse_spec", "chartspec.load_dataset", "dataset.parse_csv",
    "scene.layout", "verbalize.auto_alt", "svgout.emit_svg", "svgout.cvd_grid",
    "tactile.tactualize", "tactile.emit_pdf", "braille.to_braille", "pdfwrite.build_pdf",
    "sonify.sonify_points", "sonify.sonify_sweep", "sonify.write_wav",
)


# -- environment ---------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _metadata(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


# -- measurement ---------------------------------------------------------------


def measure_setup(env: dict[str, str], repeats: int) -> list[float]:
    """Wall seconds for fresh interpreters that import polyrep.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polyrep.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_child(plan: Path, work: Path, seconds: int, trace: int, env) -> dict:
    out = work / "child.json"
    subprocess.run(
        [sys.executable, str(HERE / "loop.py"), "--plan", str(plan), "--work", str(work),
         "--out", str(out), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def summary(values: list[float], n_charts: int) -> dict:
    """The workload's median, per-chart medians, the highest percentile with
    at least 10 samples beyond it (when that lies above the median), and the
    sample count.

    `values` holds whole passes, the charts in plan order. The median is
    taken per chart, over its passes, and then averaged over the charts, so
    every chart weighs the same and a median never straddles two charts of
    different cost.
    """
    per_chart = [statistics.median(values[i::n_charts]) for i in range(n_charts)]
    ordered = sorted(values)
    n = len(ordered)
    out = {"p50": statistics.fmean(per_chart), "per_chart_p50": per_chart,
           "passes": n // n_charts, "n": n, "tail": None}
    if n > 20:
        k = n - 10
        out["tail"] = {"percentile": 100.0 * k / n, "value": ordered[k - 1], "beyond": 10}
    return out


def end_to_end(timings: dict, child: dict, setup: list[float],
               n_charts: int) -> tuple[dict, dict]:
    """(metrics as printed, percentile details for the record), from the
    child's `measured` or `scaled` timings."""
    bundles = timings["bundles"]["untraced"]
    details = {"chart_s": summary(bundles, n_charts)}
    metrics = {
        "chart_s_p50": (details["chart_s"]["p50"], "s"),
        "charts_per_s": (len(bundles) / sum(bundles), "1/s"),
    }
    for command in workloads.COMMANDS:
        key = command.replace("-", "_") + "_s"
        details[key] = summary(timings["samples"]["untraced"][command], n_charts)
        metrics[key + "_p50"] = (details[key]["p50"], "s")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (child["peak_rss_kb"] / 1024.0, "MB")
    metrics["ok_ratio"] = (child["ok"] / child["attempted"], "ratio")
    details["fail_ratio"] = 1.0 - child["ok"] / child["attempted"]
    details["setup_s"] = {"p50": metrics["setup_s"][0], "n": len(setup), "values": setup}
    return metrics, details


def per_layer(child: dict, n_charts: int, scale: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, per traced chart, with self
    times multiplied by `scale`; and the problems found checking that the
    spans cover the traced time."""
    t = child["trace"]
    self_ns, calls, counts = t["self_ns"], t["calls"], t["counts"]
    traced = child["measured"]["bundles"]["traced"]
    n_traced = len(traced)  # traced charts

    def per(n, d):
        return n / d if d else 0.0

    m = {}
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (scale * self_ns.get(name, 0) / 1e9 / n_traced, "s/chart")
    m["stats.self_s"] = (
        scale * sum(self_ns.get(f"stats.{s}", 0) for s in STATS_SPANS) / 1e9 / n_traced,
        "s/chart")
    m["dataset.parse_csv.rows"] = (
        per(counts.get("dataset.parse_csv.rows", 0), calls.get("dataset.parse_csv", 0)),
        "rows/call")
    m["dataset.parse_csv.calls_per_chart"] = (calls.get("dataset.parse_csv", 0) / n_traced, "calls/chart")
    m["scene.layout.marks"] = (
        per(counts.get("scene.layout.marks", 0), calls.get("scene.layout", 0)), "marks/call")
    cvd_calls = calls.get("color.simulate_cvd", 0)
    m["color.simulate_cvd.calls"] = (cvd_calls / n_traced, "calls/chart")
    # one call per distinct color and deficiency panel would be enough
    m["color.simulate_cvd.calls_per_color"] = (
        per(cvd_calls, 4 * counts.get("svgout.cvd_grid.colors", 0)), "ratio")
    checks_n = calls.get("tactile.dot_touches_stroke", 0)
    pages = counts.get("tactile.tactualize.pages", 0)
    dots = counts.get("tactile.tactualize.dots", 0)
    m["tactile.dot_touches_stroke.calls"] = (checks_n / n_traced, "calls/chart")
    m["tactile.checks_per_dot"] = (per(checks_n, dots), "ratio")
    m["tactile.strokes"] = (per(counts.get("tactile.tactualize.strokes", 0), pages), "strokes/page")
    m["tactile.dots"] = (per(dots, pages), "dots/page")
    m["pdfwrite.bytes"] = (
        per(counts.get("pdfwrite.build_pdf.bytes", 0), calls.get("pdfwrite.build_pdf", 0)),
        "bytes/pdf")
    m["sonify.sonify_points.tones"] = (
        per(counts.get("sonify.sonify_points.tones", 0), calls.get("sonify.sonify_points", 0)),
        "tones/call")
    passes = child["passes"]["traced"]
    for code in ERROR_CODES:
        m[f"errors.{code}.count"] = (child["errors"]["traced"].get(code, 0) / passes, "count/pass")
    scaled = child["scaled"]["bundles"]
    m["trace.overhead_ratio"] = (
        summary(scaled["traced"], n_charts)["p50"]
        / summary(scaled["untraced"], n_charts)["p50"], "ratio")

    problems = []
    covered = sum(self_ns.values()) / 1e9
    if abs(covered - sum(traced)) > SELF_TIME_TOLERANCE * sum(traced):
        problems.append(f"span self times sum to {covered:.4f} s, traced command time is "
                        f"{sum(traced):.4f} s (tolerance {SELF_TIME_TOLERANCE:.0%})")
    return m, problems


# -- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--record", type=Path, default=STATE / "runs.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args()

    if not (ROOT / "src" / "polyrep" / "cli.py").is_file() or not (
        ROOT / "tests" / "fixtures"
    ).is_dir():
        print(f"perfbench: no polyrep sources under {ROOT}", file=sys.stderr)
        return 2

    env = _env()
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        charts = workloads.build(args.workload, ROOT, work / "inputs", args.seed, args.smoke)
        plan = work / "plan.json"
        plan.write_text(json.dumps({"charts": [c.to_json() for c in charts]}), encoding="utf-8")
        # half the import probes before the workload and half after, so
        # they sample the machine over the whole run
        repeats = 1 if args.smoke else SETUP_REPEATS // 2
        setup = measure_setup(env, repeats)
        child = run_child(plan, work, args.seconds, args.trace, env)
        setup += measure_setup(env, repeats)
        problems = list(child["unexpected"]) + list(child["nondeterministic"])
        for chart in charts:
            problems += checks.check_chart(work / "first", chart.to_json(),
                                           child["outcomes"].get(chart.name, {}))
        e2e, details = end_to_end(child["scaled"], child, setup, len(charts))
        e2e_measured, _ = end_to_end(child["measured"], child, setup, len(charts))
        run_scale = speed.scale(child["reference_s"])
        layers, layers_measured, span_problems = {}, {}, []
        if args.trace:
            layers, span_problems = per_layer(child, len(charts), run_scale)
            layers_measured, _ = per_layer(child, len(charts), 1.0)
        problems += span_problems
        meta = _metadata(child["numpy"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: (layers if args.trace else e2e)[name] for name in names}
    failed = child["failed"] + len(child["nondeterministic"])
    correct = not problems and failed == 0
    record = {
        "schema": 1,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "meta": meta,
        "client": {"loop": "closed", "clients": 1, "threads": 1, "processes": 1,
                   "wait_s": 0.0},
        "passes": child["passes"], "attempted": child["attempted"], "failed": failed,
        "correct": correct, "problems": problems[:50],
        "errors": child["errors"], "outcomes": child["outcomes"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        # measured seconds, before scaling to the reference speed
        "end_to_end_measured": {k: {"value": v, "unit": u} for k, (v, u) in e2e_measured.items()},
        "per_layer_measured": {k: {"value": v, "unit": u}
                               for k, (v, u) in layers_measured.items()},
        "percentiles": details,
        "speed": {
            "reference_s": speed.REFERENCE_S, "neighbours": speed.NEIGHBOURS,
            "run_scale": run_scale, "run_references": len(child["reference_s"]),
            "run_reference_p50_s": statistics.median(child["reference_s"]),
        },
        "artifacts": child["hashes"],
    }
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with args.record.open("a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    measured = layers_measured if args.trace else e2e_measured
    print(f"{'':40s} {'reported':>14s} {'measured':>14s}  (run reference speed scale "
          f"{run_scale:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {measured[name][0]:14.6g} {unit}")
    if args.trace:
        top = sorted((k for k in layers if k.endswith(".self_s")), key=lambda k: -layers[k][0])
        print("top self time: " + ", ".join(f"{k} {layers[k][0]:.4g} s" for k in top[:3]))
        print("wait time: 0 s in every layer (one thread, no queue)")
    else:
        print(f"{'fail_ratio':40s} {details['fail_ratio']:14.6g} ratio "
              f"({child['attempted'] - child['ok']} of {child['attempted']} commands)")
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
