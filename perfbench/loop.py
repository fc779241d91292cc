"""Closed-loop workload process: one client, one thread, in-process CLI.

Runs whole passes over the plan's charts until the time is up (at least two
passes), each chart through the five artifact commands via
`polyrep.cli.main(argv)`, each command preceded by one timing of the
reference work (speed.py), and writes timings, reference times, outcomes,
artifact hashes and, in traced passes, span totals to a JSON file. Started by run.py with
PYTHONPATH pointing at the checkout's src/.

    python3 perfbench/loop.py --plan PLAN.json --work DIR --out RESULT.json
                              --seconds N --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import polyrep.cli

import spans
import speed
from workloads import COMMANDS

_ERROR = re.compile(r"polyrep: error\[(\w+)\]")


def _argv(command: str, spec: str, out: Path, name: str) -> tuple[list[str], list[Path]]:
    """CLI arguments and the files the command writes."""
    base = out / name
    if command == "render":
        files = [Path(f"{base}.svg"), Path(f"{base}.svg.alt.txt")]
        return ["render", spec, "-o", str(files[0])], files
    if command == "cvd-grid":
        files = [Path(f"{base}.cvd.svg"), Path(f"{base}.cvd.svg.alt.txt")]
        return ["cvd-grid", spec, "-o", str(files[0])], files
    if command == "alt":
        return ["alt", spec], [Path(f"{base}.alt.stdout.txt")]
    if command == "sonify":
        files = [Path(f"{base}.wav")]
        return ["sonify", spec, "--categorical", "-o", str(files[0])], files
    files = [Path(f"{base}.pdf")]
    return ["tactile", spec, "-o", str(files[0])], files


def _run_command(argv: list[str]) -> tuple[float, str, str]:
    """(seconds, outcome, output): "ok" and stdout, or the error code and
    stderr (a traceback when the CLI itself raised)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start each command from a settled heap, as a fresh CLI process does
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = polyrep.cli.main(argv)
    except Exception:  # a crash is an outcome to report, not to hide
        dt = perf_counter() - t0
        return dt, "crash", traceback.format_exc()
    dt = perf_counter() - t0
    if rc == 0:
        return dt, "ok", out.getvalue()
    m = _ERROR.search(err.getvalue())
    return dt, m.group(1) if m else f"exit{rc}", err.getvalue()


def _digest(path: Path) -> dict | None:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _timings(timeline: list[tuple[bool, str, float]], factors: list[float]) -> dict:
    """Seconds times factor, per command and per chart (the sum of its
    commands), split into untraced and traced passes."""
    samples = {False: {c: [] for c in COMMANDS}, True: {c: [] for c in COMMANDS}}
    bundles = {False: [], True: []}
    for i in range(0, len(timeline), len(COMMANDS)):
        chart = [(cmd, dt * f) for (_, cmd, dt), f in
                 zip(timeline[i:i + len(COMMANDS)], factors[i:i + len(COMMANDS)])]
        traced = timeline[i][0]
        for command, dt in chart:
            samples[traced][command].append(dt)
        bundles[traced].append(sum(dt for _, dt in chart))
    return {
        "samples": {"untraced": samples[False], "traced": samples[True]},
        "bundles": {"untraced": bundles[False], "traced": bundles[True]},
    }


def run(plan: dict, work: Path, seconds: float, trace: bool) -> dict:
    charts = plan["charts"]
    first_dir, rest_dir = work / "first", work / "rest"
    first_dir.mkdir(parents=True, exist_ok=True)
    rest_dir.mkdir(parents=True, exist_ok=True)

    timeline: list[tuple[bool, str, float]] = []  # (traced, command, seconds) in run order
    reference_s: list[float] = []  # one timing of the reference work before each command
    outcomes: dict[str, dict[str, str]] = {}
    unexpected: list[str] = []
    hashes: dict[str, dict[str, dict]] = {}
    nondeterministic: list[str] = []
    attempted = ok = 0
    errors = {False: {}, True: {}}
    passes = {False: 0, True: 0}
    tracer = spans.Tracer()

    start = perf_counter()
    n_pass = 0
    while n_pass < 2 or perf_counter() - start < seconds:
        traced = trace and n_pass % 2 == 1
        out_dir = first_dir if n_pass == 0 else rest_dir
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            for chart in charts:
                name = chart["name"]
                for command in COMMANDS:
                    argv, files = _argv(command, chart["spec"], out_dir, name)
                    for f in files:
                        f.unlink(missing_ok=True)
                    reference_s.append(speed.reference())
                    dt, outcome, text = _run_command(argv)
                    if command == "alt" and outcome == "ok":
                        files[0].write_text(text, encoding="utf-8")
                    timeline.append((traced, command, dt))
                    attempted += 1
                    ok += outcome == "ok"
                    if outcome != "ok":
                        errors[traced][outcome] = errors[traced].get(outcome, 0) + 1
                    key = f"{name}/{command}"
                    expected = chart["expect"].get(command, "ok")
                    if outcome != expected:
                        unexpected.append(f"{key}: expected {expected}, got {outcome}: "
                                          f"{text.strip()[-300:]}")
                    outcomes.setdefault(name, {})[command] = outcome
                    for f in files:
                        digest = _digest(f)
                        if digest is None:
                            continue
                        seen = hashes.setdefault(name, {}).setdefault(f.name, digest)
                        if seen != digest:
                            nondeterministic.append(f"{f.name} differs in pass {n_pass}")
        passes[traced] += 1
        n_pass += 1
    shutil.rmtree(rest_dir)

    return {
        "passes": {"untraced": passes[False], "traced": passes[True]},
        "measured": _timings(timeline, [1.0] * len(timeline)),
        "scaled": _timings(timeline, speed.factors(reference_s)),
        "reference_s": reference_s,
        "attempted": attempted,
        "ok": ok,
        "errors": {"untraced": errors[False], "traced": errors[True]},
        "outcomes": outcomes,
        "failed": len(unexpected),
        "unexpected": unexpected[:20],
        "hashes": hashes,
        "nondeterministic": nondeterministic,
        "trace": {
            "self_ns": dict(tracer.self_ns),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        },
        "numpy": numpy.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    result = run(plan, args.work, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
