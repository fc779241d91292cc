"""Summarize benchmark records across seeds, and extend the trajectory.

    python3 perfbench/summarize.py RUNS.jsonl [--append perfbench/trajectory.jsonl
                                               --label TEXT]

For every workload and trace mode in RUNS.jsonl (as run.py appends them),
prints each metric's median, quartiles and spread, the spread being
(q3 - q1) / median with the quartiles of `statistics.quantiles(n=4)`, and
marks end-to-end spreads above a third of the metric's bound in
BENCHMARK.json. `--append` adds one summary line per workload and trace mode
to the trajectory file; earlier lines are never rewritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(records: list[dict]) -> list[dict]:
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    out = []
    for (workload, trace), runs in sorted(groups.items()):
        section = "per_layer" if trace else "end_to_end"
        names = runs[0][section]
        first = min(runs, key=lambda r: r["seed"])
        out.append({
            "workload": workload,
            "trace": trace,
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "all_correct": all(r["correct"] for r in runs),
            "meta": runs[0]["meta"],
            section: {
                name: {"unit": names[name]["unit"],
                       **_stats([r[section][name]["value"] for r in runs])}
                for name in names
            },
            "artifacts": {"seed": first["seed"], "sha256": first["artifacts"]},
        })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--append", type=Path)
    parser.add_argument("--label")
    args = parser.parse_args()
    records = [json.loads(line) for line in args.runs.read_text().splitlines() if line]
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summaries = summarize(records)
    for s in summaries:
        section = "per_layer" if s["trace"] else "end_to_end"
        print(f"== {s['workload']} trace={s['trace']} runs={s['runs']} "
              f"correct={s['all_correct']}")
        for name, m in s[section].items():
            bound = bounds.get(name)
            flag = " > bound/3" if bound and name != "setup_s" and m["spread"] > bound / 3 else ""
            print(f"  {name:40s} {m['median']:12.6g} {m['unit']:12s} "
                  f"q1 {m['q1']:10.4g} q3 {m['q3']:10.4g} spread {m['spread']:7.2%}{flag}")
    if args.append:
        if not args.label:
            parser.error("--append needs --label")
        with args.append.open("a", encoding="utf-8") as f:
            for s in summaries:
                f.write(json.dumps({"label": args.label, **s}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
