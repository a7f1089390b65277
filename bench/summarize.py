"""Run the benchmark over ten seeds, twice, and summarize the spread of each metric.

    python3 bench/summarize.py

For every workload of ``BENCHMARK.json`` it makes two sets of untraced runs
of ``bench/run.py``, seeds 1-10, one run at a time.  Within a set it goes
seed by seed over the workloads, so that slow stretches of the machine fall
on every workload; the second set starts when the first has ended.  For each
end-to-end metric and set it reports the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles(n=4)``)
against the metric's bound, and how far the second set's median moved from
the first's.

Then, for seeds 1-3, it runs each workload traced and untraced back to back,
alternating which of the two goes first.  The tracing overhead is the median
over these pairs of traced minus untraced ``constants_s`` and ``density_s``.
The per-layer medians come from the traced runs.  The summary is written to
``bench/results/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "results" / "baseline.json"
SEEDS = range(1, 11)
SETS = 2
TRACE_SEEDS = (1, 2, 3)
COMMANDS = ("constants_s", "density_s")


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    print(
        f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
        f"failed {result['failed']}/{result['attempted']} "
        + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                   if trace == 0 or k.startswith("trace.")),
        flush=True,
    )
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("nan"),
        "values": values,
    }


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit or "unknown",
    }


def end_to_end(metrics: list[dict], sets: list[list[dict]]) -> dict:
    """Per metric: each set's spread, and the second median against the first."""
    summary = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        per_set = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        first, second = per_set[0]["median"], per_set[-1]["median"]
        summary[name] = {
            "bound": bound,
            "sets": per_set,
            "within_third_of_bound": all(s["spread"] < bound / 3 for s in per_set),
            "within_bound": all(s["spread"] <= bound for s in per_set),
            "second_over_first": second / first - 1.0,
            "sets_agree": abs(second / first - 1.0) <= bound,
        }
        print(
            f"{name}: medians "
            + " / ".join(f"{s['median']:.4g}" for s in per_set)
            + " spreads "
            + " / ".join(f"{s['spread']:.3f}" for s in per_set)
            + f" (bound {bound}), second vs first {second / first - 1.0:+.3f}"
        )
    return summary


def tracing_overhead(pairs: list[tuple[dict, dict]]) -> dict:
    """Median over (traced, untraced) pairs of the per-pair differences."""
    overhead = {}
    for command in COMMANDS:
        diffs = [
            traced["metrics"][f"trace.{command}"]["value"] - plain["metrics"][command]["value"]
            for traced, plain in pairs
        ]
        shares = [
            diff / plain["metrics"][command]["value"]
            for diff, (_, plain) in zip(diffs, pairs)
        ]
        overhead[command] = {
            "median_s": statistics.median(diffs),
            "median_share": statistics.median(shares),
            "pairs_s": diffs,
        }
    return overhead


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    sets: dict[str, list[list[dict]]] = {name: [] for name in names}
    for index in range(SETS):
        print(f"set {index + 1} of {SETS}", flush=True)
        for name in names:
            sets[name].append([])
        for seed in SEEDS:
            for name in names:
                sets[name][index].append(run_once(bench, name, seed, 0))

    pairs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for index, seed in enumerate(TRACE_SEEDS):
        for name in names:
            order = (1, 0) if index % 2 else (0, 1)
            result = {trace: run_once(bench, name, seed, trace) for trace in order}
            pairs[name].append((result[1], result[0]))

    summary = {
        "machine": machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "sets": SETS,
        "trace_seeds": list(TRACE_SEEDS),
        "workloads": {},
    }
    for name in names:
        print(name)
        runs = [r for runs in sets[name] for r in runs] + [r for pair in pairs[name] for r in pair]
        traced = [t for t, _ in pairs[name]]
        layers = {
            k: statistics.median(r["metrics"][k]["value"] for r in traced)
            for k in traced[0]["metrics"]
        }
        summary["workloads"][name] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": end_to_end(bench["end_to_end"], sets[name]),
            "tracing_overhead": tracing_overhead(pairs[name]),
            "per_layer_median": layers,
            "top_layers_first_traced_run": [
                line for line in traced[0]["report"] if line.startswith("self time")
            ],
            "timed_commands_per_run": {
                command: sorted(
                    int(re.search(r"\(n=(\d+):", line).group(1))
                    for runs in sets[name]
                    for r in runs
                    for line in r["report"]
                    if line.startswith(f"{command}:")
                )
                for command in COMMANDS
            },
        }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
