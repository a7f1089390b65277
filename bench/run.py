"""Benchmark of the two lfsym user commands, ``constants`` and ``density``.

Run from the root of a source checkout:

    python3 bench/run.py --workload ec_pair --seed 1 --seconds 40 --trace 0

One process runs ``lfsym constants`` and ``lfsym density`` through
``lfsym.cli.main`` as a closed loop, after one untimed warm-up command: each
command starts when the previous one has finished.  A cycle is one
``constants``, one ``density`` and one timed set-up (import lfsym, load the
config, ``resolve()``); after the first, a new cycle starts only if one more
cycle as long as the last still ends within ``--seconds`` of the warm-up's
start.  Set-ups are topped up to ``MIN_SETUPS`` after the loop.  Spreading
the set-ups over the run, all after the warm-up, samples them in the same
machine and heap state as the commands.  Every command's CSV is gated
outside the timed region, and an untimed exact-oracle spot check runs at the
end.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracer.py`` with ``--trace 1``.  The lines before it
report input sizes, sample counts and tail percentiles.  Exits with code 2
when the checkout has no ``src/lfsym``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402

# Least number of timed set-ups per run; the loop makes one per cycle.
MIN_SETUPS = 11
COMMANDS = ("constants", "density")


def lfsym_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "lfsym" or n.startswith("lfsym.")}


def import_lfsym():
    """Import lfsym from the checkout's ``src``, never from site-packages."""
    for name in lfsym_modules():
        del sys.modules[name]
    import lfsym.cli

    if Path(lfsym.__file__).resolve().parent != SRC / "lfsym":
        raise ImportError(f"lfsym imported from {lfsym.__file__}, not {SRC}")
    return lfsym


def time_setup(config_path: str) -> float:
    """Seconds to import lfsym afresh, load the config and resolve its families.

    The modules loaded before the call are put back afterwards, so a set-up
    between commands leaves the tracer's wrappers and the loop's ``cli`` in
    place.
    """
    loaded = lfsym_modules()
    gc.collect()
    try:
        start = time.perf_counter()
        lfsym = import_lfsym()
        families = lfsym.cli.load_config(config_path).resolve()  # noqa: F841
        elapsed = time.perf_counter() - start
    finally:
        # The fresh modules and families are freed here, outside the timed region.
        for name in lfsym_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    return elapsed


def run_command(cli, command: str, config_path: str) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of one in-process CLI command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", config_path])
    return code, out.getvalue(), time.perf_counter() - start


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ranked = sorted(values)
    n = len(ranked)
    for q in (99, 95, 90, 75):
        k = math.ceil(n * q / 100)
        if n - k >= 10:
            return q, ranked[k - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = (
        f"p{tail[0]} {tail[1]:.4f} {unit}"
        if tail
        else "no percentile above the median has 10 samples beyond it"
    )
    listed = ", ".join(f"{v:.4f}" for v in values)
    return (
        f"{name}: median {statistics.median(values):.4f} {unit}, {tail_text} "
        f"(n={len(values)}: {listed})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not (SRC / "lfsym" / "__init__.py").is_file():
        print(f"error: no lfsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (a dependency; keep its import out of setup_s)

    # Import lfsym from bytecode, as an installed package is, whether or not
    # PYTHONDONTWRITEBYTECODE is set: setup_s then leaves out compiling the
    # sources, a cost users do not pay on every run.
    compileall.compile_dir(str(SRC / "lfsym"), quiet=1)

    wl = workloads.make(args.workload, args.seed, args.size)
    print(f"workload {wl.name} seed {args.seed} size {args.size}: {json.dumps(wl.sizes)}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        config_path = str(Path(work) / f"{wl.name}.json")
        Path(config_path).write_text(json.dumps(wl.config, indent=1))
        import_lfsym()
        result = closed_loop(wl, config_path, args.seconds, args.trace == 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = result["setups"]
        setups += [time_setup(config_path) for _ in range(MIN_SETUPS - len(setups))]
        # The oracle runs last: its tables are sized by seeded primes and would
        # otherwise leave a seed-dependent heap behind for peak_rss_mb.
        families = sys.modules["lfsym.cli"].load_config(config_path).resolve()
        n_checks, oracle_failures = checks.oracle_spot_check(wl, families, args.seed)

    for problem in oracle_failures + result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = n_checks + result["attempted"]
    failed = len(oracle_failures) + result["failed"]
    print(f"oracle spot checks: {n_checks - len(oracle_failures)}/{n_checks} passed")
    print(describe("setup_s", setups, "s"))
    walls = result["walls"]
    for command in COMMANDS:
        print(describe(f"{command}_s", walls[command], "s"))

    if args.trace:
        tracer = result["tracer"]
        cycles = len(walls["constants"])
        metrics = tracer.layer_metrics(cycles)
        metrics["trace.constants_s"] = (statistics.median(walls["constants"]), "s")
        metrics["trace.density_s"] = (statistics.median(walls["density"]), "s")
        metrics["trace.coverage_min"] = (min(result["coverage"]), "ratio")
        metrics["trace.wrapped_calls"] = (tracer.wrapped_calls() / cycles, "count")
        total_self = sum(s.self_time for s in tracer.spans.values())
        for name, seconds in tracer.top_layers():
            print(f"self time {name}: {seconds:.4f} s ({seconds / total_self:.1%})")
        print(f"trace coverage per command: {[round(c, 4) for c in result['coverage']]}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "constants_s": (statistics.median(walls["constants"]), "s"),
            "density_s": (statistics.median(walls["density"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "c_error_max": (result["c_error_max"], "1"),
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def closed_loop(wl, config_path: str, seconds: float, trace: bool) -> dict:
    """Run cycles of constants, density and a set-up for about ``seconds``."""
    import lfsym.cli

    deadline = time.perf_counter() + seconds
    # Untimed warm-up, inside the run's time.  The first command in a process
    # is slower than the same command later (ec_pair constants: 12.8-15.3 s
    # first, about 10 s after), as the heap has not yet grown to the size of
    # the residue-table arrays.  After one warm-up every timed command starts
    # alike.
    code, text, _ = run_command(lfsym.cli, "constants", config_path)
    problems = [f"warm-up constants: {p}" for p in checks.gate_command(wl, code, text)]
    attempted, failed = 1, int(bool(problems))

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
    setups: list[float] = []
    first_text: dict[str, str] = {"constants": text}
    coverage: list[float] = []
    try:
        while True:
            cycle_start = time.perf_counter()
            texts = {}
            for command in COMMANDS:
                gc.collect()
                root_before = 0.0
                if tracer:
                    tracer.next_command()
                    root_before = tracer.self_time(ROOT_SPAN)
                code, text, wall = run_command(lfsym.cli, command, config_path)
                walls[command].append(wall)
                if tracer:
                    root_self = tracer.self_time(ROOT_SPAN) - root_before
                    coverage.append(1.0 - root_self / wall)
                texts[command] = text
                found = checks.gate_command(wl, code, text)
                first_text.setdefault(command, text)
                if text != first_text[command]:
                    found.append("CSV differs from the first repetition")
                if command == "density" and checks.shared_columns(
                    text
                ) != checks.shared_columns(texts["constants"]):
                    found.append("density and constants disagree on shared columns")
                attempted += 1
                if found:
                    failed += 1
                    problems.extend(f"{command}: {p}" for p in found)
            setups.append(time_setup(config_path))
            now = time.perf_counter()
            if now + (now - cycle_start) > deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
    try:
        c_error = checks.c_error_max(wl, first_text["constants"])
    except (KeyError, ValueError) as exc:
        c_error = float("nan")
        problems.append(f"c_error_max: {exc!r}")
        failed += 1
    return {
        "walls": walls,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "coverage": coverage,
        "c_error_max": c_error,
        "tracer": tracer,
    }


if __name__ == "__main__":
    sys.exit(main())
