"""Record perfbench runs, or alternating pairs against another commit, as a
BENCH_<n>.json trajectory file.

    python3 benchmarks/trajectory.py --out BENCH_<n>.json
        [--workload W ...] [--seed S ...] [--seconds N] [--pairs K]
        [--against REV] [--scratch DIR]

Run from the repository root. Each run is ``python3 perfbench/run.py
--workload W --seed S --seconds N --trace 0``, unchanged, from the root
of the tree it measures; the JSON object on the last line of its stdout
holds the end-to-end metrics. Runs go round the workloads, and run k of
a workload takes seed k of ``--seed``, cycled.

With ``--against REV`` the commit REV is extracted (``git archive``)
into a directory under ``--scratch`` and each run of the working tree
is paired with a run of REV on the same workload and seed, which side
runs first alternating from pair to pair. The file records both sides,
each metric's ratio (working tree / REV) per pair, and in how many
pairs the working tree read better, by the direction BENCHMARK.json
gives the metric.

The file also records the commit and whether the tree had uncommitted
changes, the CPU count and model, the Python and numpy versions, and
the settings that move a metric: PYTHONDONTWRITEBYTECODE, PYTHONPATH
and the BLAS thread variables. Per workload and metric it gives each
side's median, quartiles, interquartile range and run count.
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
import tempfile

SETTINGS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_run(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench stdout,
    with ``values``: each metric's value by name."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    record = json.loads(lines[-1])
    if not isinstance(record, dict) or not isinstance(record.get("metrics"), dict):
        raise ValueError(f"last perfbench line holds no metrics: {lines[-1][:200]!r}")
    record["values"] = {name: float(metric["value"])
                        for name, metric in record["metrics"].items()}
    return record


def spread(values: list[float]) -> dict:
    "Median, quartiles, interquartile range and count of ``values``."
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's :func:`spread` and, where both
    sides ran, the per-pair ratios head / base and the count of pairs in
    which head reads better (ties count for neither side)."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = sorted({run["pair"] for run in mine})
        by_side = {side: {run["pair"]: run["values"] for run in mine if run["side"] == side}
                   for side in ("head", "base")}
        metrics = {}
        for name in dict.fromkeys(n for run in mine for n in run["values"]):
            entry = {"better": better.get(name, "lower")}
            for side, values in by_side.items():
                if values:
                    entry[side] = spread([v[name] for v in values.values()])
            both = [p for p in pairs if p in by_side["head"] and p in by_side["base"]]
            if both:
                head = [by_side["head"][p][name] for p in both]
                base = [by_side["base"][p][name] for p in both]
                entry["ratios"] = [h / b if b else None for h, b in zip(head, base)]
                sign = 1 if entry["better"] == "higher" else -1
                entry["head_better_pairs"] = sum(sign * (h - b) > 0 for h, b in zip(head, base))
                entry["pairs"] = len(both)
            metrics[name] = entry
        summary[workload] = metrics
    return summary


def check(bench: dict) -> None:
    """ValueError unless ``bench`` is a trajectory file as :func:`main`
    writes it: every run read, and a summary that matches the runs."""
    for key in ("commit", "machine", "python", "numpy", "settings", "runs", "workloads"):
        if key not in bench:
            raise ValueError(f"no {key!r} in the trajectory file")
    runs = bench["runs"]
    if not runs:
        raise ValueError("the trajectory file holds no run")
    for run in runs:
        if run["side"] not in ("head", "base") or not run["values"]:
            raise ValueError(f"malformed run {run!r}")
    better = {name: entry["better"] for metrics in bench["workloads"].values()
              for name, entry in metrics.items()}
    if summarize(runs, better) != bench["workloads"]:
        raise ValueError("the summary does not match the runs")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _extract(rev: str, scratch: str) -> str:
    "The tree of ``rev``, extracted into a new directory under ``scratch``."
    tree = tempfile.mkdtemp(prefix=f"tree-{rev[:12]}-", dir=scratch)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return tree


def _perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench exited {done.returncode} in {tree}:\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trajectory file to write")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="workload to run, repeatable (default: every one)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed, repeatable and cycled over runs (default: 1)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="seconds per run (default: the benchmark's)")
    parser.add_argument("--pairs", type=int, default=1, help="runs per workload and side")
    parser.add_argument("--against", metavar="REV", help="commit to pair each run with")
    parser.add_argument("--scratch", help="directory for REV's tree (default: a temporary one)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seeds = args.seed or [1]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    import numpy

    scratch = args.scratch or tempfile.mkdtemp(prefix="nfcap-trajectory-")
    trees = {"head": os.getcwd()}
    if args.against:
        os.makedirs(scratch, exist_ok=True)
        trees["base"] = _extract(args.against, scratch)
    runs = []
    try:
        for pair in range(args.pairs):
            for workload in workloads:
                seed = seeds[pair % len(seeds)]
                sides = list(trees)
                if pair % 2:
                    sides.reverse()
                for side in sides:
                    record = _perfbench(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, "first": side == sides[0],
                                 "correct": record["correct"],
                                 "attempted": record["attempted"],
                                 "failed": record["failed"], "values": record["values"]})
                    print(f"# pair {pair} {workload} seed {seed} {side}: "
                          + ", ".join(f"{k}={v:.6g}" for k, v in record["values"].items()),
                          flush=True)
    finally:
        if "base" in trees:
            shutil.rmtree(trees["base"], ignore_errors=True)
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    bench = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "against": _git("rev-parse", args.against) if args.against else None,
        "machine": {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "settings": {name: os.environ.get(name) for name in SETTINGS},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": args.seconds,
        "seeds": seeds,
        "runs": runs,
        "workloads": summarize(runs, better),
    }
    check(bench)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
