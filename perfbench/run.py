"""nfcap benchmark: CLI workloads end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every command of a workload runs through
``nfcap.cli.main`` in a fresh ``python`` child (closed loop, one client:
the next child starts when the previous one has ended), with PYTHONPATH
set to ``./src`` and the BLAS thread count fixed. A pass runs each
command of the workload once; passes repeat for S seconds.

--trace 0 prints the end-to-end metrics:
  setup_s      median time to import nfcap.cli in a child, after warm-up
  wall_s       median over passes of the summed nfcap.cli.main time
  peak_rss_mb  median over passes of the largest child ru_maxrss
  ok_ratio     commands that passed every check / commands attempted
  err_bits_max largest |printed capacity - exact-sum-rho reference|
--trace 1 runs probes.py, then alternates untraced and traced passes and
prints the per-layer metrics of spans.py.

Every output is checked (checks.py). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The run
record (versions, thread count, scenario files, per-pass numbers) is
written to .perfbench_run/WORKLOAD/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PROBES = os.path.join(HERE, "probes.py")

WARMUP_IMPORTS = 3
MEASURED_IMPORTS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "err_bits_max": "bits",
}


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv: list[str], env: dict[str, str], stem: str) -> tuple[int, float]:
    """Run a child to its end; return its exit code and ru_maxrss in MB.

    stdout and stderr go to STEM.out and STEM.err.
    """
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def _load_json(path: str):
    text = _read(path)
    try:
        return json.loads(text) if text is not None else None
    except json.JSONDecodeError:
        return None


def measure_setup(env: dict[str, str], work: str) -> list[float]:
    """Import times of fresh children, warm-up children discarded."""
    samples = []
    for i in range(WARMUP_IMPORTS + MEASURED_IMPORTS):
        stem = os.path.join(work, f"import-{i}")
        code, _ = spawn([sys.executable, CHILD, stem + ".json", "--import-only"],
                        env, stem)
        record = _load_json(stem + ".json")
        if code != 0 or record is None:
            raise RuntimeError(f"import child failed: {_read(stem + '.err')}")
        if i >= WARMUP_IMPORTS:
            samples.append(record["import_s"])
    return samples


class Runner:
    """Runs passes of one workload and checks every command's output."""

    def __init__(self, commands, references, env: dict[str, str], work: str):
        self.commands = commands
        self.references = references  # label -> {column: (xs, values)}
        self.env = env
        self.work = work
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, pass_id: int, traced: bool) -> dict:
        wall = 0.0
        peak = 0.0
        err = 0.0
        dumps = []
        times = []
        start = time.perf_counter()
        for i, cmd in enumerate(self.commands):
            stem = os.path.join(self.work, f"cmd-{i}")
            for path in (stem + ".json", cmd.out):
                if path and os.path.exists(path):
                    os.remove(path)
            trace = ["--trace", str(pass_id)] if traced else []
            argv = [sys.executable, CHILD, stem + ".json", *trace, "--", *cmd.argv]
            code, rss = spawn(argv, self.env, stem)
            record = _load_json(stem + ".json")
            problems, cmd_err = self.check(cmd, code, record, stem)
            self.attempted += 1
            if problems:
                self.failures.append(
                    f"pass {pass_id} {'traced ' if traced else ''}{cmd.label}: "
                    + "; ".join(problems[:5]))
            if record is not None and "main_s" in record:
                wall += record["main_s"]
                times.append(record["main_s"])
                if traced:
                    dumps.append(record["trace"])
            peak = max(peak, rss)
            err = max(err, cmd_err)
        return {"pass": pass_id, "traced": traced, "wall_s": wall,
                "command_s": times, "peak_rss_mb": peak, "err_bits_max": err,
                "elapsed_s": time.perf_counter() - start, "dumps": dumps}

    def check(self, cmd, code: int, record, stem: str) -> tuple[list[str], float]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if record is None or "main_s" not in record:
            return problems + ["no timing record"], 0.0
        if not os.path.abspath(record["nfcap_file"]).startswith(SRC + os.sep):
            problems.append(f"nfcap imported from {record['nfcap_file']}")
        stderr = _read(stem + ".err") or ""
        problems += [line for line in stderr.splitlines()
                     if line.startswith("verification")]
        if cmd.kind == "verify":
            return problems + checks.check_verify_report(_read(stem + ".out") or "\n"), 0.0
        try:
            with open(cmd.out, "rb") as handle:
                data = handle.read()
        except OSError:
            return problems + [f"no output at {cmd.out}"], 0.0
        text = data.decode("utf-8")
        if cmd.kind == "preset":
            digest = checks.digest(data)
            if self.digests.setdefault(cmd.label, digest) != digest:
                problems.append("CSV bytes differ from the first pass")
        powers = [link.power for _, link in cmd.points()] if cmd.kind == "bc" else None
        problems += checks.check_table(cmd.kind, text, powers)
        err = 0.0
        for column, (xs, values) in self.references.get(cmd.label, {}).items():
            try:
                col_err, shape = checks.err_bits(column, text, values, xs)
            except (ValueError, IndexError) as exc:
                col_err, shape = 0.0, [f"cannot compare {column}: {exc}"]
            problems += shape
            err = max(err, col_err)
        return problems, err


def build_references(commands) -> dict[str, dict[str, tuple[list[float], list[float]]]]:
    """Exact-sum reference of every printed capacity column, per command."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="numba not installed")
        import reference

    problem = reference.check_exact_vectors()
    if problem:
        raise RuntimeError(problem)
    stats = reference.ExactStats()
    presets = None
    out = {}
    for cmd in commands:
        if cmd.kind == "preset":
            if presets is None:
                presets = reference.load_preset_reference()
            name = cmd.argv[1]
            out[cmd.label] = {column: (presets[name]["x"], presets[name][column])
                              for column in reference.PRESET_COLUMNS}
        elif cmd.kind in reference.CAPACITY_COLUMN:
            points = cmd.points()
            out[cmd.label] = {reference.CAPACITY_COLUMN[cmd.kind]: (
                [x for x, _ in points],
                [reference.link_reference(stats, cmd.kind, link) for _, link in points],
            )}
    return out


def _commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_record(args, threads: int, commands, setup: list[float]) -> dict:
    import importlib.util

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "blas_threads": threads,
        "commands": [" ".join(cmd.argv) for cmd in commands],
        "scenario_files": {cmd.label: cmd.ini for cmd in commands if cmd.ini},
        "setup_import_s": setup,
    }


def _repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call
    would still end within ``seconds`` of the first one's start."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    count = 0
    while count < minimum or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - start)
        count += 1


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    _repeat(lambda: passes.append(runner.run_pass(len(passes), traced=False)),
            seconds, MIN_PASSES)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        "err_bits_max": max(p["err_bits_max"] for p in passes),
    }
    return metrics, passes


def traced_run(runner: Runner, env: dict[str, str], work: str,
               seconds: float) -> tuple[dict, list[dict]]:
    stem = os.path.join(work, "probes")
    code, _ = spawn([sys.executable, PROBES, stem + ".json"], env, stem)
    probes = _load_json(stem + ".json")
    if code != 0 or probes is None:
        raise RuntimeError(f"probe child failed: {_read(stem + '.err')}")

    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []

    def pair() -> None:
        plain.append(runner.run_pass(len(plain) + len(traced), traced=False))
        traced.append(runner.run_pass(len(plain) + len(traced), traced=True))
        layers.append(spans.layer_metrics(traced[-1].pop("dumps")))

    _repeat(pair, seconds, 1)
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in spans.UNITS}
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = wall_traced
    values["trace.overhead_s"] = wall_traced - statistics.median(
        p["wall_s"] for p in plain)
    units = dict(spans.UNITS, **{"trace.wall_s": "s", "trace.overhead_s": "s"})
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    metrics.update({name: {"value": value, "unit": unit}
                    for name, (value, unit) in probes.items()})
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "nfcap", "cli.py")):
        print("error: no nfcap source at ./src/nfcap; run from the repository root",
              file=sys.stderr)
        return 2

    threads = blas_threads()
    env = child_env(threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var]
    sys.path.insert(1, SRC)

    work = os.path.join(ROOT, ".perfbench_run", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    commands = workloads.WORKLOADS[args.workload](args.seed, work)

    setup = measure_setup(env, work)
    runner = Runner(commands, build_references(commands), env, work)
    record = run_record(args, threads, commands, setup)

    if args.trace:
        metrics, passes = traced_run(runner, env, work, args.seconds)
    else:
        values, passes = timed_run(runner, args.seconds)
        values["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for p in passes:
        p.pop("dumps", None)
    record.update(passes=passes, failures=runner.failures, metrics=metrics)
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{runner.attempted} commands, {len(runner.failures)} failed, "
          f"BLAS threads {threads}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
