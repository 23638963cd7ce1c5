"""The trajectory writer of benchmarks/trajectory.py on recorded output:
a perfbench stdout, the committed BENCH_*.json files, and the dirty paths
of a throwaway git repository. No perfbench run is made."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_perfbench_stdout_parses_to_its_last_line():
    "The recorded stdout of a sweeps-ff run: comment lines, then one JSON line."
    record = trajectory.parse_run((ROOT / "tests" / "data" / "perfbench_sweeps_ff.txt").read_text())
    assert record["correct"] is True and record["attempted"] == 12 and record["failed"] == 0
    assert list(record["values"]) == END_TO_END
    assert record["values"]["wall_s"] == 0.03619854501448572
    assert record["values"]["ok_ratio"] == 1.0
    with pytest.raises(ValueError):
        trajectory.parse_run("# setup_s = 0.1 s\n")


def test_pairs_are_summarized_per_workload_and_metric():
    runs = [{"workload": "w", "seed": 1, "pair": p, "side": side, "values": {"wall_s": v}}
            for p, (head, base) in enumerate([(1.0, 2.0), (3.0, 3.0), (2.0, 1.0), (1.0, 4.0)])
            for side, v in (("head", head), ("base", base))]
    entry = trajectory.summarize(runs, {"wall_s": "lower"})["w"]["wall_s"]
    assert entry["ratios"] == [0.5, 1.0, 2.0, 0.25]
    # the tie counts for neither side
    assert (entry["head_better_pairs"], entry["pairs"]) == (2, 4)
    assert entry["head"] == {"median": 1.5, "q1": 1.0, "q3": 2.25, "iqr": 1.25, "n": 4}
    assert entry["base"]["median"] == 2.5


def test_committed_trajectory_files_match_their_runs():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_*.json file is committed"
    for path in files:
        bench = json.loads(path.read_text())
        trajectory.check(bench)
        for run in bench["runs"]:
            assert list(run["values"]) == END_TO_END, path.name
        for metrics in bench["workloads"].values():
            assert set(metrics) == set(END_TO_END), path.name
        bench["runs"][0]["values"]["wall_s"] *= 2
        with pytest.raises(ValueError, match="summary does not match"):
            trajectory.check(bench)


def test_dirty_paths_are_the_tracked_changes(tmp_path, monkeypatch):
    "A staged and an unstaged edit are listed; an untracked file is not."
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    for name in ("README.md", "code.py", "same.txt"):
        (tmp_path / name).write_text("one\n")
    git("add", ".")
    git("commit", "-q", "-m", "init")
    monkeypatch.chdir(tmp_path)
    assert trajectory._dirty_paths() == []
    (tmp_path / "code.py").write_text("two\n")
    (tmp_path / "README.md").write_text("two\n")
    git("add", "README.md")
    (tmp_path / "new.txt").write_text("untracked\n")
    assert trajectory._dirty_paths() == ["README.md", "code.py"]


def test_dirty_flag_must_match_its_paths():
    "check() reads dirty_paths where a file has them, and the bool alone where not."
    bench = json.loads(sorted(ROOT.glob("BENCH_*.json"))[-1].read_text())
    for before, after in (([], []), (["README.md"], []), ([], ["ROADMAP.md"])):
        bench.update(dirty=bool(before or after),
                     dirty_paths={"before": before, "after": after})
        trajectory.check(bench)
        bench["dirty"] = not bench["dirty"]
        with pytest.raises(ValueError, match="does not match the paths"):
            trajectory.check(bench)
    del bench["dirty_paths"]
    bench["dirty"] = "yes"
    with pytest.raises(ValueError, match="not a bool"):
        trajectory.check(bench)
