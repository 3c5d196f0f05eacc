"""``scripts/perf_trajectory.py``: result files in, one trajectory entry out."""

import json
from pathlib import Path

import pytest

from tests.conftest import load_script

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def trajectory():
    return load_script("perf_trajectory")


def _result_file(path, commit, seed, workload, cell_wall_s, **extra):
    """What ``run.py --workload W --seed N --out FILE`` writes, one run."""
    values = {"setup_s": 0.4, "cell_wall_s": cell_wall_s,
              "work_per_s": 312 / cell_wall_s, "peak_rss_mb": 116.0}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    run = {"seed": seed, "attempted": 12, "failed": 0, **extra,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    path.write_text(json.dumps({
        "manifest": {"commit": commit, "python": "3.11.7", "numpy": "2.4.6",
                     "nproc": 2, "seed": seed, "seconds": 30.0, "runs": 1, "trace": 0},
        "workloads": {workload: {"runs": [run], "metrics": {}}},
    }))
    return str(path)


def test_pairs_merge_into_one_entry_and_append(trajectory, tmp_path, capsys):
    workload = SPEC["workloads"][0]["name"]
    base = [_result_file(tmp_path / f"a{i}.json", "aaa", i, workload, 2.2 + 0.01 * i)
            for i in range(4)]
    change = [_result_file(tmp_path / f"b{i}.json", "bbb", i, workload, 1.5 + 0.01 * i)
              for i in range(4)]
    out = tmp_path / "BENCH_perf.json"
    for label in ("first", "second"):
        assert trajectory.main(
            ["--base", *base, "--change", *change, "--label", label, "--out", str(out)]
        ) == 0
    written = json.loads(out.read_text())
    assert written["format"] == trajectory.FORMAT
    assert [e["label"] for e in written["entries"]] == ["first", "second"]
    entry = written["entries"][0]
    assert (entry["base_commit"], entry["commit"], entry["nproc"]) == ("aaa", "bbb", 2)
    cell = entry["workloads"][workload]
    assert cell["seeds"] == [0, 1, 2, 3] and cell["failed"] == [0, 0]
    wall = cell["metrics"]["cell_wall_s"]
    assert wall["base"]["value"] == pytest.approx(2.215)
    assert wall["change"]["value"] == pytest.approx(1.515)
    assert (wall["wins"], wall["pairs"], wall["verdict"]) == (4, 4, "better")
    assert cell["metrics"]["peak_rss_mb"]["verdict"] == "same"
    assert "cell_wall_s" in capsys.readouterr().out


def test_refuses_a_file_of_another_format(trajectory, tmp_path):
    workload = SPEC["workloads"][0]["name"]
    a = _result_file(tmp_path / "a.json", "aaa", 0, workload, 2.0)
    out = tmp_path / "other.json"
    out.write_text("{}")
    with pytest.raises(SystemExit):
        trajectory.main(["--base", a, "--change", a, "--label", "x", "--out", str(out)])
    assert out.read_text() == "{}"


def test_report_prints_a_table_per_workload_with_ratios_to_the_row_above(
        trajectory, tmp_path, capsys):
    first, second = (w["name"] for w in SPEC["workloads"][:2])
    out = tmp_path / "BENCH_perf.json"
    sides = {}
    for commit, workload, wall in (("aaa", first, 2.0), ("bbb", first, 1.0),
                                   ("ccc", first, 0.5), ("ccc", second, 4.0)):
        name = f"{commit}-{workload}.json"
        sides[commit, workload] = _result_file(tmp_path / name, commit, 0, workload, wall)
    trajectory.main(["--base", sides["aaa", first], "--change", sides["bbb", first],
                     "--label", "PR 1: halves the cell", "--out", str(out)])
    trajectory.main(["--base", sides["bbb", first], sides["ccc", second],
                     "--change", sides["ccc", first], sides["ccc", second],
                     "--label", "PR 2: and again, with a second workload", "--out", str(out)])
    before = out.read_text()
    capsys.readouterr()
    assert trajectory.main(["--report", "--out", str(out)]) == 0
    assert out.read_text() == before  # a report appends nothing
    tables = capsys.readouterr().out.split("\n\n")
    assert [t.splitlines()[0] for t in tables] == [f"== {first}", f"== {second}"]
    header, base, pr1, manifest1, pr2, manifest2 = tables[0].splitlines()[1:]
    # Under each entry's row, what it was measured under; the result files
    # above carry no host_slowdown, as the entries before PR 23 do not.
    assert manifest1 == ("    aaa..bbb; 1 pairs, seeds 0; 30 s runs; "
                         "Python 3.11.7, numpy 2.4.6, 2 CPUs")
    assert manifest2.startswith("    bbb..ccc; 1 pairs, seeds 0; 30 s runs; ")
    assert header.split() == ["entry", "commit"] + [m["name"] for m in SPEC["end_to_end"]]
    assert base.split()[-5:] == ["aaa", "0.4", "2", "156", "116"]
    assert pr1.split()[-9:] == ["bbb", "0.4", "x1.000", "1", "x0.500", "312", "x2.000",
                                "116", "x1.000"]
    assert pr2.startswith("PR 2: and again, with a second ccc")
    assert pr2.split()[-6:-4] == ["0.5", "x0.500"]
    # Header lines, the base row, the one entry and its manifest.
    assert len(tables[1].splitlines()) == 5


def test_the_manifest_line_carries_the_seeds_and_the_host_slowdown_range(
        trajectory, tmp_path, capsys):
    workload = SPEC["workloads"][0]["name"]
    out = tmp_path / "BENCH_perf.json"
    slow = {(side, seed): 1.0 + 0.01 * seed + (0.2 if side == "b" else 0.0)
            for side in "ab" for seed in (7, 8, 9, 12)}
    files = {side: [_result_file(tmp_path / f"{side}{seed}.json", side * 3, seed, workload, 2.0,
                                 host_slowdown=slow[side, seed]) for seed in (7, 8, 9, 12)]
             for side in "ab"}
    trajectory.main(["--base", *files["a"][:3], "--change", *files["b"][:3],
                     "--label", "contiguous", "--out", str(out)])
    trajectory.main(["--base", *files["a"], "--change", *files["b"],
                     "--label", "with a gap", "--out", str(out)])
    entries = json.loads(out.read_text())["entries"]
    assert entries[0]["workloads"][workload]["host_slowdown"] == [1.07, 1.29]
    capsys.readouterr()
    trajectory.main(["--report", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == ("    aaa..bbb; 3 pairs, seeds 7-9; 30 s runs; "
                        "Python 3.11.7, numpy 2.4.6, 2 CPUs; host slowdown 1.07-1.29")
    assert lines[6] == ("    aaa..bbb; 4 pairs, seeds 7,8,9,12; 30 s runs; "
                        "Python 3.11.7, numpy 2.4.6, 2 CPUs; host slowdown 1.07-1.32")


def test_an_append_without_its_inputs_is_a_usage_error(trajectory, tmp_path):
    with pytest.raises(SystemExit) as usage:
        trajectory.main(["--label", "x", "--out", str(tmp_path / "none.json")])
    assert usage.value.code == 2
