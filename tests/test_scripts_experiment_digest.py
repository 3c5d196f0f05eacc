"""``scripts/experiment_digest.py``: host time out, one digest per experiment in."""

import json

import pytest

from repro.bench.harness import ExperimentResult
from tests.conftest import load_script


@pytest.fixture(scope="module")
def experiment_digest():
    return load_script("experiment_digest")


def result(wall_s, events_per_s, makespan=1.5):
    made = ExperimentResult("toy", "a toy table", columns=["nodes", "makespan_s", "wall_s"])
    made.add_row(nodes=8, makespan_s=makespan, wall_s=wall_s, events_per_s=events_per_s)
    made.extra["baseline_metrics"] = {
        "toy/8/makespan_s": makespan, "toy/8/wall_s": wall_s, "toy/wall_s": wall_s,
        "toy/8/events_per_s": events_per_s,
    }
    made.notes = "wall_s is informational"
    return made


def test_host_time_is_stripped_and_nothing_else(experiment_digest):
    assert experiment_digest.simulated({"a/wall_s": 1, "wall_s": 2, "events_per_s": 3, "b": 4,
                                        "a/wall_seconds": 5}) == {"b": 4, "a/wall_seconds": 5}
    quiet, busy = result(0.8, 40_000.0), result(2.9, 11_000.0)
    assert experiment_digest.digest(quiet) == experiment_digest.digest(busy)
    assert experiment_digest.digest(quiet) != experiment_digest.digest(result(0.8, 40_000.0, 1.6))
    renamed = result(0.8, 40_000.0)
    renamed.notes = "another note"
    assert experiment_digest.digest(quiet) != experiment_digest.digest(renamed)


def test_a_cheap_experiment_hashes_to_the_committed_digest(experiment_digest, capsys):
    committed = json.loads(experiment_digest.DIGESTS.read_text())
    from repro.bench.__main__ import EXPERIMENTS

    assert list(committed) == list(EXPERIMENTS)  # all 27, in catalog order
    assert experiment_digest.run(["table1", "fig9a"]) == {
        name: committed[name] for name in ("table1", "fig9a")
    }
    assert experiment_digest.main(["--only", "fig9a", "--check"]) == 0
    assert capsys.readouterr().out.split() == ["fig9a", committed["fig9a"]]


def test_check_names_the_experiment_that_moved(experiment_digest, monkeypatch, tmp_path, capsys):
    moved = tmp_path / "digests.json"
    committed = json.loads(experiment_digest.DIGESTS.read_text())
    moved.write_text(json.dumps({**committed, "table1": "0" * 64}))
    monkeypatch.setattr(experiment_digest, "DIGESTS", moved)
    monkeypatch.setattr(experiment_digest, "ROOT", tmp_path)
    assert experiment_digest.main(["--only", "table1", "--check"]) == 1
    assert "moved against digests.json: table1" in capsys.readouterr().err


def test_the_total_covers_every_digest_in_order(experiment_digest):
    digests = {"a": "1" * 64, "b": "2" * 64}
    assert experiment_digest.total(digests) != experiment_digest.total(dict(reversed(digests.items())))
    assert experiment_digest.total(digests) != experiment_digest.total({**digests, "b": "3" * 64})
