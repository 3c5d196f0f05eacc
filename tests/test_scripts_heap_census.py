"""``scripts/heap_census.py``: one smoke-size cell in, a census per lap group out."""

import gc
import tracemalloc

import pytest

from repro.dht import Overlay
from repro.recovery import RecoveryManager, TreeRecovery
from tests.conftest import load_script


@pytest.fixture(scope="module")
def heap_census():
    return load_script("heap_census")


def test_scale_cell_is_cut_into_the_four_groups(heap_census, capsys):
    originals = (Overlay.build, Overlay.fail_node, RecoveryManager.save_all, TreeRecovery.start)
    callbacks = list(gc.callbacks)
    result = heap_census.census("scale_tree", seed=0, top=3, smoke=True)
    assert originals == (
        Overlay.build, Overlay.fail_node, RecoveryManager.save_all, TreeRecovery.start
    )
    assert gc.callbacks == callbacks and not tracemalloc.is_tracing()
    assert result["failed"] == 0 and result["errors"] == []
    assert list(result["groups"]) == list(heap_census.GROUPS)  # each runs once: no "end of cell"
    build = result["groups"]["build"]
    assert build["nodes"] == 256
    assert build["tracked"]["repro.dht.node.DhtNode"] == 256
    assert build["traced_mb"] > 0 and len(build["lines"]) == 3
    assert all(line[0].endswith(tuple("0123456789")) for line in build["lines"])
    recovery = result["groups"]["recovery"]
    assert sum(recovery["tracked"].values()) == result["end_tracked"] > sum(
        build["tracked"].values()
    )
    assert result["collections"] == [
        sum(group["collections"][g] for group in result["groups"].values()) for g in range(3)
    ]
    assert result["collections"][0] > 0
    assert 0.0 < result["collector_s"] < result["wall_s"] < result["traced_wall_s"]

    heap_census.print_census(result, top=3)
    printed = capsys.readouterr().out
    assert "== scale_tree seed 0 (smoke size)" in printed
    assert "per node (256 nodes)" in printed
    for group in heap_census.GROUPS:
        assert f"-- {group}: collector" in printed


def test_a_cell_of_many_worlds_also_reports_its_end(heap_census):
    """In chaos_sweep every group runs once per scenario x mechanism: the
    heap is read after the first and at the end, the collector summed."""
    result = heap_census.census("chaos_sweep", seed=0, top=2, smoke=True)
    assert list(result["groups"]) == [*heap_census.GROUPS, "end of cell"]
    assert "seconds" not in result["groups"]["end of cell"]
    assert result["groups"]["build"]["nodes"] == 32
    assert result["end_tracked"] == sum(result["groups"]["end of cell"]["tracked"].values())
    assert result["failed"] == 0


def test_command_line_rejects_an_unknown_workload(heap_census):
    with pytest.raises(SystemExit):
        heap_census.main(["no_such_workload"])
