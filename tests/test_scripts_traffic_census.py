"""``scripts/traffic_census.py``: a traffic subset in, the unreached functions out."""

import os
import sys

import pytest

from tests.conftest import load_script


@pytest.fixture(scope="module")
def traffic_census():
    return load_script("traffic_census")


def test_a_two_item_subset_reports_what_it_never_entered(traffic_census, capsys):
    cwd = os.getcwd()
    result = traffic_census.census(["list", "example:quickstart"])
    assert os.getcwd() == cwd and sys.getprofile() is None
    assert result["items"] == ["list", "example:quickstart"] and result["failed"] == []
    assert result["functions"] == len(traffic_census.defined_functions()) > 1000
    rows = [row for rows in result["unreached"].values() for row in rows]
    assert result["unreached_count"] == len(rows) < result["functions"]
    assert result["unreached_lines"] == sum(lines for _name, _line, lines in rows)
    # Nothing the repository runs routes a message hop by hop.
    assert "Overlay.route" in {name for name, _l, _n in result["unreached"]["repro/dht/overlay.py"]}
    # The quickstart saves and recovers through the facade; `list` prints the catalog.
    assert "SR3.recover" not in {name for name, _l, _n in result["unreached"]["repro/api.py"]}
    assert "print_listing" not in {
        name for name, _l, _n in result["unreached"].get("repro/bench/__main__.py", [])
    }
    # A property's code object starts at its decorator line; it still counts as entered.
    assert "HoldsDeployment.ctx" not in {
        name for name, _l, _n in result["unreached"].get("repro/recovery/deployment.py", [])
    }

    traffic_census.print_census(result)
    printed = capsys.readouterr().out
    assert "traffic: 2 items" in printed and ", 0 failed" in printed
    assert f"{result['unreached_count']} of {result['functions']} functions" in printed
    assert "    Overlay.route  (line " in printed


def test_every_def_is_catalogued_under_its_qualified_name(traffic_census):
    names = {(module, name) for module, name, _lines in traffic_census.defined_functions().values()}
    assert ("repro/dht/overlay.py", "Overlay.route") in names
    assert ("repro/sim/network.py", "_byte_counter.<locals>.fget") in names  # nested
    assert ("repro/recovery/model.py", "CostModel.merge_time") in names


def test_a_failing_item_fails_the_run(traffic_census, capsys):
    assert traffic_census.main(["--only", "no-such-item", "--max-unreached", "100000"]) == 1
    printed = capsys.readouterr().out
    assert "FAILED no-such-item: Traceback" in printed and "KeyError: 'no-such-item'" in printed


def test_the_ratchet_trips_above_the_limit(traffic_census, capsys):
    assert traffic_census.main(["--only", "list", "--max-unreached", "0"]) == 1
    assert "--max-unreached 0" in capsys.readouterr().err
    assert traffic_census.main(["--only", "list", "--max-unreached", "100000"]) == 0
