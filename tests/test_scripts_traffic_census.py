"""``scripts/traffic_census.py``: a traffic subset in, the unreached functions and the
options nothing set out."""

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

    # Options: the quickstart picks a seed and lets recover() find the replacement;
    # its num_nodes=64 is the default, passed, which sets nothing.
    api = result["unset"]["repro/api.py"]
    assert result["options"] == len(traffic_census.defined_options()) >= 600
    assert result["unset_count"] == sum(len(labels) for labels in result["unset"].values())
    assert "SR3.recover(replacement)" in api and "SR3.create(num_nodes)" in api
    assert "SR3.create(seed)" not in api

    traffic_census.print_census(result)
    printed = capsys.readouterr().out
    assert f"{result['unset_count']} of {result['options']} options" in printed
    assert "    unset SR3.recover(replacement)" in printed
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


# ------------------------------------------------------------------- options

TOY = '''
from dataclasses import dataclass, field


def set_by_traffic(x, flag=False):
    return x if flag else -x


def never_set(x, knob=3):
    return x * knob


def keyword_only(x, *, mode="a"):
    return (x, mode)


def never_entered(depth=1):
    def nested(width=2):  # not an option: only module- and class-level defs count
        return width
    return nested() + depth


@dataclass
class Config:
    size: int = 4
    tags: list = field(default_factory=list)
    derived: int = field(default=0, init=False)  # not an option: __init__ does not take it


class Holder:
    def method(self, scale=1.0):
        return scale
'''


@pytest.fixture
def toy_census(traffic_census, tmp_path, monkeypatch):
    """The census pointed at a one-module package and a four-line traffic."""
    package = tmp_path / "src" / "toypkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    monkeypatch.setattr(traffic_census, "SRC", tmp_path / "src")
    monkeypatch.setattr(traffic_census, "PACKAGE", package)

    def item(tmp):
        from toypkg import mod

        mod.set_by_traffic(1, flag=True)
        mod.never_set(1), mod.never_set(1, knob=3)  # the default, passed: still never set
        mod.keyword_only(1, mode="b")
        mod.Config(size=8), mod.Holder().method()
        return 0

    monkeypatch.setattr(traffic_census, "traffic", lambda: {"toy": item})
    yield traffic_census
    for name in [name for name in sys.modules if name.split(".")[0] == "toypkg"]:
        del sys.modules[name]


def test_options_the_traffic_never_sets_are_listed(toy_census, capsys):
    assert toy_census.defined_options() == {
        ("toypkg/mod.py", label) for label in (
            "set_by_traffic(flag)", "never_set(knob)", "keyword_only(mode)",
            "never_entered(depth)", "Config.size", "Config.tags", "Holder.method(scale)",
        )
    }
    result = toy_census.census()
    assert result["failed"] == [] and sys.getprofile() is None
    assert result["options"] == 7 and result["unset_count"] == 4
    assert result["unset"] == {"toypkg/mod.py": [
        "Config.tags", "Holder.method(scale)", "never_entered(depth)", "never_set(knob)",
    ]}
    assert {name for name, _l, _n in result["unreached"]["toypkg/mod.py"]} == {
        "never_entered", "never_entered.<locals>.nested",
    }
    toy_census.print_census(result)
    printed = capsys.readouterr().out
    assert "4 of 7 options" in printed
    assert "toypkg/mod.py: 2 unreached, 4 unset" in printed
    assert "    unset never_set(knob)" in printed and "unset set_by_traffic" not in printed


def test_the_options_ratchet_trips_above_the_limit(toy_census, capsys):
    assert toy_census.main(["--max-unset", "3"]) == 1
    assert "4 options never set > --max-unset 3" in capsys.readouterr().err
    assert toy_census.main(["--max-unset", "4", "--max-unreached", "2"]) == 0


def test_equal_code_on_the_same_line_of_two_modules_is_told_apart(toy_census, monkeypatch):
    """Code objects compare equal without their file names; the hook goes by identity."""
    (toy_census.PACKAGE / "twin.py").write_text(TOY)

    def item(tmp):
        from toypkg import mod, twin

        assert mod.set_by_traffic.__code__ == twin.set_by_traffic.__code__
        mod.set_by_traffic(1, flag=True), twin.set_by_traffic(1)
        mod.never_set(1)
        return 0

    monkeypatch.setattr(toy_census, "traffic", lambda: {"twins": item})
    result = toy_census.census()
    assert result["failed"] == []
    assert "set_by_traffic(flag)" in result["unset"]["toypkg/twin.py"]
    assert "set_by_traffic(flag)" not in result["unset"]["toypkg/mod.py"]
    unreached = {m: {name for name, _l, _n in rows} for m, rows in result["unreached"].items()}
    assert "never_set" in unreached["toypkg/twin.py"] and "never_set" not in unreached["toypkg/mod.py"]
    assert "set_by_traffic" not in unreached["toypkg/twin.py"]
