"""One mechanism table: every layer that takes a name resolves it the same.

``repro.recovery.MECHANISMS`` is the only name → class map. The façade,
the chaos engine, the control plane's policy params and the bench CLI all
look names up in it, and ``MECHANISMS[name]()`` carries the fixed knobs
the figure sweeps used to spell out by hand.
"""

import pytest

from repro import SR3
from repro.bench.__main__ import build_parser, main
from repro.chaos import make_mechanism
from repro.control.actions import build_action
from repro.control.diagnose import Diagnosis
from repro.errors import ConfigError, RecoveryError, SimulationError
from repro.recovery import (
    MECHANISMS,
    LineRecovery,
    Mechanism,
    SpeculativeStarRecovery,
    StandbyRecovery,
    StarRecovery,
    TreeRecovery,
)
from repro.util.sizes import MB


def test_the_table_is_the_five_mechanisms():
    assert MECHANISMS == {
        "star": StarRecovery,
        "line": LineRecovery,
        "tree": TreeRecovery,
        "standby": StandbyRecovery,
        "speculation": SpeculativeStarRecovery,
    }


def test_defaults_are_the_figure_knobs():
    """What the deleted per-experiment dicts passed explicitly."""
    assert MECHANISMS["star"]().fanout_bits == 2
    assert MECHANISMS["line"]().path_length == 8
    tree = MECHANISMS["tree"]()
    assert (tree.fanout_bits, tree.sub_shards, tree.branch_depth) == (1, 8, None)


class TestFacade:
    def test_every_pinnable_member_resolves_through_the_table(self):
        sr3 = SR3.create(num_nodes=8)
        pinnable = [m for m in Mechanism if m is not Mechanism.NONE]
        assert {m.value for m in pinnable} <= set(MECHANISMS)
        for member in pinnable:
            assert type(sr3.define("app", member)) is MECHANISMS[member.value]
            assert type(sr3.define("app", member.value)) is MECHANISMS[member.value]

    def test_any_table_instance_is_accepted(self):
        sr3 = SR3.create(num_nodes=8)
        for cls in MECHANISMS.values():
            impl = cls()
            assert sr3.define("app", impl) is impl

    def test_unknown_name(self):
        with pytest.raises(RecoveryError, match="unknown mechanism"):
            SR3.create(num_nodes=8).define("app", "ring")


class TestChaos:
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_make_mechanism_resolves_through_the_table(self, name):
        assert type(make_mechanism(name)) is MECHANISMS[name]

    def test_special_cases(self):
        assert make_mechanism("checkpointing") is None
        with pytest.raises(SimulationError, match="unknown mechanism"):
            make_mechanism("ring")


class TestControl:
    @staticmethod
    def owner_lost(world):
        registered, _ = world.save_synthetic(size=2 * MB)
        world.overlay.fail_node(registered.owner)
        return Diagnosis(
            condition="owner-lost",
            severity="critical",
            detected_at=world.sim.now,
            state="app/state",
        )

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_pinned_policy_name_runs_the_table_class(self, world_factory, name):
        world = world_factory(num_nodes=16)
        outcome = build_action("recover", mechanism=name).execute(
            world, self.owner_lost(world)
        )
        assert outcome.ok and outcome.changed
        assert dict(outcome.details)["mechanism"] == MECHANISMS[name].name

    def test_unknown_name(self, world_factory):
        world = world_factory(num_nodes=16)
        diagnosis = self.owner_lost(world)
        with pytest.raises(ConfigError, match="unknown mechanism 'ring'"):
            build_action("recover", mechanism="ring").begin(world, diagnosis)


class TestCli:
    def test_run_offers_exactly_the_table(self):
        (flag,) = [a for a in build_parser()._actions if a.dest == "mechanism"]
        assert tuple(flag.choices) == tuple(MECHANISMS)

    @pytest.mark.parametrize("command", [["run", "fig10"], ["control"]])
    def test_unknown_name_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--mechanism", "ring"])
        assert exit_info.value.code == 2
        usage = capsys.readouterr().err
        assert all(name in usage for name in MECHANISMS)
