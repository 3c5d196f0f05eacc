"""Shared fixtures for the recovery-layer tests, and the loader of ``scripts/``."""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.dht.overlay import Overlay
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import CostModel, RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network, RemoteStorage
from repro.state.partitioner import partition_synthetic
from repro.state.placement import HashPlacement, LeafSetPlacement
from repro.state.version import StateVersion
from repro.util.sizes import MB, mbit_per_s


def load_script(name: str):
    """``scripts/<name>.py`` as a module (the scripts are not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecoveryWorld:
    """A compact bundle of simulator + overlay + manager for tests."""

    def __init__(self, num_nodes=64, seed=0, link_mbit=None, placement="leafset"):
        self.sim = Simulator()
        self.network = Network(self.sim)
        bw = mbit_per_s(link_mbit) if link_mbit else float("inf")
        self.overlay = Overlay(self.sim, self.network, rng=random.Random(seed))
        self.overlay.build(
            num_nodes,
            host_factory=lambda n: self.network.add_host(n, up_bw=bw, down_bw=bw),
        )
        self.storage = RemoteStorage("storage", up_bw=400 * MB, down_bw=400 * MB)
        self.network.hosts["storage"] = self.storage
        self.ctx = RecoveryContext(self.sim, self.network, self.overlay, CostModel())
        impl = LeafSetPlacement() if placement == "leafset" else HashPlacement()
        self.manager = RecoveryManager(self.ctx, placement=impl)

    def save_synthetic(self, name="app/state", size=8 * MB, shards=4, replicas=2):
        pieces = partition_synthetic(name, int(size), shards, StateVersion(self.sim.now, 1))
        registered = self.manager.register(self.overlay.nodes[0], pieces, replicas)
        handle = self.manager.save(name)
        self.sim.run_until_idle()
        return registered, handle.result

    def fail_owner(self, name="app/state"):
        owner = self.manager.states[name].owner
        self.overlay.fail_node(owner)
        return self.overlay.replacement_for(owner)


@pytest.fixture
def world():
    return RecoveryWorld()


@pytest.fixture
def world_factory():
    return RecoveryWorld
