"""One simulated SR3 deployment, and the one table of mechanisms it can run.

Two decisions live here and nowhere else:

- **How a deployment is wired** (:func:`build_deployment`): ``Simulator →
  Network → Overlay.build(host_factory) → RecoveryContext →
  RecoveryManager``, in that order. Node ids are drawn from
  ``random.Random(seed)`` while the overlay builds, so the order — and
  nothing else touching that generator — is what makes a seed reproduce a
  ring. The façade (:mod:`repro.api`), the bench harness, the chaos engine,
  the live harness and the control plane all start from the
  :class:`Deployment` this returns; a layer that needs more (a remote
  store, a streaming cluster) extends the record, one that wraps it (the
  façade, the chaos engine, the control plane) holds it through
  :class:`HoldsDeployment`.
- **Which name means which mechanism** (:data:`MECHANISMS`).
  ``MECHANISMS[name]()`` is the configuration every sweep uses: the class
  defaults are the paper's fixed knobs (``fanout_bits=2``,
  ``path_length=8``, ``fanout_bits=1, sub_shards=8``).

The synthetic-state helpers (:func:`saved_state`, :func:`saved_delta`,
:func:`timed_recovery`) drive any deployment through save, delta and
fail-and-recover; experiments and chaos cells share them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.dht.node import DhtNode
from repro.dht.overlay import Overlay
from repro.errors import BenchmarkError
from repro.obs.recorder import new_tracer
from repro.obs.tracer import Tracer
from repro.recovery.line import LineRecovery
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import CostModel, RecoveryContext, run_handles
from repro.recovery.speculation import SpeculativeStarRecovery
from repro.recovery.standby import StandbyRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.partitioner import partition_synthetic
from repro.state.placement import HashPlacement, LeafSetPlacement
from repro.state.shard import DeltaShard
from repro.state.version import StateVersion
from repro.util.sizes import MB, mbit_per_s

#: Mechanism name -> implementation class, for every layer that picks a
#: mechanism by name (``SR3.define``, chaos cells, policy params, the CLI).
MECHANISMS: Dict[str, type] = {
    "star": StarRecovery,
    "line": LineRecovery,
    "tree": TreeRecovery,
    "standby": StandbyRecovery,
    "speculation": SpeculativeStarRecovery,
}


@dataclass
class Deployment:
    """A wired simulated deployment: one clock, one network, one ring."""

    sim: Simulator
    network: Network
    overlay: Overlay
    ctx: RecoveryContext
    manager: RecoveryManager


class HoldsDeployment:
    """Reads ``self.deployment``'s parts through, so a wrapper copies none."""

    deployment: Deployment

    @property
    def sim(self) -> Simulator:
        return self.deployment.sim

    @property
    def network(self) -> Network:
        return self.deployment.network

    @property
    def overlay(self) -> Overlay:
        return self.deployment.overlay

    @property
    def ctx(self) -> RecoveryContext:
        return self.deployment.ctx

    @property
    def manager(self) -> RecoveryManager:
        return self.deployment.manager


def build_deployment(
    num_nodes: int = 64,
    seed: int = 0,
    uplink_mbit: Optional[float] = None,
    downlink_mbit: Optional[float] = None,
    leaf_set_size: int = 24,
    placement: str = "leafset",
    cost_model: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
    trace_name: Optional[str] = None,
) -> Deployment:
    """Build a deployment matching the paper's testbed shape.

    Unconstrained mode models the GbE LAN of Sec. 5.1; passing
    ``uplink_mbit=100`` (and the same downlink) reproduces the "upload
    bandwidth limited to 100 Mb/s per server" configuration of Fig. 8b.

    ``tracer`` attaches an explicit span tracer; ``trace_name`` instead
    names the one :func:`repro.obs.recorder.new_tracer` hands out (recorded
    while the bench CLI's span flags are on), so every deployment built
    during a traced run lands in the same exported artifact.
    """
    if tracer is None and trace_name is not None:
        tracer = new_tracer(trace_name)
    sim = Simulator(tracer=tracer)
    network = Network(sim)
    up = mbit_per_s(uplink_mbit) if uplink_mbit else float("inf")
    down = mbit_per_s(downlink_mbit) if downlink_mbit else float("inf")
    overlay = Overlay(sim, network, leaf_set_size=leaf_set_size, rng=random.Random(seed))
    overlay.build(
        num_nodes,
        host_factory=lambda name: network.add_host(name, up_bw=up, down_bw=down),
    )
    ctx = RecoveryContext(sim, network, overlay, cost_model or CostModel())
    placement_impl = LeafSetPlacement() if placement == "leafset" else HashPlacement()
    manager = RecoveryManager(ctx, placement=placement_impl)
    return Deployment(sim=sim, network=network, overlay=overlay, ctx=ctx, manager=manager)


# ------------------------------------------------------------ synthetic state


def default_shard_count(state_bytes: float) -> int:
    """Shards scale with the state: one per ~8 MB, at least four."""
    return max(4, int(state_bytes // (8 * MB)))


def saved_state(
    deployment: Deployment,
    state_name: str,
    state_bytes: float,
    num_shards: Optional[int] = None,
    num_replicas: int = 2,
    owner: Optional[DhtNode] = None,
):
    """Register + save one synthetic state; returns (registered, SaveResult)."""
    owner = owner or deployment.overlay.nodes[0]
    shards = partition_synthetic(
        state_name,
        int(state_bytes),
        num_shards or default_shard_count(state_bytes),
        StateVersion(deployment.sim.now, 1),
    )
    registered = deployment.manager.register(owner, shards, num_replicas)
    handle = deployment.manager.save(state_name)
    deployment.sim.run_until_idle()
    return registered, handle.result


def saved_delta(deployment: Deployment, state_name: str, delta_bytes: float):
    """Append one synthetic delta round to an already-saved state.

    Splits ``delta_bytes`` evenly over the chain's shard count and ships
    it through :meth:`RecoveryManager.save_delta`; the manager falls back
    to a full save on its own when the chain cannot be extended. Returns
    ``(registered, SaveResult)`` like :func:`saved_state`.
    """
    registered = deployment.manager.states[state_name]
    chain = registered.plan
    if chain is None:
        raise BenchmarkError(
            f"{state_name}: no version chain to extend — save a base first"
        )
    parent = chain.tip_version
    version = StateVersion(deployment.sim.now, parent.sequence + 1)
    num_shards = chain.num_shards
    per_shard = int(delta_bytes // num_shards)
    delta_shards = [
        DeltaShard.synthetic_delta(
            state_name,
            index,
            num_shards,
            version,
            parent,
            chain.length,
            per_shard,
        )
        for index in range(num_shards)
    ]
    handle = deployment.manager.save_delta(state_name, delta_shards)
    deployment.sim.run_until_idle()
    return registered, handle.result


def timed_recovery(deployment: Deployment, mechanism, state_name: str):
    """Fail the owner and run one recovery; returns the RecoveryResult."""
    registered = deployment.manager.states[state_name]
    if registered.owner.alive:
        deployment.overlay.fail_node(registered.owner)
    replacement = deployment.overlay.replacement_for(registered.owner)
    handle = mechanism.start(deployment.ctx, registered.plan, replacement, state_name)
    return run_handles(deployment.sim, [handle])[0]
