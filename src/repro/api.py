"""The high-level SR3 API (Table 2).

A batteries-included façade over the overlay, state layer, and recovery
mechanisms, mirroring the paper's user-facing functions: ``StateSplit``,
``Save``, ``StarDefine`` / ``LineDefine`` / ``TreeDefine``, ``Selection``
and ``Recover`` — with Pythonic names. It owns a simulation, an overlay,
and a recovery manager, and drives the event loop internally, so a user
can protect and recover a state in a few lines:

>>> sr3 = SR3.create(num_nodes=64, seed=7)
>>> owner = sr3.overlay.nodes[0]
>>> shards = sr3.state_split({"k1": "v1", "k2": "v2"}, "app/state",
...                          num_shards=2, num_replicas=2)
>>> sr3.save(owner, shards)                         # doctest: +ELLIPSIS
SaveResult(...)
>>> sr3.overlay.fail_node(owner)
>>> snapshot, result = sr3.recover("app/state")
>>> sorted(snapshot.as_dict())
['k1', 'k2']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.dht.node import DhtNode
from repro.errors import RecoveryError, StateError
from repro.obs.export import write_trace
from repro.obs.tracer import Tracer
from repro.recovery.deployment import (
    MECHANISMS,
    Deployment,
    HoldsDeployment,
    build_deployment,
)
from repro.recovery.manager import MechanismImpl
from repro.recovery.model import CostModel, RecoveryResult
from repro.recovery.save import SaveResult
from repro.recovery.selection import (
    Mechanism,
    SelectionInputs,
    recommended_path_length,
    recommended_tree_fanout_bits,
    select_mechanism,
)
from repro.state.partitioner import partition_snapshot, partition_synthetic
from repro.state.shard import Shard
from repro.state.store import StateSnapshot, StateStore
from repro.state.version import StateVersion


@dataclass(frozen=True)
class SplitResult:
    """Outcome of :meth:`SR3.state_split`: the shards plus the replication
    factor they were split for.

    Behaves like the plain list of shards earlier versions returned
    (iterable, indexable, sized), so existing code keeps working, while
    :meth:`SR3.save` can read the replication factor directly instead of
    relying on a hidden side channel.
    """

    shards: List[Shard]
    num_replicas: int

    @property
    def state_name(self) -> str:
        return self.shards[0].state_name

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __getitem__(self, index):
        return self.shards[index]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of :meth:`SR3.selection`: the chosen mechanism and the knob
    values the heuristic pinned for the application.

    Compares equal to the bare :class:`Mechanism` member *and* to its
    string value, so ``result == Mechanism.STAR`` and ``result == "star"``
    both keep working — and hashes to match both, so a result is found in
    sets and dicts keyed either way (``Mechanism`` hashes by value for the
    same reason).
    """

    mechanism: Mechanism
    knobs: Dict[str, int] = field(default_factory=dict)

    @property
    def value(self) -> str:
        return self.mechanism.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SelectionResult):
            return (self.mechanism, self.knobs) == (other.mechanism, other.knobs)
        if isinstance(other, Mechanism):
            return self.mechanism is other
        if isinstance(other, str):
            return self.mechanism.value == other
        return NotImplemented

    def __hash__(self) -> int:
        # Must collide with hash(self.mechanism) AND hash(self.value) —
        # anything equal must hash equal. Mechanism.__hash__ is value-based.
        return hash(self.mechanism.value)


# Mechanism-specific knob aliases accepted by :meth:`SR3.define`, mapped
# to the constructor parameters of the implementation classes.
_KNOB_ALIASES = {
    Mechanism.STAR: {"star_fanout": "fanout_bits", "fanout_bits": "fanout_bits"},
    Mechanism.LINE: {"length_of_path": "path_length", "path_length": "path_length"},
    Mechanism.TREE: {
        "fanout": "fanout_bits",
        "fanout_bits": "fanout_bits",
        "branch_depth": "branch_depth",
        "sub_shards": "sub_shards",
    },
    Mechanism.STANDBY: {"fetch_window": "fetch_window"},
}


class SR3(HoldsDeployment):
    """The customizable state recovery framework, end to end."""

    def __init__(self, deployment: Deployment, num_replicas: int = 2) -> None:
        self.deployment = deployment
        self.num_replicas = num_replicas
        #: Per-application mechanism pinned by :meth:`define`.
        self._policies: Dict[str, MechanismImpl] = {}

    # -------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        num_nodes: int = 64,
        seed: int = 0,
        uplink_mbit: Optional[float] = None,
        downlink_mbit: Optional[float] = None,
        leaf_set_size: int = 24,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> "SR3":
        """Build a self-contained SR3 deployment on a fresh simulation.

        ``uplink_mbit``/``downlink_mbit`` shape every node's link (None
        means unconstrained, the paper's GbE baseline). Pass a
        :class:`~repro.obs.Tracer` to capture a span timeline of every
        save and recovery; export it with :meth:`export_trace`.
        """
        return cls(
            build_deployment(
                num_nodes=num_nodes,
                seed=seed,
                uplink_mbit=uplink_mbit,
                downlink_mbit=downlink_mbit,
                leaf_set_size=leaf_set_size,
                cost_model=cost_model,
                tracer=tracer,
            )
        )

    # ----------------------------------------------------- Table 2: StateSplit

    def state_split(
        self,
        state: Union[Dict[Any, Any], StateStore, StateSnapshot, int],
        state_name: str,
        num_shards: int,
        num_replicas: Optional[int] = None,
    ) -> SplitResult:
        """``StateSplit``: partition a state into shards (and set replicas).

        ``state`` may be a dict, a :class:`StateStore`, a snapshot, or an
        integer byte size (synthetic state for capacity experiments).
        Returns a :class:`SplitResult` carrying the shards and the
        replication factor; it iterates and indexes like a plain shard
        list.
        """
        replicas = num_replicas or self.num_replicas
        if isinstance(state, int):
            shards = partition_synthetic(
                state_name, state, num_shards,
                version=self._next_version(state_name),
            )
        else:
            if isinstance(state, dict):
                store = StateStore(state_name)
                for key, value in state.items():
                    store.put(key, value)
                snapshot = store.snapshot(self.ctx.sim.now)
            elif isinstance(state, StateStore):
                snapshot = state.snapshot(self.ctx.sim.now)
            else:
                snapshot = state
            if snapshot.name != state_name:
                raise StateError(
                    f"snapshot is named {snapshot.name!r}, expected {state_name!r}"
                )
            shards = partition_snapshot(snapshot, num_shards)
        return SplitResult(shards=shards, num_replicas=replicas)

    def _next_version(self, state_name: str):
        registered = self.manager.states.get(state_name)
        sequence = 1
        if registered is not None and registered.shards:
            sequence = registered.shards[0].version.sequence + 1
        return StateVersion(self.ctx.sim.now, sequence)

    # ----------------------------------------------------------- Table 2: Save

    def save(
        self,
        owner: DhtNode,
        shards: Union[SplitResult, List[Shard]],
        num_replicas: Optional[int] = None,
    ) -> SaveResult:
        """``Save``: write the shard replicas into the overlay (blocking).

        ``shards`` is normally the :class:`SplitResult` from
        :meth:`state_split`, whose replication factor is used unless
        ``num_replicas`` overrides it; a bare shard list falls back to the
        framework default.
        """
        if isinstance(shards, SplitResult):
            replicas = num_replicas or shards.num_replicas
            shards = shards.shards
        else:
            replicas = num_replicas or self.num_replicas
        if not shards:
            raise StateError("cannot save zero shards")
        name = shards[0].state_name
        if name not in self.manager.states:
            self.manager.register(owner, shards, replicas)
        else:
            self.manager.refresh_shards(name, shards)
        handle = self.manager.save(name)
        self.ctx.sim.run_until_idle()
        return handle.result

    # ----------------------------------- Table 2: Star/Line/TreeDefine

    def define(
        self,
        app_name: str,
        mechanism: Union[str, Mechanism, MechanismImpl],
        **knobs,
    ) -> MechanismImpl:
        """Pin ``app_name`` to a recovery mechanism with explicit knobs.

        The single entry point behind the paper's ``StarDefine`` /
        ``LineDefine`` / ``TreeDefine``. ``mechanism`` may be:

        - a name (``"star"``, ``"line"``, ``"tree"``, ``"standby"``),
        - a :class:`Mechanism` enum member, or
        - an already-configured implementation instance (knobs must then
          be empty).

        Knob aliases follow the paper's parameter names: ``star_fanout``
        (star), ``length_of_path`` (line), ``fanout`` and ``branch_depth``
        (tree); the implementation-native names (``fanout_bits``,
        ``path_length``, ``sub_shards``) are accepted too. Returns the
        configured mechanism instance.
        """
        if isinstance(mechanism, tuple(MECHANISMS.values())):
            if knobs:
                raise RecoveryError(
                    "knobs cannot be combined with a pre-built mechanism instance"
                )
            impl = mechanism
        else:
            if isinstance(mechanism, str):
                try:
                    member = Mechanism(mechanism.lower())
                except ValueError:
                    raise RecoveryError(
                        f"unknown mechanism {mechanism!r}; "
                        f"expected 'star', 'line', 'tree' or 'standby'"
                    ) from None
            else:
                member = mechanism
            if member.value not in MECHANISMS:
                raise RecoveryError(
                    f"mechanism {member.value!r} cannot be pinned to an app"
                )
            aliases = _KNOB_ALIASES[member]
            kwargs = {}
            for knob, value in knobs.items():
                try:
                    kwargs[aliases[knob]] = value
                except KeyError:
                    raise RecoveryError(
                        f"unknown knob {knob!r} for {member.value} recovery; "
                        f"expected one of {sorted(set(aliases))}"
                    ) from None
            impl = MECHANISMS[member.value](**kwargs)
        self._policies[app_name] = impl
        return impl

    # ------------------------------------------------------ Table 2: Selection

    def selection(
        self,
        app_name: str,
        requirement: str,
        state_size: float,
        network_bw_mbit: Optional[float] = None,
    ) -> SelectionResult:
        """``Selection``: run the Fig. 7 heuristic and pin the result.

        ``requirement`` is ``"latency-sensitive"`` or
        ``"latency-insensitive"``; ``network_bw_mbit`` below 1000 counts
        as a bandwidth-constrained environment. Returns a
        :class:`SelectionResult` whose ``knobs`` are the parameter values
        the heuristic pinned for the app (it compares equal to the bare
        :class:`Mechanism` member).
        """
        requirement = requirement.lower()
        if requirement not in ("latency-sensitive", "latency-insensitive"):
            raise RecoveryError(
                "requirement must be 'latency-sensitive' or 'latency-insensitive'"
            )
        latency_sensitive = requirement == "latency-sensitive"
        constrained = network_bw_mbit is not None and network_bw_mbit < 1000
        choice = select_mechanism(
            SelectionInputs(
                state_bytes=state_size,
                latency_sensitive=latency_sensitive,
                bandwidth_constrained=constrained,
            )
        )
        knobs: Dict[str, int] = {}
        if choice is Mechanism.STAR:
            knobs["star_fanout"] = 2
        elif choice is Mechanism.LINE:
            knobs["length_of_path"] = recommended_path_length(
                state_size, latency_sensitive
            )
        elif choice is Mechanism.TREE:
            knobs["fanout"] = recommended_tree_fanout_bits(state_size)
        if knobs:
            self.define(app_name, choice, **knobs)
        return SelectionResult(mechanism=choice, knobs=knobs)

    # -------------------------------------------------------- Table 2: Recover

    def recover(
        self,
        state_name: str,
        replacement: Optional[DhtNode] = None,
        mechanism: Optional[MechanismImpl] = None,
        app_name: Optional[str] = None,
    ) -> Tuple[StateSnapshot, RecoveryResult]:
        """``Recover``: rebuild a lost state (blocking).

        Returns the reconstructed snapshot plus the timed
        :class:`RecoveryResult`. Mechanism precedence: explicit argument,
        then the app's pinned policy, then the selection heuristic.
        """
        if mechanism is None:
            mechanism = self._policies.get(app_name or state_name)
        registered = self.manager.states.get(state_name)
        if registered is None:
            raise RecoveryError(f"unknown state {state_name!r}")
        if replacement is None and registered.owner.alive:
            replacement = registered.owner
        handle = self.manager.recover(state_name, replacement, mechanism)
        result = self.manager.run([handle])[0]
        # Chain-aware reconstruction: base-then-deltas when the chain has
        # delta links, plain shard merge otherwise.
        snapshot = self.manager.recovered_snapshot(state_name)
        return snapshot, result

    # --------------------------------------------------------- observability

    @property
    def tracer(self):
        """The simulation's span tracer (a no-op one unless enabled)."""
        return self.ctx.sim.tracer

    def export_trace(self, path: str, chrome: bool = True) -> str:
        """Write the captured span timeline to ``path`` as JSON.

        ``chrome=True`` emits the Chrome ``trace_event`` format (open it
        in ``chrome://tracing`` or Perfetto); ``chrome=False`` emits the
        plain sr3-trace dict. Returns ``path``.
        """
        return write_trace(path, [self.ctx.sim.tracer], chrome=chrome)
