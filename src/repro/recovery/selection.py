"""The mechanism-selection heuristic (Sec. 3.7, Fig. 7).

SR3 adapts the recovery mechanism to (1) state size, (2) application QoS
requirements, (3) network environment, and (4) computation model:

- stateless operators: no recovery needed — just restart the pipeline;
- small state: star-structured recovery in priority;
- large state, abundant bandwidth: line-structured recovery, adjusting the
  recovery path length to the state size and latency requirement;
- large state, constrained bandwidth, latency-insensitive: still line;
- large state, constrained bandwidth, latency-sensitive: tree-structured
  recovery, tuning fan-out, depth, and replicas at runtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.errors import SelectionError
from repro.recovery.line import LineRecovery
from repro.recovery.model import CostModel
from repro.recovery.standby import StandbyRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.util.sizes import MB


class Mechanism(enum.Enum):
    """The recovery mechanism chosen for an application."""

    NONE = "none"  # stateless operator: resume the pipeline
    STAR = "star"
    LINE = "line"
    TREE = "tree"
    STANDBY = "standby"  # hot standby: pre-moved state, flip + tail replay

    def __hash__(self) -> int:
        # Value-based, so SelectionResult (which compares equal to both a
        # member and its string value) can satisfy the equal-implies-
        # equal-hash contract against either key shape.
        return hash(self.value)


class ComputationModel(enum.Enum):
    """Streaming execution models (Sec. 3.1)."""

    ASYNC_STREAM = "async_stream"  # Storm-style record-at-a-time
    MICRO_BATCH = "micro_batch"  # Spark-style synchronous mini-batches
    HYBRID = "hybrid"  # Naiad-style mixed


@dataclass(frozen=True)
class SelectionInputs:
    """Everything the heuristic looks at for one application."""

    state_bytes: float
    stateful: bool = True
    latency_sensitive: bool = True
    bandwidth_constrained: bool = False
    computation_model: ComputationModel = ComputationModel.ASYNC_STREAM
    # The size above which a state counts as "large" (the paper's examples
    # put the star/line crossover between 32 and 64 MB).
    large_state_threshold: float = 32.0 * MB
    # Version-chain shape of the saved state: how many links the recovery
    # must fetch (1 = flat base) and how many of ``state_bytes`` are delta
    # payload to replay after the base merge. Defaults describe a chain-free
    # save, leaving every pre-chain prediction unchanged.
    chain_links: int = 1
    delta_bytes: float = 0.0
    # Fraction of link bandwidth the live workload's ingest/shuffle traffic
    # is consuming while the recovery runs, in [0, 1). The closed-form
    # predictions discount their transfer bandwidth by it: recovery flows
    # only get the fair share the application leaves behind. 0.0 (the
    # default) is the quiescent network every pre-live prediction assumed.
    background_load: float = 0.0
    # Hot-standby tier (repro.recovery.standby). ``standby_provisioned``
    # states have a warm replica already folded on a standby node, so
    # takeover is an ownership flip plus tail replay; the steady-state
    # price — sync traffic sharing links with the application, and the
    # warm image's resident footprint — is surfaced here so selection can
    # weigh it. Defaults describe the standby-free world every pre-standby
    # prediction assumed.
    standby_provisioned: bool = False
    standby_refresh_bytes_per_s: float = 0.0
    standby_memory_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.state_bytes < 0:
            raise SelectionError("state size must be non-negative")
        if self.large_state_threshold <= 0:
            raise SelectionError("large_state_threshold must be positive")
        if self.chain_links < 1:
            raise SelectionError("chain_links must be at least 1")
        if not 0 <= self.delta_bytes <= max(self.state_bytes, 0):
            raise SelectionError(
                "delta_bytes must lie between 0 and state_bytes"
            )
        if not 0.0 <= self.background_load < 1.0:
            raise SelectionError(
                "background_load must be a fraction in [0, 1); a fully "
                "saturated link leaves no bandwidth to predict with"
            )
        if self.standby_refresh_bytes_per_s < 0:
            raise SelectionError(
                "standby_refresh_bytes_per_s must be non-negative"
            )
        if self.standby_memory_bytes < 0:
            raise SelectionError("standby_memory_bytes must be non-negative")


def select_mechanism(inputs: SelectionInputs) -> Mechanism:
    """The decision diagram of Fig. 7, as a pure function.

    One extension over the paper: a state with a provisioned warm standby
    short-circuits the diagram — its steady-state cost is already sunk, so
    the flip-plus-tail-replay takeover dominates every move-after-failure
    tier. Nothing changes for the default (standby-free) inputs.
    """
    if not inputs.stateful:
        return Mechanism.NONE
    if inputs.standby_provisioned:
        return Mechanism.STANDBY
    if inputs.state_bytes <= inputs.large_state_threshold:
        return Mechanism.STAR
    if not inputs.bandwidth_constrained:
        return Mechanism.LINE
    if not inputs.latency_sensitive:
        return Mechanism.LINE
    return Mechanism.TREE


def recommended_path_length(state_bytes: float, latency_sensitive: bool = True) -> int:
    """Line path length: longer paths distribute larger states.

    "If it needs low latency, choose a short path; when the state is too
    large to be finished within one or two stages, we need a longer path"
    (Sec. 3.7 / Fig. 7).
    """
    if state_bytes < 0:
        raise SelectionError("state size must be non-negative")
    stages = max(2, int(math.ceil(state_bytes / (16.0 * MB))))
    if latency_sensitive:
        stages = min(stages, 8)
    return min(stages, 64)


def recommended_tree_fanout_bits(state_bytes: float, expected_failures: int = 1) -> int:
    """Tree fan-out bit: larger fan-outs for low latency and more failures.

    "Larger fan-out trees can tolerate more concurrent node failures or
    shard loss" and involve fewer layers (Fig. 9d).
    """
    if expected_failures < 0:
        raise SelectionError("expected_failures must be non-negative")
    bits = 1
    if state_bytes > 64 * MB:
        bits = 2
    if expected_failures > 4:
        bits += 1
    return min(bits, 4)


def build_mechanism(
    inputs: SelectionInputs,
    expected_failures: int = 1,
) -> Optional[Union[StarRecovery, LineRecovery, TreeRecovery, StandbyRecovery]]:
    """Instantiate the selected mechanism with tuned runtime parameters.

    Returns None for stateless operators (nothing to recover).
    """
    choice = select_mechanism(inputs)
    if choice is Mechanism.NONE:
        return None
    if choice is Mechanism.STANDBY:
        return StandbyRecovery()
    if choice is Mechanism.STAR:
        return StarRecovery(fanout_bits=2)
    if choice is Mechanism.LINE:
        return LineRecovery(
            path_length=recommended_path_length(
                inputs.state_bytes, inputs.latency_sensitive
            )
        )
    return TreeRecovery(
        fanout_bits=recommended_tree_fanout_bits(inputs.state_bytes, expected_failures),
        sub_shards=8,
    )


# -------------------------------------------------------- predicted vs observed
#
# The heuristic of Fig. 7 is a decision diagram, not a cost model — but its
# branches imply cost predictions, and the profiler can measure how wrong
# they are. ``explain_selection`` turns one set of inputs into closed-form
# predicted recovery times per mechanism; the profiler feeds measured
# makespans back via :meth:`SelectionExplanation.observe`, and the relative
# model error per mechanism becomes part of the profile artifact.

# Link speed assumed by predictions when no measured bandwidth is supplied:
# GbE payload rate, matching the unconstrained benchmark configuration.
DEFAULT_PREDICTION_BANDWIDTH = 125.0 * MB

# Default sub-shards per tree (mirrors TreeRecovery's default).
_TREE_SUB_SHARDS = 8


def _predicted_shards(state_bytes: float) -> int:
    """Shard count implied by the benchmark sizing: 8 MB shards, at least 4."""
    return max(4, int(state_bytes // (8.0 * MB)))


def predict_recovery_seconds(
    mechanism: Union[Mechanism, str],
    inputs: SelectionInputs,
    bandwidth: Optional[float] = None,
) -> float:
    """Closed-form predicted recovery time for one mechanism.

    Deliberately simple — serial transfer at ``bandwidth`` plus the default
    CostModel's CPU terms — so the *gap* between prediction and measurement
    is meaningful: it is exactly the queueing/contention behaviour the
    closed forms ignore and the simulation captures.
    """
    cost = CostModel()
    bw = bandwidth if bandwidth is not None else DEFAULT_PREDICTION_BANDWIDTH
    if inputs.background_load > 0.0:
        # Sustained ingest/shuffle traffic holds its share of every link;
        # recovery transfers run on what the application leaves behind.
        bw *= 1.0 - inputs.background_load
    mech = mechanism if isinstance(mechanism, Mechanism) else Mechanism(mechanism)
    size = inputs.state_bytes
    if mech is Mechanism.NONE or size <= 0:
        return 0.0
    if mech is Mechanism.STANDBY:
        # The state was moved before the failure: a dedicated heartbeat
        # detects in a fraction of the DHT-wide delay, then the takeover
        # is an ownership flip plus replay of the unfolded delta tail.
        # Bandwidth never appears — that is the whole point of the tier.
        return cost.detection_delay * cost.standby_detection_factor + (
            cost.standby_takeover_time(
                min(inputs.delta_bytes, size), max(1, inputs.chain_links)
            )
        )
    # Chain-fetch + replay terms: ``size`` covers every fetched segment
    # (base + deltas); the base alone is hash-merged and installed, the
    # delta payload replays on top, and per-segment setup multiplies by
    # the number of links. All terms collapse to the flat-plan forms when
    # chain_links == 1 and delta_bytes == 0.
    delta = min(inputs.delta_bytes, size)
    links = max(1, inputs.chain_links)
    base = size - delta
    replay = cost.replay_time(delta, links - 1)
    transfer = size / bw
    install = cost.install_time(base)
    if mech is Mechanism.STAR:
        # Merge setup covers base shards only; per-link setup for the
        # delta rounds lives inside ``replay``.
        shards = _predicted_shards(base)
        return (
            cost.detection_delay
            + transfer
            + cost.merge_time(base)
            + cost.shard_setup * shards
            + replay
            + install
        )
    if mech is Mechanism.LINE:
        length = recommended_path_length(size, inputs.latency_sensitive)
        # The pipelined chain races the stream into the replacement against
        # the sequential per-stage CPU work (merge of each stage's portion
        # plus the redundant prefix recomputation of Sec. 5.2).
        cpu = (
            length * cost.stage_setup
            + cost.merge_time(size)
            + cost.line_redundant_factor * cost.merge_time(size * (length + 1) / 2.0)
        )
        return cost.detection_delay + max(transfer, cpu) + replay + install
    # TREE: build the per-shard aggregation trees, pay one handoff per
    # level, aggregate (range concatenation at the install rate), deliver.
    bits = recommended_tree_fanout_bits(size)
    height = max(1, int(math.ceil(math.log(_TREE_SUB_SHARDS, 1 << max(1, bits)))))
    build = cost.tree_build_base + cost.tree_build_per_member * _TREE_SUB_SHARDS
    return (
        cost.detection_delay
        + build
        + height * cost.level_setup
        + transfer
        + cost.install_time(size)  # interior range-concat merges
        + cost.install_time(size)  # per-segment installs on the replacement
        + replay
    )


@dataclass
class SelectionExplanation:
    """The heuristic's choice plus predicted vs observed cost per mechanism.

    ``predicted_seconds`` always carries star/line/tree (plus standby when
    the inputs say one is provisioned); ``observed_seconds``
    fills in as the profiler measures actual recoveries. ``model_error`` is
    the signed relative error — positive means the mechanism ran slower
    than the closed form predicted.
    """

    inputs: SelectionInputs
    chosen: Mechanism
    predicted_seconds: Dict[str, float]
    observed_seconds: Dict[str, float] = field(default_factory=dict)

    @staticmethod
    def _key(mechanism: Union[Mechanism, str]) -> str:
        return mechanism.value if isinstance(mechanism, Mechanism) else str(mechanism)

    def observe(self, mechanism: Union[Mechanism, str], seconds: float) -> None:
        """Record a measured recovery makespan for one mechanism."""
        self.observed_seconds[self._key(mechanism)] = float(seconds)

    def model_error(self, mechanism: Union[Mechanism, str]) -> Optional[float]:
        """(observed - predicted) / predicted, or None if either is missing."""
        key = self._key(mechanism)
        predicted = self.predicted_seconds.get(key)
        observed = self.observed_seconds.get(key)
        if predicted is None or observed is None or predicted <= 0:
            return None
        return (observed - predicted) / predicted

    def to_dict(self) -> Dict[str, object]:
        errors = {}
        for key in sorted(self.observed_seconds):
            error = self.model_error(key)
            if error is not None:
                errors[key] = error
        return {
            "chosen": self.chosen.value,
            "state_bytes": self.inputs.state_bytes,
            "inputs": {
                "state_bytes": self.inputs.state_bytes,
                "stateful": self.inputs.stateful,
                "latency_sensitive": self.inputs.latency_sensitive,
                "bandwidth_constrained": self.inputs.bandwidth_constrained,
                "computation_model": self.inputs.computation_model.value,
                "large_state_threshold": self.inputs.large_state_threshold,
                "chain_links": self.inputs.chain_links,
                "delta_bytes": self.inputs.delta_bytes,
                "background_load": self.inputs.background_load,
                "standby_provisioned": self.inputs.standby_provisioned,
                "standby_refresh_bytes_per_s": self.inputs.standby_refresh_bytes_per_s,
                "standby_memory_bytes": self.inputs.standby_memory_bytes,
            },
            "predicted_seconds": dict(sorted(self.predicted_seconds.items())),
            "observed_seconds": dict(sorted(self.observed_seconds.items())),
            "model_error": errors,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SelectionExplanation":
        """Rebuild an explanation from :meth:`to_dict` output.

        Round-trips exactly (``from_dict(e.to_dict()) == e``), so
        calibration state survives bench ``--metrics-out`` serialization.
        Payloads from before the ``inputs`` sub-dict existed (which only
        carried ``state_bytes``) still load, with defaults elsewhere.
        """
        raw = dict(payload.get("inputs") or {})
        raw.setdefault("state_bytes", payload.get("state_bytes", 0.0))
        if "computation_model" in raw:
            raw["computation_model"] = ComputationModel(raw["computation_model"])
        inputs = SelectionInputs(**raw)
        return cls(
            inputs=inputs,
            chosen=Mechanism(payload["chosen"]),
            predicted_seconds={
                str(k): float(v)
                for k, v in dict(payload.get("predicted_seconds") or {}).items()
            },
            observed_seconds={
                str(k): float(v)
                for k, v in dict(payload.get("observed_seconds") or {}).items()
            },
        )


def explain_selection(inputs: SelectionInputs) -> SelectionExplanation:
    """Run the heuristic and predict every mechanism's cost for comparison.

    The standby tier only appears among the predictions when the inputs
    say a standby is provisioned — predicting a flip-takeover that has no
    warm image to flip to would just be noise.
    """
    tiers = [Mechanism.STAR, Mechanism.LINE, Mechanism.TREE]
    if inputs.standby_provisioned:
        tiers.append(Mechanism.STANDBY)
    return SelectionExplanation(
        inputs=inputs,
        chosen=select_mechanism(inputs),
        predicted_seconds={
            mech.value: predict_recovery_seconds(mech, inputs) for mech in tiers
        },
    )
