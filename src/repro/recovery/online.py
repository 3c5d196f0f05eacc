"""Online calibration of the closed-form cost model, per shard.

``predict_recovery_seconds`` is a static closed form: serial transfer plus
the CostModel's CPU terms. The gap between it and measured makespans is
exactly the queueing/contention behaviour the closed forms ignore — and it
is *systematic* per cluster, so it can be learned. :class:`OnlineSelector`
feeds observed :class:`~repro.recovery.selection.SelectionExplanation`
samples back into the model: per mechanism it fits ``observed ≈ a ×
predicted + b`` by ordinary least squares (closed form, no RNG — the
"seed-determinism" is structural) and predicts with the fitted line from
then on. Because the static prediction is the ``a=1, b=0`` point of the
same family, the fitted in-sample error can never exceed the static error,
and after a handful of observations it is strictly below whenever the
cluster deviates from the closed form at all.

The same object answers the *per-shard* question: given per-shard
profiles (bytes, SLO-criticality, heat), SLO-critical shards with a warm
standby get the standby tier, cold shards keep the cheapest tier, and
everything else takes the calibrated-cost argmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SelectionError
from repro.recovery.model import CostModel
from repro.recovery.selection import (
    Mechanism,
    SelectionExplanation,
    SelectionInputs,
    predict_recovery_seconds,
    select_mechanism,
)

# Mechanisms the calibrator tracks; NONE never recovers so never calibrates.
CALIBRATED_MECHANISMS = ("star", "line", "tree", "standby")


def _key(mechanism: Union[Mechanism, str]) -> str:
    key = mechanism.value if isinstance(mechanism, Mechanism) else str(mechanism)
    if key not in CALIBRATED_MECHANISMS:
        raise SelectionError(f"unknown mechanism to calibrate: {key!r}")
    return key


@dataclass(frozen=True)
class ShardProfile:
    """What the per-shard decision looks at for one shard."""

    shard_index: int
    state_bytes: float
    slo_critical: bool = False
    cold: bool = False
    standby_provisioned: bool = False

    def __post_init__(self) -> None:
        if self.shard_index < 0:
            raise SelectionError("shard_index must be non-negative")
        if self.state_bytes < 0:
            raise SelectionError("state_bytes must be non-negative")


@dataclass(frozen=True)
class ShardDecision:
    """The tier one shard gets, and why."""

    shard_index: int
    mechanism: Mechanism
    predicted_seconds: float
    reason: str


class OnlineSelector:
    """Least-squares calibration of per-mechanism cost coefficients."""

    def __init__(self) -> None:
        # Per mechanism: [(static_predicted_s, observed_s), ...] in
        # observation order (kept — order is part of the serialized state).
        self._samples: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------- observing

    def observe(
        self,
        mechanism: Union[Mechanism, str],
        inputs: SelectionInputs,
        observed_seconds: float,
    ) -> None:
        """Record one measured recovery makespan for one mechanism."""
        if observed_seconds < 0:
            raise SelectionError("observed_seconds must be non-negative")
        predicted = predict_recovery_seconds(mechanism, inputs)
        self._samples.setdefault(_key(mechanism), []).append(
            (float(predicted), float(observed_seconds))
        )

    def observe_explanation(self, explanation: SelectionExplanation) -> None:
        """Fold every observed mechanism of one explanation into the fit."""
        for key, observed in sorted(explanation.observed_seconds.items()):
            if key in CALIBRATED_MECHANISMS:
                self.observe(key, explanation.inputs, observed)

    def samples(self, mechanism: Union[Mechanism, str]) -> int:
        return len(self._samples.get(_key(mechanism), ()))

    @property
    def total_samples(self) -> int:
        return sum(len(v) for v in self._samples.values())

    # ----------------------------------------------------------- calibrating

    def coefficients(self, mechanism: Union[Mechanism, str]) -> Tuple[float, float]:
        """The fitted ``(a, b)`` of ``observed ≈ a·predicted + b``.

        The fit is least squares in *relative* error — it minimizes
        ``Σ((a·pᵢ + b − oᵢ)/oᵢ)²`` — the same norm :meth:`static_error` /
        :meth:`calibrated_error` report. The static model is the
        ``(1, 0)`` point of this family, so by optimality the calibrated
        error can never exceed the static error. Falls back to the
        identity until two observations exist (a 2-coefficient fit needs
        two points).
        """
        points = [
            (p, o)
            for p, o in self._samples.get(_key(mechanism), [])
            if o > 0
        ]
        if len(points) < 2:
            return (1.0, 0.0)
        # Rows [pᵢ/oᵢ, 1/oᵢ] against target 1: normal equations of the
        # relative-error-weighted 2-coefficient fit.
        sum_uu = sum((p / o) ** 2 for p, o in points)
        sum_vv = sum((1.0 / o) ** 2 for _, o in points)
        sum_uv = sum(p / (o * o) for p, o in points)
        sum_u = sum(p / o for p, o in points)
        sum_v = sum(1.0 / o for _, o in points)
        denom = sum_uu * sum_vv - sum_uv * sum_uv
        if abs(denom) < 1e-12 or sum_uu <= 0:
            if sum_uu <= 0:
                return (1.0, 0.0)
            # Degenerate design (e.g. a single repeated point): scale-only
            # fit, still optimal within the b=0 sub-family.
            return (sum_u / sum_uu, 0.0)
        a = (sum_u * sum_vv - sum_v * sum_uv) / denom
        b = (sum_v * sum_uu - sum_u * sum_uv) / denom
        return (a, b)

    def predict(
        self, mechanism: Union[Mechanism, str], inputs: SelectionInputs
    ) -> float:
        """The calibrated prediction: fitted line over the static form."""
        static = predict_recovery_seconds(mechanism, inputs)
        a, b = self.coefficients(mechanism)
        return max(0.0, a * static + b)

    def _errors(
        self, mechanism: Union[Mechanism, str], a: float, b: float
    ) -> Optional[float]:
        """RMS relative error of ``a·p + b`` against the observations."""
        points = self._samples.get(_key(mechanism), [])
        usable = [(p, o) for p, o in points if o > 0]
        if not usable:
            return None
        total = sum(((a * p + b - o) / o) ** 2 for p, o in usable)
        return (total / len(usable)) ** 0.5

    def static_error(self, mechanism: Union[Mechanism, str]) -> Optional[float]:
        """RMS relative error of the uncalibrated closed form."""
        return self._errors(mechanism, 1.0, 0.0)

    def calibrated_error(self, mechanism: Union[Mechanism, str]) -> Optional[float]:
        """RMS relative error of the fitted line (in-sample)."""
        a, b = self.coefficients(mechanism)
        return self._errors(mechanism, a, b)

    # ------------------------------------------------------ per-shard policy

    def decide_shards(
        self,
        profiles: Sequence[ShardProfile],
        base_inputs: Optional[SelectionInputs] = None,
    ) -> List[ShardDecision]:
        """Per-shard tiers: standby where the SLO demands it, cheap where
        nobody is looking, calibrated argmin elsewhere.

        ``base_inputs`` carries the application-level context (latency
        sensitivity, bandwidth, chain shape); per-shard fields override
        its size and standby provisioning.
        """
        base = base_inputs or SelectionInputs(state_bytes=0.0)
        decisions: List[ShardDecision] = []
        for profile in sorted(profiles, key=lambda p: p.shard_index):
            inputs = SelectionInputs(
                state_bytes=profile.state_bytes,
                stateful=base.stateful,
                latency_sensitive=base.latency_sensitive,
                bandwidth_constrained=base.bandwidth_constrained,
                computation_model=base.computation_model,
                large_state_threshold=base.large_state_threshold,
                chain_links=base.chain_links,
                delta_bytes=min(base.delta_bytes, profile.state_bytes),
                background_load=base.background_load,
                standby_provisioned=profile.standby_provisioned,
                standby_refresh_bytes_per_s=base.standby_refresh_bytes_per_s,
                standby_memory_bytes=base.standby_memory_bytes,
            )
            if profile.slo_critical and profile.standby_provisioned:
                mech = Mechanism.STANDBY
                reason = "slo-critical with warm standby: flip takeover"
            elif profile.cold:
                mech = Mechanism.STAR
                reason = "cold shard: cheapest tier, no steady-state cost"
            else:
                candidates = [Mechanism.STAR, Mechanism.LINE, Mechanism.TREE]
                if profile.standby_provisioned:
                    candidates.append(Mechanism.STANDBY)
                mech = min(
                    candidates,
                    key=lambda m: (self.predict(m, inputs), m.value),
                )
                reason = "calibrated-cost argmin"
                if self.total_samples == 0:
                    # Nothing observed yet: fall back to the Fig. 7 diagram
                    # rather than trusting uncalibrated closed forms.
                    mech = select_mechanism(inputs)
                    if mech is Mechanism.NONE:
                        mech = Mechanism.STAR
                    reason = "uncalibrated: Fig. 7 heuristic"
            decisions.append(
                ShardDecision(
                    shard_index=profile.shard_index,
                    mechanism=mech,
                    predicted_seconds=self.predict(mech, inputs),
                    reason=reason,
                )
            )
        return decisions

    # ---------------------------------------------------------- serializing

    def to_dict(self) -> Dict[str, object]:
        """Serializable calibration state (bench round-trips)."""
        coefficients = {}
        for key in CALIBRATED_MECHANISMS:
            if key in self._samples:
                a, b = self.coefficients(key)
                coefficients[key] = {"a": a, "b": b}
        return {
            "format": "sr3-online-selector-1",
            "samples": {
                key: [[p, o] for p, o in self._samples[key]]
                for key in sorted(self._samples)
            },
            "coefficients": coefficients,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OnlineSelector":
        """Rebuild a selector from :meth:`to_dict` output.

        Coefficients are re-derived from the samples, so the round-trip is
        exact by construction; the stored ones are informational.
        """
        if payload.get("format") != "sr3-online-selector-1":
            raise SelectionError(
                f"not an OnlineSelector payload: {payload.get('format')!r}"
            )
        selector = cls()
        for key, points in dict(payload.get("samples") or {}).items():
            selector._samples[_key(key)] = [
                (float(p), float(o)) for p, o in points
            ]
        return selector

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OnlineSelector):
            return NotImplemented
        return self._samples == other._samples
