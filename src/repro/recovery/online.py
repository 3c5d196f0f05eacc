"""Online calibration of the closed-form cost model.

``predict_recovery_seconds`` is a static closed form: serial transfer plus
the CostModel's CPU terms. The gap between it and measured makespans is
exactly the queueing/contention behaviour the closed forms ignore — and it
is *systematic* per cluster, so it can be learned. :class:`OnlineSelector`
feeds observed :class:`~repro.recovery.selection.SelectionExplanation`
samples back into the model: per mechanism it fits ``observed ≈ a ×
predicted + b`` by ordinary least squares (closed form, no RNG — the
"seed-determinism" is structural) and reports the fitted line's error
next to the static one. Because the static prediction is the ``a=1, b=0``
point of the same family, the fitted in-sample error can never exceed the
static error, and after a handful of observations it is strictly below
whenever the cluster deviates from the closed form at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SelectionError
from repro.recovery.selection import (
    Mechanism,
    SelectionExplanation,
    SelectionInputs,
    predict_recovery_seconds,
)

# Mechanisms the calibrator tracks; NONE never recovers so never calibrates.
CALIBRATED_MECHANISMS = ("star", "line", "tree", "standby")


def _key(mechanism: Union[Mechanism, str]) -> str:
    key = mechanism.value if isinstance(mechanism, Mechanism) else str(mechanism)
    if key not in CALIBRATED_MECHANISMS:
        raise SelectionError(f"unknown mechanism to calibrate: {key!r}")
    return key


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
