"""Online cost-model calibration."""

import pytest

from repro.errors import SelectionError
from repro.recovery.online import CALIBRATED_MECHANISMS, OnlineSelector
from repro.recovery.selection import (
    Mechanism,
    SelectionExplanation,
    SelectionInputs,
    explain_selection,
    predict_recovery_seconds,
)
from repro.util.sizes import MB

SIZES_MB = (8, 16, 32, 64, 128)


def observed_cluster(selector, a=1.4, b=1.0, mechanism="tree"):
    """Feed five synthetic recoveries where the cluster runs a·p+b."""
    for size_mb in SIZES_MB:
        inputs = SelectionInputs(state_bytes=size_mb * MB)
        predicted = predict_recovery_seconds(mechanism, inputs)
        selector.observe(mechanism, inputs, a * predicted + b)


class TestCalibration:
    def test_identity_until_min_samples(self):
        selector = OnlineSelector()
        inputs = SelectionInputs(state_bytes=8 * MB)
        selector.observe("tree", inputs, 5.0)
        assert selector.coefficients("tree") == (1.0, 0.0)

    def test_recovers_the_true_line(self):
        selector = OnlineSelector()
        observed_cluster(selector, a=1.4, b=1.0)
        a, b = selector.coefficients("tree")
        assert a == pytest.approx(1.4, rel=1e-6)
        assert b == pytest.approx(1.0, rel=1e-6)
        assert selector.calibrated_error("tree") == pytest.approx(0.0, abs=1e-9)

    def test_calibrated_strictly_beats_static_after_five(self):
        selector = OnlineSelector()
        observed_cluster(selector)
        assert selector.samples("tree") >= 5
        assert selector.calibrated_error("tree") < selector.static_error("tree")

    def test_calibrated_never_exceeds_static(self):
        # Noisy, non-linear cluster: the fit can't be exact, but (1, 0)
        # is inside the fit family so it can never do better.
        selector = OnlineSelector()
        for i, size_mb in enumerate(SIZES_MB):
            inputs = SelectionInputs(state_bytes=size_mb * MB)
            predicted = predict_recovery_seconds("star", inputs)
            selector.observe("star", inputs, predicted * (1.1 + 0.2 * (i % 3)))
        assert (
            selector.calibrated_error("star")
            <= selector.static_error("star") + 1e-12
        )

    def test_predict_applies_the_fitted_line(self):
        selector = OnlineSelector()
        observed_cluster(selector, a=2.0, b=0.0)
        inputs = SelectionInputs(state_bytes=48 * MB)
        static = predict_recovery_seconds("tree", inputs)
        a, b = selector.coefficients("tree")
        assert a * static + b == pytest.approx(2.0 * static, rel=1e-6)

    def test_degenerate_design_falls_back_to_scale_fit(self):
        selector = OnlineSelector()
        inputs = SelectionInputs(state_bytes=8 * MB)
        predicted = predict_recovery_seconds("line", inputs)
        for _ in range(3):
            selector.observe("line", inputs, 2.0 * predicted)
        a, b = selector.coefficients("line")
        assert a == pytest.approx(2.0, rel=1e-6)
        assert b == 0.0

    def test_observe_explanation_folds_every_mechanism(self):
        selector = OnlineSelector()
        explanation = explain_selection(SelectionInputs(state_bytes=16 * MB))
        explanation.observe("tree", 4.0)
        explanation.observe("star", 6.0)
        selector.observe_explanation(explanation)
        assert selector.samples("tree") == 1
        assert selector.samples("star") == 1

    def test_validation(self):
        selector = OnlineSelector()
        with pytest.raises(SelectionError):
            selector.samples("rocket")
        with pytest.raises(SelectionError):
            selector.observe("tree", SelectionInputs(state_bytes=1.0), -1.0)
        assert selector.static_error("tree") is None
        assert selector.calibrated_error("tree") is None


class TestSelectorRoundTrip:
    def test_to_from_dict_is_exact(self):
        selector = OnlineSelector()
        observed_cluster(selector)
        observed_cluster(selector, a=1.1, b=0.2, mechanism="standby")
        payload = selector.to_dict()
        assert payload["format"] == "sr3-online-selector-1"
        restored = OnlineSelector.from_dict(payload)
        assert restored == selector
        assert restored.coefficients("tree") == selector.coefficients("tree")
        assert restored.calibrated_error("standby") == pytest.approx(
            selector.calibrated_error("standby")
        )

    def test_from_dict_rejects_foreign_payloads(self):
        with pytest.raises(SelectionError, match="payload"):
            OnlineSelector.from_dict({"format": "sr3-bench-1"})


class TestExplanationRoundTrip:
    def test_round_trip_with_standby_inputs(self):
        inputs = SelectionInputs(
            state_bytes=32 * MB,
            latency_sensitive=True,
            chain_links=3,
            delta_bytes=2 * MB,
            standby_provisioned=True,
            standby_refresh_bytes_per_s=4 * MB,
            standby_memory_bytes=32 * MB,
        )
        explanation = explain_selection(inputs)
        explanation.observe("tree", 4.2)
        explanation.observe(Mechanism.STANDBY, 0.31)
        restored = SelectionExplanation.from_dict(explanation.to_dict())
        assert restored == explanation
        assert restored.inputs.standby_provisioned is True
        assert "standby" in restored.predicted_seconds
        assert restored.model_error("tree") == pytest.approx(
            explanation.model_error("tree")
        )

    def test_legacy_payload_without_inputs_dict(self):
        payload = {
            "chosen": "tree",
            "state_bytes": 8 * MB,
            "predicted_seconds": {"tree": 3.0},
            "observed_seconds": {"tree": 3.3},
        }
        restored = SelectionExplanation.from_dict(payload)
        assert restored.inputs.state_bytes == 8 * MB
        assert restored.inputs.standby_provisioned is False
        assert restored.chosen is Mechanism.TREE
        assert restored.observed_seconds == {"tree": 3.3}

    def test_every_calibrated_mechanism_is_serializable(self):
        inputs = SelectionInputs(state_bytes=8 * MB, standby_provisioned=True)
        explanation = explain_selection(inputs)
        for key in CALIBRATED_MECHANISMS:
            explanation.observe(key, 1.0)
        restored = SelectionExplanation.from_dict(explanation.to_dict())
        assert set(restored.observed_seconds) == set(CALIBRATED_MECHANISMS)
