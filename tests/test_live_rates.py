"""Rate curves: shapes and integration."""

import pytest

from repro.errors import WorkloadError
from repro.live.rates import ConstantRate, FlashCrowd, RateCurve


class TestConstantRate:
    def test_flat(self):
        curve = ConstantRate(250.0)
        assert curve.rate_at(0.0) == 250.0
        assert curve.rate_at(1e6) == 250.0

    def test_events_between_exact(self):
        curve = ConstantRate(100.0)
        assert curve.events_between(2.0, 5.5) == pytest.approx(350.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError):
            ConstantRate(-1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(WorkloadError):
            ConstantRate(10.0).events_between(5.0, 4.0)


class TestFlashCrowd:
    def test_piecewise_shape(self):
        curve = FlashCrowd(base=100.0, peak=1000.0, at=10.0, ramp=4.0, hold=6.0, decay=8.0)
        assert curve.rate_at(0.0) == 100.0
        assert curve.rate_at(12.0) == pytest.approx(550.0)  # mid-ramp
        assert curve.rate_at(15.0) == 1000.0  # plateau
        assert curve.rate_at(24.0) == pytest.approx(550.0)  # mid-decay
        assert curve.rate_at(60.0) == 100.0

    def test_peak_below_base_rejected(self):
        with pytest.raises(WorkloadError):
            FlashCrowd(base=100.0, peak=50.0, at=5.0)


class TestMidpointIntegration:
    def test_midpoint_rule_on_linear_segment_is_exact(self):
        curve = FlashCrowd(base=0.0, peak=100.0, at=0.0, ramp=10.0, hold=0.0, decay=0.0)
        # Linear ramp from 0 to 100 over [0, 10]: integral is 500.
        assert curve.events_between(0.0, 10.0) == pytest.approx(500.0)

    def test_base_class_requires_rate_at(self):
        with pytest.raises(NotImplementedError):
            RateCurve().rate_at(0.0)
