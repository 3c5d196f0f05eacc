"""Ingest-rate curves for the live-traffic driver.

A :class:`RateCurve` maps simulated time to an offered load in events per
second. The driver integrates it per tick to decide how many tuples
arrive, and mirrors it into the network's app-flow demands so the max-min
allocator sees the same load the topology does.

Key skew is not a rate property — the Zipf-hot-key behaviour comes from
the workload generators' ``zipf_s`` knob; the curve only shapes *when*
events arrive, not *which* keys they touch.
"""

from __future__ import annotations

from repro.errors import WorkloadError

__all__ = [
    "RateCurve",
    "ConstantRate",
    "FlashCrowd",
]


class RateCurve:
    """Offered load over simulated time (events/second)."""

    def rate_at(self, t: float) -> float:
        """Instantaneous events/second at time ``t``."""
        raise NotImplementedError

    def events_between(self, t0: float, t1: float) -> float:
        """Expected event count in [t0, t1) — midpoint rule by default.

        Exact for constant and piecewise-linear segments sampled at tick
        granularity; the driver carries the fractional remainder between
        ticks so no arrival is lost to rounding.
        """
        if t1 < t0:
            raise WorkloadError("events_between needs t1 >= t0")
        return self.rate_at((t0 + t1) / 2.0) * (t1 - t0)


class ConstantRate(RateCurve):
    """A flat ``rate`` events/second."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise WorkloadError("rate must be non-negative")
        self.rate = float(rate)

    def rate_at(self, t: float) -> float:
        return self.rate

    def events_between(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise WorkloadError("events_between needs t1 >= t0")
        return self.rate * (t1 - t0)

    def __repr__(self) -> str:
        return f"ConstantRate({self.rate:g})"


class FlashCrowd(RateCurve):
    """A sudden traffic spike: linear ramp, plateau, linear decay.

    Flat at ``base`` until ``at``; climbs linearly to ``peak`` over
    ``ramp`` seconds; holds for ``hold`` seconds; decays linearly back to
    ``base`` over ``decay`` seconds. The canonical stress pattern for
    recovery-under-load: kill the owner near the plateau and the
    replacement's downlink is contended exactly when the state must move.
    """

    def __init__(
        self,
        base: float,
        peak: float,
        at: float,
        ramp: float = 5.0,
        hold: float = 10.0,
        decay: float = 10.0,
    ) -> None:
        if base < 0 or peak < 0:
            raise WorkloadError("rates must be non-negative")
        if peak < base:
            raise WorkloadError("flash-crowd peak must be >= base")
        if at < 0:
            raise WorkloadError("spike start must be non-negative")
        if ramp < 0 or hold < 0 or decay < 0:
            raise WorkloadError("ramp/hold/decay must be non-negative")
        self.base = float(base)
        self.peak = float(peak)
        self.at = float(at)
        self.ramp = float(ramp)
        self.hold = float(hold)
        self.decay = float(decay)

    def rate_at(self, t: float) -> float:
        if t < self.at:
            return self.base
        t -= self.at
        if t < self.ramp:
            return self.base + (self.peak - self.base) * (t / self.ramp)
        t -= self.ramp
        if t < self.hold:
            return self.peak
        t -= self.hold
        if t < self.decay:
            return self.peak - (self.peak - self.base) * (t / self.decay)
        return self.base

    def __repr__(self) -> str:
        return (
            f"FlashCrowd(base={self.base:g}, peak={self.peak:g}, "
            f"at={self.at:g}, ramp={self.ramp:g}, hold={self.hold:g}, "
            f"decay={self.decay:g})"
        )
