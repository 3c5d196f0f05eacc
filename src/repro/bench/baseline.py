"""Perf-regression baselines for the bench CLI (``BENCH_sr3.json``).

Every traced bench run yields one deterministic makespan per recovery
(virtual clock, seeded RNG), keyed ``{trace}/{mechanism}/{state}#{n}``
where ``n`` disambiguates repeated recoveries of the same state within
one trace. Committing those numbers turns any future run into a perf
gate: a recovery more than ``tolerance`` slower than its recorded
makespan is a regression — in the *model*, not the hardware, which is
exactly what a simulation baseline should catch (a cost-model edit or a
scheduling change that silently slows a mechanism down).

The artifact is plain sorted-key JSON so diffs review like code:

    {"format": "sr3-bench-1", "metrics": {"sim-0/star/st#0": 7.16, ...}}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import BenchmarkError
from repro.obs.profile import RecoveryProfile

__all__ = [
    "BASELINE_FORMAT",
    "DEFAULT_TOLERANCE",
    "INFORMATIONAL_SUFFIXES",
    "Regression",
    "BaselineComparison",
    "baseline_metrics",
    "write_baseline",
    "load_baseline",
    "compare_to_baseline",
]

BASELINE_FORMAT = "sr3-bench-1"
DEFAULT_TOLERANCE = 0.20

# Keys with these suffixes record host wall-clock measurements (the
# ``bench scale`` throughput numbers) or diagnostic model comparisons
# (``bench live``'s predicted-vs-observed gap). They are kept in the
# artifact for the record but never gated — wall time is noisy on shared
# CI runners, and the prediction error tracks a deliberately simple
# closed form, unlike the deterministic simulated-seconds makespans.
INFORMATIONAL_SUFFIXES = ("/wall_s", "/events_per_s", "/predict_error")


def baseline_metrics(profiles: Sequence[RecoveryProfile]) -> Dict[str, float]:
    """One makespan per recovery, keyed ``{trace}/{mechanism}/{state}#{n}``."""
    metrics: Dict[str, float] = {}
    seen: Dict[str, int] = {}
    for profile in profiles:
        base = f"{profile.trace}/{profile.mechanism}/{profile.state}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        metrics[f"{base}#{n}"] = profile.makespan
    return metrics


@dataclass(frozen=True)
class Regression:
    """One recovery that ran slower than the committed baseline allows."""

    key: str
    baseline_s: float
    measured_s: float

    @property
    def ratio(self) -> float:
        return self.measured_s / self.baseline_s if self.baseline_s else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.key}: {self.measured_s:.3f}s vs baseline "
            f"{self.baseline_s:.3f}s ({self.ratio - 1.0:+.1%})"
        )


@dataclass
class BaselineComparison:
    """Outcome of checking measured makespans against a baseline."""

    tolerance: float
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    new_keys: List[str] = field(default_factory=list)
    missing_keys: List[str] = field(default_factory=list)
    compared: int = 0
    informational: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"baseline check: {self.compared} compared, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved >{self.tolerance:.0%}, "
            f"{len(self.new_keys)} new, {len(self.missing_keys)} missing, "
            f"{self.informational} informational (wall-clock, not gated)"
        ]
        for regression in self.regressions:
            lines.append(f"  REGRESSION {regression}")
        for improvement in self.improvements:
            lines.append(f"  improved   {improvement}")
        return "\n".join(lines)


def compare_to_baseline(
    baseline: Dict[str, float],
    measured: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> BaselineComparison:
    """Flag every measured makespan more than ``tolerance`` over baseline.

    Keys present on only one side are reported (``new_keys`` /
    ``missing_keys``) but never fail the gate — an experiment gaining or
    losing a recovery is a review question, not a perf regression.
    """
    if tolerance < 0:
        raise BenchmarkError("baseline tolerance must be non-negative")
    comparison = BaselineComparison(tolerance=tolerance)
    for key in sorted(set(baseline) | set(measured)):
        if key.endswith(INFORMATIONAL_SUFFIXES):
            comparison.informational += 1
            continue
        if key not in baseline:
            comparison.new_keys.append(key)
            continue
        if key not in measured:
            comparison.missing_keys.append(key)
            continue
        comparison.compared += 1
        record = Regression(key, baseline[key], measured[key])
        if measured[key] > baseline[key] * (1.0 + tolerance):
            comparison.regressions.append(record)
        elif measured[key] < baseline[key] * (1.0 - tolerance):
            comparison.improvements.append(record)
    return comparison


def write_baseline(path: str, metrics: Dict[str, float]) -> str:
    """Write a baseline artifact; returns the path."""
    payload = {"format": BASELINE_FORMAT, "metrics": dict(sorted(metrics.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")
    return path


def load_baseline(path: str) -> Dict[str, float]:
    """Read a baseline artifact back into its metrics dict."""
    if not os.path.exists(path):
        raise BenchmarkError(f"baseline file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != BASELINE_FORMAT:
        raise BenchmarkError(
            f"{path}: not a {BASELINE_FORMAT} baseline artifact"
        )
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        raise BenchmarkError(f"{path}: malformed metrics table")
    return {str(k): float(v) for k, v in metrics.items()}
