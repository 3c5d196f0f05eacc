"""The public import surface stays importable and complete."""

import importlib

import pytest

import repro
from repro.errors import (
    IntegrityError,
    InsufficientShardsError,
    MulticastError,
    NetworkError,
    OverlayError,
    RecoveryError,
    ReproError,
    RoutingError,
    ShardError,
    SimulationError,
    StateError,
    StreamRuntimeError,
    TopologyError,
    VersionConflictError,
)
from repro.obs import recorder

PACKAGES = [
    "repro.sim",
    "repro.dht",
    "repro.multicast",
    "repro.state",
    "repro.recovery",
    "repro.recovery.baselines",
    "repro.streaming",
    "repro.workloads",
    "repro.bench",
    "repro.obs",
    "repro.control",
    "repro.live",
]


class TestImports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_top_level(self):
        assert repro.__version__
        assert hasattr(repro, "SR3")
        assert hasattr(repro, "SplitResult")
        assert hasattr(repro, "SelectionResult")

    def test_table2_api_methods_present(self):
        from repro import SR3

        for method in (
            "state_split",
            "save",
            "define",
            "selection",
            "recover",
            "export_trace",
        ):
            assert callable(getattr(SR3, method))

    def test_obs_surface(self):
        from repro import obs

        for name in (
            "Tracer",
            "NullTracer",
            "Span",
            "MetricsRegistry",
            "Counter",
            "Gauge",
            "Histogram",
            "TimeSeries",
            "trace_dict",
            "chrome_trace",
            "write_trace",
        ):
            assert hasattr(obs, name), f"repro.obs.{name} missing"
        for name in ("start", "stop", "new_tracer", "new_registry", "take", "adopt"):
            assert callable(getattr(recorder, name)), f"repro.obs.recorder.{name} missing"

    def test_deployment_surface(self):
        from repro import recovery

        for name in ("Deployment", "build_deployment", "MECHANISMS"):
            assert getattr(repro, name) is getattr(recovery, name)
        assert hasattr(recovery, "HoldsDeployment")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SimulationError,
            NetworkError,
            OverlayError,
            RoutingError,
            MulticastError,
            StateError,
            ShardError,
            VersionConflictError,
            IntegrityError,
            RecoveryError,
            InsufficientShardsError,
                    TopologyError,
            StreamRuntimeError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_specialisations(self):
        assert issubclass(NetworkError, SimulationError)
        assert issubclass(RoutingError, OverlayError)
        assert issubclass(InsufficientShardsError, RecoveryError)
        assert issubclass(VersionConflictError, StateError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise InsufficientShardsError("x")
