"""The process-wide recorder: which tracers and registries a run keeps.

The bench CLI cannot hand the simulations an experiment builds a tracer,
so it calls :func:`start` with what its flags need — spans for the span
artifacts, registries for ``--metrics-out`` — and every
:class:`~repro.sim.kernel.Simulator` built until :func:`stop` gets its
pair from :func:`new_tracer` and :func:`new_registry`. Recorded items are
named ``<name>-<index>`` by their position in their list. A spawn worker
of :mod:`repro.bench.parallel` :func:`take` s what its cell recorded, and
the parent :func:`adopt` s it in cell order, so artifacts are
byte-identical however the cells ran.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "start", "stop", "recording", "new_tracer", "new_registry", "registry_dumps",
    "TracerLike", "as_tracers", "mark", "take", "adopt",
]

_RECORDING = {"spans": False, "metrics": False}
_TRACERS: List[Tracer] = []
#: Registries this process built, or the dumps it adopted from a worker.
_REGISTRIES: List[Union[MetricsRegistry, Dict[str, object]]] = []


def start(spans: bool = False, metrics: bool = False) -> None:
    """Record the tracers (``spans``) and registries (``metrics``) of every
    simulation built from now on."""
    _RECORDING.update(spans=spans, metrics=metrics)


def stop() -> None:
    """Record nothing more, and forget what was recorded."""
    start()
    del _TRACERS[:], _REGISTRIES[:]


def recording() -> Tuple[bool, bool]:
    """``(spans, metrics)``: what :func:`start` switched on."""
    return _RECORDING["spans"], _RECORDING["metrics"]


def new_tracer(name: str = "sim", private: bool = False) -> Union[Tracer, NullTracer]:
    """A tracer for a new simulation.

    Recorded while spans are; otherwise the null tracer, or with
    ``private`` a live one nobody exports (for a caller that reads its
    own spans).
    """
    if _RECORDING["spans"]:
        tracer = Tracer(f"{name}-{len(_TRACERS)}")
        _TRACERS.append(tracer)
        return tracer
    return Tracer(name) if private else NULL_TRACER


def new_registry() -> MetricsRegistry:
    """A registry for a new simulation, kept while metrics are recorded."""
    if not _RECORDING["metrics"]:
        return MetricsRegistry("sim")
    registry = MetricsRegistry(f"sim-{len(_REGISTRIES)}")
    _REGISTRIES.append(registry)
    return registry


def _dump(registry: Union[MetricsRegistry, Dict[str, object]]) -> Dict[str, object]:
    return registry if isinstance(registry, dict) else registry.dump()


def registry_dumps() -> List[Dict[str, object]]:
    """The dump of every recorded registry, in recording order."""
    return [_dump(registry) for registry in _REGISTRIES]


#: One tracer, several, or None for every recorded one.
TracerLike = Union[Tracer, NullTracer, Sequence[Tracer]]


def as_tracers(tracers: Optional[TracerLike]) -> List[Union[Tracer, NullTracer]]:
    """The tracers an exporter reads: the given ones, or every recorded one."""
    if tracers is None:
        return list(_TRACERS)
    if isinstance(tracers, (Tracer, NullTracer)):
        return [tracers]
    return list(tracers)


# ------------------------------------------------- cross-process take/adopt


def mark() -> Tuple[int, int]:
    """Where the record stands now; :func:`take` ships what comes after."""
    return len(_TRACERS), len(_REGISTRIES)


def _base_name(name: str, index: int) -> str:
    suffix = f"-{index}"
    return name[: -len(suffix)] if name.endswith(suffix) else name


def take(mark: Tuple[int, int]) -> Dict[str, List[Any]]:
    """Remove what was recorded since ``mark`` and return it picklable.

    Names lose their index, which :func:`adopt` applies afresh. A tracer
    travels with its clock's current reading: open spans clamp to it.
    """
    first_tracer, first_registry = mark
    tracers = [
        {
            "name": _base_name(tracer.name, index),
            "now": tracer.now,
            "spans": [
                (s.span_id, s.parent_id, s.name, s.category, s.kind, s.start, s.end, dict(s.attrs))
                for s in tracer.spans
            ],
        }
        for index, tracer in enumerate(_TRACERS[first_tracer:], start=first_tracer)
    ]
    dumps = map(_dump, _REGISTRIES[first_registry:])
    registries = [
        dict(dump, name=_base_name(str(dump["name"]), index))
        for index, dump in enumerate(dumps, start=first_registry)
    ]
    del _TRACERS[first_tracer:], _REGISTRIES[first_registry:]
    return {"tracers": tracers, "registries": registries}


def adopt(payload: Dict[str, List[Any]]) -> None:
    """Record what :func:`take` returned, numbered as if built here.

    A rebuilt tracer's clock stays at the instant it was taken, so open
    spans keep clamping where they did; registries are kept as dumps.
    """
    for shipped in payload["tracers"]:
        tracer = Tracer(f"{shipped['name']}-{len(_TRACERS)}")
        tracer.bind_clock(lambda now=float(shipped["now"]): now)
        for span_id, parent_id, name, category, kind, begin, end, attrs in shipped["spans"]:
            span = Span(tracer, span_id, parent_id, name, category, kind, begin, attrs)
            span.end = end
            tracer.spans.append(span)
        _TRACERS.append(tracer)
    for dump in payload["registries"]:
        _REGISTRIES.append(dict(dump, name=f"{dump['name']}-{len(_REGISTRIES)}"))
