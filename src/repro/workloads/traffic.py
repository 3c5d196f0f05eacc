"""Traffic monitoring over synthetic bus GPS traces.

Stand-in for the paper's Dublin Bus GPS dataset (Table 3): buses move
along fixed routes on a city grid, reporting position and schedule delay;
the monitoring operator keeps per-route sliding-window delay statistics —
the recoverable state — and raises congestion alerts when a route's
average delay exceeds a threshold.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

from repro.errors import WorkloadError
from repro.streaming.component import IteratorSpout, OutputCollector
from repro.streaming.groupings import FieldsGrouping
from repro.streaming.stateful import StatefulBolt
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.tuples import StreamTuple
from repro.streaming.windows import SlidingWindow


class BusTraceGenerator:
    """Yields ``(bus_id, route, lat, lon, delay_s, timestamp)`` records.

    Each route has a base congestion level; delays random-walk around it,
    with occasional congestion spikes so alerts actually fire.
    """

    def __init__(
        self,
        num_events: int,
        num_routes: int = 12,
        buses_per_route: int = 5,
        seed: int = 0,
        spike_probability: float = 0.02,
    ) -> None:
        if num_events < 0:
            raise WorkloadError("num_events must be non-negative")
        if num_routes < 1 or buses_per_route < 1:
            raise WorkloadError("routes and buses must be positive")
        if not 0.0 <= spike_probability <= 1.0:
            raise WorkloadError("spike_probability must be within [0, 1]")
        self.num_events = num_events
        self.num_routes = num_routes
        self.buses_per_route = buses_per_route
        self.seed = seed
        self.spike_probability = spike_probability

    def __iter__(self) -> Iterator[Tuple[str, str, float, float, float, float]]:
        rng = random.Random(self.seed)
        base_delay = {
            f"route-{r}": rng.uniform(10.0, 120.0) for r in range(self.num_routes)
        }
        delays: Dict[str, float] = {}
        for i in range(self.num_events):
            route = f"route-{rng.randrange(self.num_routes)}"
            bus = f"{route}/bus-{rng.randrange(self.buses_per_route)}"
            current = delays.get(bus, base_delay[route])
            current = max(0.0, current + rng.gauss(0.0, 8.0))
            if rng.random() < self.spike_probability:
                current += rng.uniform(120.0, 600.0)
            delays[bus] = current
            lat = 53.35 + rng.uniform(-0.1, 0.1)
            lon = -6.26 + rng.uniform(-0.1, 0.1)
            yield bus, route, round(lat, 6), round(lon, 6), round(current, 1), float(i)


class RouteDelayBolt(StatefulBolt):
    """Sliding-window average delay per route, with congestion alerts.

    State per route: ``(delay_sum, event_count, panes)``, the lifetime
    totals and the sliding window's open panes
    (:meth:`~repro.streaming.windows.SlidingWindow.open_panes`), so a
    restored task reopens its windows where its store left them. Emits
    ``(route, window_avg_delay, lifetime_avg_delay, ts)`` whenever the
    window average crosses ``alert_threshold``.
    """

    def __init__(
        self,
        window_size: float = 200.0,
        window_slide: float = 50.0,
        alert_threshold: float = 150.0,
    ) -> None:
        super().__init__()
        if alert_threshold <= 0:
            raise WorkloadError("alert_threshold must be positive")
        self.window_size = window_size
        self.window_slide = window_slide
        self.alert_threshold = alert_threshold

    def declare_output_fields(self):
        return ("route", "window_avg", "lifetime_avg", "ts")

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        route = tuple_["route"]
        delay = tuple_["delay"]
        ts = tuple_["ts"]
        total, count, panes = self.state.get(route, (0.0, 0, ()))
        total += delay
        count += 1
        window = SlidingWindow(self.window_size, self.window_slide).reopen(panes)
        closed = window.add(ts, delay)
        self.state.put(route, (total, count, window.open_panes()))
        for pane in closed:
            if pane.items:
                window_avg = sum(pane.items) / len(pane.items)
                if window_avg > self.alert_threshold:
                    lifetime_avg = total / count
                    collector.emit(
                        (route, round(window_avg, 2), round(lifetime_avg, 2), ts),
                        timestamp=ts,
                    )


def build_traffic_topology(
    num_events: int = 5_000,
    seed: int = 0,
    parallelism: int = 2,
    alert_threshold: float = 150.0,
) -> Topology:
    """GPS spout -> fields-grouped RouteDelayBolt."""
    builder = TopologyBuilder("traffic-monitoring")
    builder.set_spout(
        "gps",
        IteratorSpout(
            BusTraceGenerator(num_events, seed=seed),
            ("bus_id", "route", "lat", "lon", "delay", "ts"),
        ),
    )
    builder.set_bolt(
        "monitor",
        RouteDelayBolt(alert_threshold=alert_threshold),
        [("gps", FieldsGrouping(["route"]))],
        parallelism=parallelism,
    )
    return builder.build()
