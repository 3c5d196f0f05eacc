"""The Bargain Index application over synthetic finance ticks.

Stand-in for the paper's Google Finance dataset (Table 3): a seeded
random-walk tick stream, and the classic CEP "bargain index" operator —
track the volume-weighted average price (VWAP) per symbol and flag ticks
priced below it; the deeper the discount and the larger the quoted volume,
the higher the index. The per-symbol (vwap_numerator, volume) pairs are
the operator's recoverable state.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence, Tuple

from repro.errors import WorkloadError
from repro.streaming.component import IteratorSpout, OutputCollector
from repro.streaming.groupings import FieldsGrouping
from repro.streaming.stateful import StatefulBolt
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.tuples import StreamTuple

DEFAULT_SYMBOLS = (
    "AAA", "BBN", "CPX", "DLT", "EMR", "FST", "GLX", "HQM",
    "INV", "JPR", "KLN", "LMD", "MNO", "NRG", "OPT", "PQR",
)


class TickGenerator:
    """A deterministic random-walk tick stream.

    Yields ``(symbol, price, volume, timestamp)`` tuples; prices follow
    independent geometric random walks per symbol.
    """

    def __init__(
        self,
        num_ticks: int,
        symbols: Sequence[str] = DEFAULT_SYMBOLS,
        seed: int = 0,
        start_price: float = 100.0,
        volatility: float = 0.01,
    ) -> None:
        if num_ticks < 0:
            raise WorkloadError("num_ticks must be non-negative")
        if not symbols:
            raise WorkloadError("at least one symbol is required")
        if volatility < 0:
            raise WorkloadError("volatility must be non-negative")
        self.num_ticks = num_ticks
        self.symbols = tuple(symbols)
        self.seed = seed
        self.start_price = start_price
        self.volatility = volatility

    def __iter__(self) -> Iterator[Tuple[str, float, int, float]]:
        rng = random.Random(self.seed)
        prices = {s: self.start_price * (0.5 + rng.random()) for s in self.symbols}
        for i in range(self.num_ticks):
            symbol = rng.choice(self.symbols)
            drift = 1.0 + rng.gauss(0.0, self.volatility)
            prices[symbol] = max(0.01, prices[symbol] * drift)
            volume = rng.randint(100, 10_000)
            yield symbol, round(prices[symbol], 4), volume, float(i)


class BargainIndexBolt(StatefulBolt):
    """VWAP tracking + bargain detection, keyed by symbol.

    State per symbol: cumulative ``price * volume`` and cumulative volume.
    Emits ``(symbol, bargain_index, ts)`` whenever a tick's price dips
    below the running VWAP.
    """

    def __init__(self, sensitivity: float = 1.0) -> None:
        super().__init__()
        if sensitivity <= 0:
            raise WorkloadError("sensitivity must be positive")
        self.sensitivity = sensitivity

    def declare_output_fields(self):
        return ("symbol", "bargain_index", "ts")

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        symbol = tuple_["symbol"]
        price = tuple_["price"]
        volume = tuple_["volume"]
        pv_sum, vol_sum = self.state.get(symbol, (0.0, 0))
        pv_sum += price * volume
        vol_sum += volume
        self.state.put(symbol, (pv_sum, vol_sum))
        vwap = pv_sum / vol_sum
        if price < vwap:
            index = (vwap - price) * volume * self.sensitivity
            collector.emit((symbol, round(index, 4), tuple_["ts"]), timestamp=tuple_["ts"])


def build_bargain_index_topology(
    num_ticks: int = 5_000,
    seed: int = 0,
    parallelism: int = 2,
) -> Topology:
    """Spout -> fields-grouped BargainIndexBolt."""
    builder = TopologyBuilder("bargain-index")
    builder.set_spout(
        "ticks",
        IteratorSpout(
            TickGenerator(num_ticks, seed=seed),
            ("symbol", "price", "volume", "ts"),
        ),
    )
    builder.set_bolt(
        "bargain",
        BargainIndexBolt(),
        [("ticks", FieldsGrouping(["symbol"]))],
        parallelism=parallelism,
    )
    return builder.build()
