"""The three motivating e-commerce applications of Fig. 1.

A shared click/buy activity stream feeds:

- *micro-promotion*: group-by-aggregate product clicks and keep the top-k
  most clicked products (state: the product->clicks knowledge base);
- *product bundling*: build a co-purchase graph from buy events (state:
  weighted edges between products bought in the same session);
- *click-fraud detection*: a Bloom filter memorizing (ip, product) click
  fingerprints; repeats within the filter's horizon are flagged as
  fraudulent duplicates (state: the Bloom filter bits).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.streaming.component import IteratorSpout, OutputCollector
from repro.streaming.groupings import FieldsGrouping, GlobalGrouping
from repro.streaming.stateful import StatefulBolt
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.tuples import StreamTuple
from repro.util.bloom import BloomFilter


class ClickGenerator:
    """Yields ``(event_type, user, ip, product, ts)`` activity records.

    Product popularity is skewed (top products get most clicks); a small
    fraction of users are "fraudsters" who repeat identical clicks; buys
    arrive in per-user sessions so bundling has co-purchases to find.
    """

    def __init__(
        self,
        num_events: int,
        num_products: int = 200,
        num_users: int = 500,
        seed: int = 0,
        buy_fraction: float = 0.15,
        fraud_fraction: float = 0.05,
    ) -> None:
        if num_events < 0:
            raise WorkloadError("num_events must be non-negative")
        if num_products < 2 or num_users < 1:
            raise WorkloadError("need at least two products and one user")
        if not 0 <= buy_fraction <= 1 or not 0 <= fraud_fraction <= 1:
            raise WorkloadError("fractions must be within [0, 1]")
        self.num_events = num_events
        self.num_products = num_products
        self.num_users = num_users
        self.seed = seed
        self.buy_fraction = buy_fraction
        self.fraud_fraction = fraud_fraction

    def _skewed_product(self, rng: random.Random) -> str:
        # Quadratic skew toward low product indexes.
        index = int((rng.random() ** 2) * self.num_products)
        return f"product-{min(index, self.num_products - 1)}"

    def __iter__(self) -> Iterator[Tuple[str, str, str, str, float]]:
        rng = random.Random(self.seed)
        fraudsters = {
            f"user-{i}" for i in rng.sample(
                range(self.num_users), max(1, int(self.num_users * self.fraud_fraction))
            )
        }
        last_buy = {}
        for i in range(self.num_events):
            user = f"user-{rng.randrange(self.num_users)}"
            ip = f"10.0.{rng.randrange(32)}.{rng.randrange(256)}"
            product = self._skewed_product(rng)
            if user in fraudsters and rng.random() < 0.6:
                # Fraudsters hammer the same product from the same IP.
                ip = "10.0.0.1"
                product = last_buy.get(user, product)
            if rng.random() < self.buy_fraction:
                event = "buy"
                last_buy[user] = product
            else:
                event = "click"
            yield event, user, ip, product, float(i)


class TopKClicksBolt(StatefulBolt):
    """Micro-promotion: count clicks per product, emit the current top-k.

    Emits ``(ranking, ts)`` where ranking is a tuple of (product, clicks)
    pairs, whenever the top-k set or order changes.
    """

    def __init__(self, k: int = 5) -> None:
        super().__init__()
        if k < 1:
            raise WorkloadError("k must be positive")
        self.k = k

    def declare_output_fields(self):
        return ("ranking", "ts")

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        if tuple_["event"] != "click":
            return
        # The ranking before the update is derived from the store, so a
        # restored task compares against what its store says, not a memory.
        before = self.top_k()
        self.state.update(tuple_["product"], lambda c: (c or 0) + 1)
        ranking = self.top_k()
        if ranking != before:
            collector.emit((tuple(ranking), tuple_["ts"]), timestamp=tuple_["ts"])

    def top_k(self) -> List[Tuple[str, int]]:
        return sorted(self.state.items(), key=lambda kv: (-kv[1], kv[0]))[: self.k]


class ProductBundlingBolt(StatefulBolt):
    """Product bundling: weighted co-purchase graph per user session.

    State holds two kinds of keys: ``("last", user) -> product`` and
    ``("edge", a, b) -> weight`` for each co-purchase pair (a < b).
    Emits ``(product_a, product_b, weight, ts)`` on every strengthened
    edge — the "you like this, you may also like that" signal.
    """

    def declare_output_fields(self):
        return ("product_a", "product_b", "weight", "ts")

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        if tuple_["event"] != "buy":
            return
        user = tuple_["user"]
        product = tuple_["product"]
        previous = self.state.get(("last", user))
        self.state.put(("last", user), product)
        if previous is None or previous == product:
            return
        a, b = sorted((previous, product))
        weight = self.state.update(("edge", a, b), lambda w: (w or 0) + 1)
        collector.emit((a, b, weight, tuple_["ts"]), timestamp=tuple_["ts"])

    def strongest_bundles(self, limit: int = 10) -> List[Tuple[str, str, int]]:
        edges = [
            (key[1], key[2], weight)
            for key, weight in self.state.items()
            if isinstance(key, tuple) and key[0] == "edge"
        ]
        return sorted(edges, key=lambda e: (-e[2], e[0], e[1]))[:limit]


class FraudDetectBolt(StatefulBolt):
    """Click-fraud detection with a Bloom filter (Fig. 1, bottom).

    The filter memorizes (ip, product) click fingerprints; a repeat within
    the filter's horizon is flagged. The Bloom filter itself is the
    operator state: it is serialized into the store so SR3 can shard,
    replicate, and recover it.
    """

    BLOOM_KEY = "bloom-bits"

    def __init__(self, capacity: int = 50_000, error_rate: float = 0.01) -> None:
        super().__init__()
        self.capacity = capacity
        self.error_rate = error_rate
        self._bloom: Optional[BloomFilter] = None

    def declare_output_fields(self):
        return ("ip", "product", "ts")

    def _filter(self) -> BloomFilter:
        if self._bloom is None:
            stored = self.state.get(self.BLOOM_KEY)
            if stored is not None:
                self._bloom = BloomFilter.from_bytes(stored)
            else:
                self._bloom = BloomFilter(self.capacity, self.error_rate)
        return self._bloom

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        if tuple_["event"] != "click":
            return
        bloom = self._filter()
        fingerprint = f"{tuple_['ip']}|{tuple_['product']}"
        duplicate = bloom.add(fingerprint)
        # Persist the updated bits so every save round captures them.
        self.state.put(self.BLOOM_KEY, bloom.to_bytes())
        if duplicate:
            collector.emit(
                (tuple_["ip"], tuple_["product"], tuple_["ts"]),
                timestamp=tuple_["ts"],
            )

    def attach_state(self, store) -> None:
        super().attach_state(store)
        self._bloom = None  # re-hydrate from the recovered bytes


def _click_spout(num_events: int, seed: int) -> IteratorSpout:
    return IteratorSpout(
        ClickGenerator(num_events, seed=seed),
        ("event", "user", "ip", "product", "ts"),
    )


def build_micro_promotion_topology(
    num_events: int = 5_000, seed: int = 0, k: int = 5
) -> Topology:
    """clicks -> global-grouped TopKClicksBolt (a single ranking task)."""
    builder = TopologyBuilder("micro-promotion")
    builder.set_spout("activity", _click_spout(num_events, seed))
    builder.set_bolt("topk", TopKClicksBolt(k=k), [("activity", GlobalGrouping())])
    return builder.build()


def build_product_bundling_topology(num_events: int = 5_000, seed: int = 0) -> Topology:
    """buys -> fields-grouped-by-user ProductBundlingBolt."""
    builder = TopologyBuilder("product-bundling")
    builder.set_spout("activity", _click_spout(num_events, seed))
    builder.set_bolt(
        "bundling",
        ProductBundlingBolt(),
        [("activity", FieldsGrouping(["user"]))],
    )
    return builder.build()


def build_fraud_detection_topology(num_events: int = 5_000, seed: int = 0) -> Topology:
    """clicks -> global-grouped FraudDetectBolt (one shared Bloom filter)."""
    builder = TopologyBuilder("fraud-detection")
    builder.set_spout("activity", _click_spout(num_events, seed))
    builder.set_bolt("fraud", FraudDetectBolt(), [("activity", GlobalGrouping())])
    return builder.build()
