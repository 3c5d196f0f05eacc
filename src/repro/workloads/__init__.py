"""Workload generators and application topologies.

Synthetic, seeded equivalents of the paper's real-world datasets
(Table 3): Google Finance ticks for the Bargain Index application,
Zipf-distributed text for Word Count (Wikimedia dumps), and GPS traces for
Traffic Monitoring (Dublin Bus). Plus the three motivating applications of
Fig. 1: micro-promotion (top-k clicked products), product bundling
(co-purchase graph), and click-fraud detection (Bloom-filter state).

Each module exposes a generator (an iterator of records) and a
``build_*_topology`` factory producing a runnable
:class:`~repro.streaming.topology.Topology`.
"""

from repro.workloads.finance import (
    BargainIndexBolt,
    TickGenerator,
    build_bargain_index_topology,
)
from repro.workloads.wordcount import (
    SentenceGenerator,
    SplitSentenceBolt,
    build_wordcount_topology,
)
from repro.workloads.traffic import (
    BusTraceGenerator,
    RouteDelayBolt,
    build_traffic_topology,
)
from repro.workloads.clicks import (
    ClickGenerator,
    FraudDetectBolt,
    ProductBundlingBolt,
    TopKClicksBolt,
    build_fraud_detection_topology,
    build_micro_promotion_topology,
    build_product_bundling_topology,
)

__all__ = [
    "TickGenerator",
    "BargainIndexBolt",
    "build_bargain_index_topology",
    "SentenceGenerator",
    "SplitSentenceBolt",
    "build_wordcount_topology",
    "BusTraceGenerator",
    "RouteDelayBolt",
    "build_traffic_topology",
    "ClickGenerator",
    "TopKClicksBolt",
    "FraudDetectBolt",
    "ProductBundlingBolt",
    "build_micro_promotion_topology",
    "build_fraud_detection_topology",
    "build_product_bundling_topology",
]
