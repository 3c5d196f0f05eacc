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

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.workloads.finance": (
        "BargainIndexBolt", "TickGenerator", "build_bargain_index_topology",
    ),
    "repro.workloads.wordcount": (
        "SentenceGenerator", "SplitSentenceBolt", "build_wordcount_topology",
    ),
    "repro.workloads.traffic": ("BusTraceGenerator", "RouteDelayBolt", "build_traffic_topology"),
    "repro.workloads.clicks": (
        "ClickGenerator", "FraudDetectBolt", "ProductBundlingBolt", "TopKClicksBolt",
        "build_fraud_detection_topology", "build_micro_promotion_topology",
        "build_product_bundling_topology",
    ),
})
