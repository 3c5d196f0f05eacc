"""Shared utilities: id generation, sizes, statistics, and a Bloom filter."""

from repro.util.ids import NodeId, random_node_id
from repro.util.sizes import KB, MB, GB
from repro.util.stats import mean, median, percentile
from repro.util.bloom import BloomFilter

__all__ = [
    "NodeId",
    "random_node_id",
    "KB",
    "MB",
    "GB",
    "mean",
    "median",
    "percentile",
    "BloomFilter",
]
