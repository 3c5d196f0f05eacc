"""Shared utilities: id generation, sizes, statistics, and a Bloom filter."""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.util.ids": ("NodeId", "random_node_id"),
    "repro.util.sizes": ("KB", "MB", "GB"),
    "repro.util.stats": ("mean", "median", "percentile"),
    "repro.util.bloom": ("BloomFilter",),
})
