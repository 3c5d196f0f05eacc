"""Word Count over a Zipf-distributed synthetic corpus.

Stand-in for the paper's Wikimedia-dump dataset (Table 3). Real text has a
Zipfian word-frequency distribution; the generator draws from a fixed
vocabulary with rank-``s`` Zipf weights so the counting state exhibits the
same heavy-skew key distribution the real dumps would produce.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, List, Optional

from repro.errors import WorkloadError
from repro.streaming.component import Bolt, OutputCollector, Spout
from repro.streaming.groupings import FieldsGrouping, ShuffleGrouping
from repro.streaming.stateful import CountingBolt
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.tuples import StreamTuple


def _vocabulary(size: int) -> List[str]:
    """A deterministic pseudo-word vocabulary of the given size."""
    syllables = ["ka", "ru", "mi", "to", "ze", "la", "vo", "ne", "shi", "ber"]
    words = []
    for combo in itertools.product(syllables, repeat=4):
        words.append("".join(combo))
        if len(words) == size:
            return words
    raise WorkloadError(f"vocabulary size {size} too large")


class SentenceGenerator:
    """Yields sentences of Zipf-distributed pseudo-words."""

    _BUCKETS = 4096  # of the draw index over the cumulative weights

    def __init__(
        self,
        num_sentences: int,
        words_per_sentence: int = 8,
        vocabulary_size: int = 2_000,
        zipf_s: float = 1.1,
        seed: int = 0,
    ) -> None:
        if num_sentences < 0:
            raise WorkloadError("num_sentences must be non-negative")
        if words_per_sentence < 1:
            raise WorkloadError("words_per_sentence must be positive")
        if vocabulary_size < 1:
            raise WorkloadError("vocabulary_size must be positive")
        if zipf_s <= 0:
            raise WorkloadError("zipf_s must be positive")
        self.num_sentences = num_sentences
        self.words_per_sentence = words_per_sentence
        self.vocabulary = _vocabulary(vocabulary_size)
        self.zipf_s = zipf_s
        self.seed = seed
        # Cumulative Zipf weights for O(log V) sampling.
        weights = [1.0 / (rank ** zipf_s) for rank in range(1, vocabulary_size + 1)]
        total = sum(weights)
        self._cumulative = list(itertools.accumulate(w / total for w in weights))
        # int(x * _BUCKETS) is exact (a power of two); bucket b's bounds bracket
        # bisect_left(cumulative, x), and one holding no weight needs no search.
        self._bounds = [bisect.bisect_left(self._cumulative, b / self._BUCKETS)
                        for b in range(self._BUCKETS + 1)]

    def sample_word(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self._cumulative, rng.random())
        return self.vocabulary[min(index, len(self.vocabulary) - 1)]

    def __iter__(self) -> Iterator[str]:
        """:meth:`sample_word`'s draws, each looked up through the bucket index."""
        draw = random.Random(self.seed).random
        bisect_left = bisect.bisect_left
        cumulative = self._cumulative
        bounds, buckets = self._bounds, self._BUCKETS
        # Rounding can leave the last cumulative weight a hair under 1.0.
        vocabulary = self.vocabulary + self.vocabulary[-1:]
        direct = [vocabulary[lo] if lo == hi else "" for lo, hi in zip(bounds, bounds[1:])]
        words = range(self.words_per_sentence)
        for _ in range(self.num_sentences):
            sentence = []
            for _ in words:
                x = draw()
                b = int(x * buckets)
                sentence.append(
                    direct[b] or vocabulary[bisect_left(cumulative, x, bounds[b], bounds[b + 1])]
                )
            yield " ".join(sentence)


class SentenceSpout(Spout):
    """Feeds sentences into the topology."""

    def __init__(self, generator: SentenceGenerator) -> None:
        self._generator = generator
        self._iterator: Optional[Iterator[str]] = None
        self._sequence = 0

    def declare_output_fields(self):
        return ("sentence",)

    def prepare(self, context) -> None:
        # A rewound spout re-stamps the replayed sentences as they were.
        self._iterator = iter(self._generator)
        self._sequence = 0

    def next_tuple(self, collector: OutputCollector) -> bool:
        if self._iterator is None:
            raise WorkloadError("spout used before prepare()")
        try:
            sentence = next(self._iterator)
        except StopIteration:
            return False
        collector.emit((sentence,), timestamp=float(self._sequence))
        self._sequence += 1
        return True


class SplitSentenceBolt(Bolt):
    """The stateless map stage: sentence -> words."""

    def declare_output_fields(self):
        return ("word",)

    def execute(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        # zip() of one iterable yields the one-value rows (word,)
        collector.emit_all(zip(tuple_["sentence"].split()), tuple_.timestamp)


def build_wordcount_topology(
    num_sentences: int = 2_000,
    seed: int = 0,
    count_parallelism: int = 4,
    vocabulary_size: int = 2_000,
) -> Topology:
    """sentences -> split (shuffle) -> count (fields-grouped on word)."""
    builder = TopologyBuilder("word-count")
    builder.set_spout(
        "sentences",
        SentenceSpout(SentenceGenerator(num_sentences, seed=seed, vocabulary_size=vocabulary_size)),
    )
    builder.set_bolt("split", SplitSentenceBolt(), [("sentences", ShuffleGrouping())])
    builder.set_bolt(
        "count",
        CountingBolt("word"),
        [("split", FieldsGrouping(["word"]))],
        parallelism=count_parallelism,
    )
    return builder.build()
