"""Unit tests for workload generators and application topologies."""

import hashlib
import random
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.streaming.cluster import LocalCluster
from repro.workloads.clicks import (
    ClickGenerator,
    build_fraud_detection_topology,
    build_micro_promotion_topology,
    build_product_bundling_topology,
)
from repro.workloads.finance import (
    TickGenerator,
    build_bargain_index_topology,
)
from repro.workloads.traffic import BusTraceGenerator, build_traffic_topology
from repro.workloads.wordcount import (
    SentenceGenerator,
    build_wordcount_topology,
)


class TestTickGenerator:
    def test_deterministic(self):
        assert list(TickGenerator(100, seed=3)) == list(TickGenerator(100, seed=3))

    def test_distinct_seeds_differ(self):
        assert list(TickGenerator(100, seed=1)) != list(TickGenerator(100, seed=2))

    def test_count_and_schema(self):
        ticks = list(TickGenerator(50, seed=0))
        assert len(ticks) == 50
        symbol, price, volume, ts = ticks[0]
        assert isinstance(symbol, str)
        assert price > 0
        assert volume >= 100
        assert ts == 0.0

    def test_prices_stay_positive(self):
        assert all(price > 0 for _, price, _, _ in TickGenerator(500, seed=9))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TickGenerator(-1)
        with pytest.raises(WorkloadError):
            TickGenerator(1, symbols=())


class TestSentenceGenerator:
    def test_deterministic(self):
        a = list(SentenceGenerator(20, seed=4))
        assert a == list(SentenceGenerator(20, seed=4))

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "222d39f53cf997fa3aa111a9aaebf6cc3ec9b6d3429e7b654dfa3b2a232225c2"),
            (1, "214b6a871ad1317102d010cd9c0b930c078b2e70aa047abd74b52ba701fb9d4f"),
        ],
    )
    def test_stream_is_pinned(self, seed, digest):
        # Taken before __iter__ was hand-hoisted: gated live/* keys and the
        # benchmark's exactly-once check both replay this exact stream.
        text = "\n".join(SentenceGenerator(1000, seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_iter_agrees_with_sample_word(self):
        gen = SentenceGenerator(50, words_per_sentence=3, vocabulary_size=50, zipf_s=0.7, seed=7)
        rng = random.Random(7)
        expected = [" ".join(gen.sample_word(rng) for _ in range(3)) for _ in range(50)]
        assert list(gen) == expected

    def test_sentence_shape(self):
        sentences = list(SentenceGenerator(10, words_per_sentence=5))
        assert all(len(s.split()) == 5 for s in sentences)

    def test_zipf_skew(self):
        gen = SentenceGenerator(600, vocabulary_size=500, seed=1)
        counts = Counter(w for s in gen for w in s.split())
        top_share = sum(c for _, c in counts.most_common(25)) / sum(counts.values())
        assert top_share > 0.3  # heavy head, as in natural text

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SentenceGenerator(1, words_per_sentence=0)
        with pytest.raises(WorkloadError):
            SentenceGenerator(1, zipf_s=0)


class TestBusTraceGenerator:
    def test_deterministic_and_schema(self):
        events = list(BusTraceGenerator(100, seed=5))
        assert events == list(BusTraceGenerator(100, seed=5))
        bus, route, lat, lon, delay, ts = events[0]
        assert bus.startswith(route)
        assert delay >= 0
        assert 53.0 < lat < 54.0

    def test_routes_bounded(self):
        events = list(BusTraceGenerator(200, num_routes=3, seed=2))
        assert {e[1] for e in events} <= {f"route-{i}" for i in range(3)}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BusTraceGenerator(1, num_routes=0)
        with pytest.raises(WorkloadError):
            BusTraceGenerator(1, spike_probability=2.0)


class TestClickGenerator:
    def test_deterministic(self):
        assert list(ClickGenerator(100, seed=6)) == list(ClickGenerator(100, seed=6))

    def test_event_mix(self):
        events = list(ClickGenerator(1000, seed=7, buy_fraction=0.2))
        kinds = Counter(e[0] for e in events)
        assert kinds["click"] > kinds["buy"] > 0

    def test_product_skew(self):
        events = list(ClickGenerator(2000, num_products=100, seed=8))
        counts = Counter(e[3] for e in events)
        top10 = sum(c for _, c in counts.most_common(10))
        assert top10 / len(events) > 0.2

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ClickGenerator(1, num_products=1)
        with pytest.raises(WorkloadError):
            ClickGenerator(1, buy_fraction=1.5)


class TestApplicationTopologies:
    def test_wordcount_counts_correctly(self):
        topo = build_wordcount_topology(num_sentences=100, seed=0, count_parallelism=3)
        cluster = LocalCluster(topo)
        cluster.run()
        expected = Counter(
            w
            for s in SentenceGenerator(100, seed=0, vocabulary_size=2_000)
            for w in s.split()
        )
        merged = {}
        for bolt in cluster.stateful_tasks().values():
            merged.update(dict(bolt.state.items()))
        assert merged == dict(expected)

    def test_bargain_index_emits_alerts_with_state(self):
        cluster = LocalCluster(build_bargain_index_topology(num_ticks=1500, seed=1))
        cluster.run()
        alerts = cluster.outputs["bargain"]
        assert alerts, "random-walk prices must dip below VWAP sometimes"
        assert all(t["bargain_index"] > 0 for t in alerts)
        state_entries = sum(
            len(b.state) for b in cluster.stateful_tasks().values()
        )
        assert state_entries > 0

    def test_traffic_monitoring_raises_alerts(self):
        cluster = LocalCluster(
            build_traffic_topology(num_events=4000, seed=2, alert_threshold=120.0)
        )
        cluster.run()
        alerts = cluster.outputs["monitor"]
        assert alerts
        assert all(t["window_avg"] > 120.0 for t in alerts)

    def test_micro_promotion_topk(self):
        cluster = LocalCluster(build_micro_promotion_topology(num_events=2000, seed=3))
        cluster.run()
        bolt = cluster.task("topk")
        ranking = bolt.top_k()
        assert len(ranking) == 5
        clicks = [c for _, c in ranking]
        assert clicks == sorted(clicks, reverse=True)
        # The ranking matches the bolt's full state.
        state = dict(bolt.state.items())
        assert clicks[0] == max(state.values())

    def test_product_bundling_builds_graph(self):
        cluster = LocalCluster(build_product_bundling_topology(num_events=3000, seed=4))
        cluster.run()
        bolt = cluster.task("bundling")
        bundles = bolt.strongest_bundles(5)
        assert bundles
        assert all(a < b for a, b, _ in bundles)
        weights = [w for _, _, w in bundles]
        assert weights == sorted(weights, reverse=True)

    def test_fraud_detection_flags_duplicates(self):
        cluster = LocalCluster(build_fraud_detection_topology(num_events=2000, seed=5))
        cluster.run()
        flagged = cluster.outputs["fraud"]
        assert flagged, "fraudsters repeat clicks; some must be flagged"
        # The hammered fraud IP dominates the flags.
        fraud_ips = Counter(t["ip"] for t in flagged)
        assert fraud_ips.most_common(1)[0][0] == "10.0.0.1"


class TestSeedDeterministicResumption:
    """Source rewind support: a fresh iterator replays the same stream.

    The live driver's exactly-once protocol rolls the topology back to a
    checkpoint barrier and re-iterates the generator from index zero,
    skipping up to the barrier; that only works if iteration is a pure
    function of the seed, including across *resumed* (partially consumed,
    then restarted) iterators.
    """

    def test_sentence_generator_restart_replays_identically(self):
        gen = SentenceGenerator(200, seed=11)
        first = list(gen)
        it = iter(gen)
        prefix = [next(it) for _ in range(80)]
        assert prefix == first[:80]
        replay = list(iter(gen))
        assert replay == first

    def test_sentence_generator_interleaved_iterators_independent(self):
        gen = SentenceGenerator(50, seed=7)
        a, b = iter(gen), iter(gen)
        seq_a = [next(a) for _ in range(25)]
        seq_b = [next(b) for _ in range(25)]
        assert seq_a == seq_b

    def test_bus_trace_restart_replays_identically(self):
        gen = BusTraceGenerator(300, seed=5)
        first = list(gen)
        it = iter(gen)
        for _ in range(120):
            next(it)
        assert list(iter(gen)) == first
        assert list(iter(BusTraceGenerator(300, seed=5))) == first

    def test_different_seeds_diverge(self):
        assert list(SentenceGenerator(20, seed=1)) != list(SentenceGenerator(20, seed=2))
        assert list(BusTraceGenerator(20, seed=1)) != list(BusTraceGenerator(20, seed=2))
