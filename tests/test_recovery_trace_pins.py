"""Pinned traces: every mechanism, flat and chained, healthy and re-failing.

Each case runs one recovery on a traced world and hashes the span dump
plus the metrics registry. The digests were taken on the code as it stood
before the mechanisms were folded onto ``RecoveryRun``; they pin the order
of ``tracer.*``, ``metrics.*``, ``sim.schedule`` and ``network.transfer``
calls inside every event, which fixes span ids and the kernel's
same-instant tie-breaks. A digest that moves means recovery behaviour
moved, not just its code.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_recovery_trace_pins.py
"""

import hashlib
import json
import random

import pytest

from repro.dht.overlay import Overlay
from repro.multicast.scribe import ScribeSystem
from repro.obs.export import dumps_trace
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.recovery.line import LineRecovery
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import CostModel, RecoveryContext, RetryPolicy
from repro.recovery.speculation import SpeculativeStarRecovery
from repro.recovery.standby import StandbyRecovery, sync_standby
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.partitioner import partition_synthetic
from repro.state.placement import LeafSetPlacement
from repro.state.shard import DeltaShard
from repro.state.version import StateVersion
from repro.util.sizes import MB, mbit_per_s

STATE = "app/state"
SHORT = RetryPolicy(max_retries=2)

# name -> (mechanism factory, crash time, cut time): seconds after the
# owner's death at which, on 100 Mbit links, a node death lands mid-transfer
# and a partition around the replacement lands on its inbound flows (tree
# aggregates for a second before anything heads for the replacement).
MECHANISMS = {
    "star": (
        lambda w, policy: StarRecovery(fanout_bits=1, retry_policy=policy), 2.0, 2.0
    ),
    "line": (lambda w, policy: LineRecovery(retry_policy=policy), 2.0, 2.0),
    # Two chain nodes for four shards: the other two must be pre-staged.
    "line-prefetch": (
        lambda w, policy: LineRecovery(path_length=2, retry_policy=policy),
        1.3,
        1.3,
    ),
    "tree": (lambda w, policy: TreeRecovery(retry_policy=policy), 4.0, 5.0),
    "tree-scribe": (
        lambda w, policy: TreeRecovery(
            scribe=ScribeSystem(w.overlay), retry_policy=policy
        ),
        4.0,
        5.0,
    ),
    "standby-warm": (
        lambda w, policy: StandbyRecovery(retry_policy=policy), 0.27, 0.27
    ),
    "standby-cold": (
        lambda w, policy: StandbyRecovery(fetch_window=2, retry_policy=policy),
        0.6,
        0.6,
    ),
    "speculation": (lambda w, policy: SpeculativeStarRecovery(), 2.0, 2.0),
}

CASES = (
    "flat",
    "chain3",
    "provider-dies",
    "partition-heals",
    "partition-early",
    "partition-stays",
    "no-replica",
    "replicas-lost",
    "primaries-die",
    "replacement-dies",
    "replacement-dies-early",
    "straggler",
)


class World:
    """A traced simulator, overlay and manager with one saved state."""

    def __init__(self) -> None:
        self.tracer = Tracer("pins")
        self.registry = MetricsRegistry("pins")
        self.sim = Simulator(tracer=self.tracer, metrics=self.registry)
        self.network = Network(self.sim)
        bw = mbit_per_s(100)
        self.overlay = Overlay(self.sim, self.network, rng=random.Random(0))
        self.overlay.build(
            32, host_factory=lambda n: self.network.add_host(n, up_bw=bw, down_bw=bw)
        )
        self.ctx = RecoveryContext(self.sim, self.network, self.overlay, CostModel())
        self.manager = RecoveryManager(self.ctx, placement=LeafSetPlacement())
        pieces = partition_synthetic(STATE, 32 * MB, 4, StateVersion(0.0, 1))
        self.registered = self.manager.register(self.overlay.nodes[0], pieces, 3)
        self.manager.save(STATE)
        self.sim.run_until_idle()

    def add_delta(self) -> None:
        chain = self.registered.chain
        parent = chain.tip_version
        version = StateVersion(self.sim.now, parent.sequence + 1)
        delta = [
            DeltaShard.synthetic_delta(
                STATE, i, chain.num_shards, version, parent, chain.length, MB
            )
            for i in range(chain.num_shards)
        ]
        self.manager.save_delta(STATE, delta)
        self.sim.run_until_idle()

    def primaries(self, replacement):
        """The first surviving provider of every segment, as mechanisms see it."""
        plan = self.registered.plan
        return [
            next(
                p.node
                for p in plan.providers_for(index)
                if p.node.node_id != replacement.node_id
            )
            for index in plan.shard_indexes()
        ]


def run_case(mechanism: str, case: str) -> str:
    w = World()
    factory, crash_at, cut_at = MECHANISMS[mechanism]
    if case == "chain3":
        w.add_delta()
        w.add_delta()
    owner = w.registered.owner
    if mechanism.startswith("standby"):
        replacement = next(
            n for n in w.overlay.alive_nodes() if n.node_id != owner.node_id
        )
        sync_standby(w.ctx, w.registered, replacement)
        w.sim.run_until_idle()
        if mechanism == "standby-cold":
            warm = [
                p.replica.key
                for p in w.registered.plan.placements
                if getattr(p.replica, "standby", False)
            ]
            for key in warm[:-1]:
                replacement.drop_shard(key)
        w.overlay.fail_node(owner)
    else:
        w.overlay.fail_node(owner)
        replacement = w.overlay.replacement_for(owner)
    primaries = w.primaries(replacement)
    policy = SHORT if case == "partition-stays" else RetryPolicy()

    if case == "straggler":
        primaries[0].host.up_bw = mbit_per_s(1.0)
    elif case == "no-replica":
        for placed in w.registered.plan.for_shard(2):
            placed.node.drop_shard(placed.replica.key)
    elif case == "provider-dies":
        for node in (primaries[0], primaries[-1]):
            w.sim.schedule(crash_at, w.overlay.fail_node, node)
    elif case == "primaries-die":
        for node in {n.name: n for n in primaries}.values():
            w.sim.schedule(crash_at, w.overlay.fail_node, node)
    elif case == "replicas-lost":
        for placed in w.registered.plan.providers_for(0):
            if placed.node.node_id != replacement.node_id:
                w.sim.schedule(crash_at, w.overlay.fail_node, placed.node)
    elif case == "replacement-dies":
        w.sim.schedule(crash_at, w.overlay.fail_node, replacement)
    elif case == "replacement-dies-early":
        w.sim.schedule(0.1, w.overlay.fail_node, replacement)
    elif case == "partition-heals":
        w.sim.schedule(cut_at, w.network.partition, [replacement.host])
        w.sim.schedule(cut_at + 2.5, w.network.heal_partition)
    elif case == "partition-early":
        w.sim.schedule(0.1, w.network.partition, [n.host for n in primaries[1:3]])
        w.sim.schedule(2.9, w.network.heal_partition)
    elif case == "partition-stays":
        w.sim.schedule(cut_at, w.network.partition, [replacement.host])

    handle = w.manager.recover(
        STATE, replacement=replacement, mechanism=factory(w, policy)
    )
    w.sim.run_until_idle()
    assert handle.done, f"{mechanism}/{case} left its handle pending"
    payload = dumps_trace(w.tracer, chrome=False) + json.dumps(
        w.registry.dump(), sort_keys=True, separators=(",", ":")
    )
    outcome = "failed" if handle._error is not None else "completed"
    return f"{outcome}:{hashlib.sha256(payload.encode('utf-8')).hexdigest()}"


# Line counts a retry before it checks the budget, one more than the other
# mechanisms report; an exhausted line budget is therefore left unpinned
# (tests/test_recovery_refailure.py holds the count to ``max_retries``).
UNPINNED = {"line/partition-stays", "line-prefetch/partition-stays"}

PINS = {
    "line/flat": "completed:f52d3c9b06e06a765345606ac47d07fff17e169b2268ccf3df52fe92b0a75078",
    "line/chain3": "completed:9cf623a7a18010668bfffeb2d009dd3e533b31d35c7a0858a27430b7a25b543f",
    "line/provider-dies": "completed:8f2cf574f22414d3d369a7e2af65a6ade149ab491a6968e28a7263ff8020aa58",
    "line/partition-heals": "completed:22dd0bb302d116cadf801f0e4369260eb21e3625890546157287f309b4cbd3c0",
    "line/partition-early": "completed:0a86778af4048537bed9d74b772cb1cabcfee2e5e192eeaa04c2b92a5d2e6347",
    "line/no-replica": "failed:88ebf7dd2dd85535580dd90d08d15f92318a8b6e9093f9c7e6d783a6571e1648",
    "line/replicas-lost": "completed:ed90eeae50e91a96ea0ab6d0a0172535ef677f3bc51dba18ac8f4f890e01b5ed",
    "line/primaries-die": "failed:3b2946608cecd1b41549b3101523a90fef93818bb6c4d9e8823826d84144fc77",
    "line/replacement-dies": "failed:cf28a74bcd3518ee5bdb8d82fbdaeb449b7710451b6b2c5a80eb07a86e6a786f",
    "line/replacement-dies-early": "failed:80b5aeb62c0973cf958b178b55aba32aefe6362c967f83550edab5e5764d45ba",
    "line/straggler": "completed:f52d3c9b06e06a765345606ac47d07fff17e169b2268ccf3df52fe92b0a75078",
    "line-prefetch/flat": "completed:000fb1ee696bb64b2fe41ca564a08914138f8f57898cc0dceaece7b59e81328e",
    "line-prefetch/chain3": "completed:5ae2653d18308b9197e24e74163ea54cad9be7aad95afef7509e28220b5708bb",
    "line-prefetch/provider-dies": "completed:8bf51962f5d941ee2128c002bf8153749af539221c7e97c64ce266120b77f89f",
    "line-prefetch/partition-heals": "completed:5e0444a9c8d32bf977828988fd0f349e306ab482bff54a20f41f79ccbc499a2d",
    "line-prefetch/partition-early": "completed:d3d237cbf78a249ecad6ebdff760fe910a0091dd30a004661ef2ea15cf06d12b",
    "line-prefetch/no-replica": "failed:c84f5a44475f4398540cc771c895ffaa97fde52d1f11725bb2894bda5b744a7f",
    "line-prefetch/replicas-lost": "completed:e644197a19b689ec5b19e4adcb8afa7fa50fa0500958bcc067d313313bdb5dee",
    "line-prefetch/primaries-die": "failed:2d43db2206bc76544db00118755900950489359d9da055473da4266d8f1d10d3",
    "line-prefetch/replacement-dies": "failed:a5d1af3d97c946fd347d694fae6bb1793ba8760b14bd37a51b5e3ef29555afa8",
    "line-prefetch/replacement-dies-early": "failed:e484831908a9ac328303a0e4052f6fb2bdac4d176ebd3d86b69494c48b9dfec3",
    "line-prefetch/straggler": "completed:000fb1ee696bb64b2fe41ca564a08914138f8f57898cc0dceaece7b59e81328e",
    "speculation/flat": "completed:29d3919ddbd6e6c8c76034401756123ba54489c4dc1f5ec77e7eb76629ce4ff0",
    "speculation/chain3": "completed:0fc9684408123be227439a681b76c5236dcda42851f1011a63bd5dfb49950002",
    "speculation/provider-dies": "completed:ad2c013ef6194079d4ba83b7e733c3516a5677a4452052cd2f9dadc60c118aaa",
    "speculation/partition-heals": "failed:5f747c4443b612bf68c4880fd671dbf920026ba8d2fcccef596960e89c30b787",
    "speculation/partition-early": "completed:7a4a4b4c9f9d21e8d769b3c35a6caab23ad93e0f2a9fbd930350f773efea5d9f",
    "speculation/partition-stays": "failed:acdb1a0b791370609c81caf28eec389e504a4d3b429438534b60215377519e4e",
    "speculation/no-replica": "failed:f6a7a249e14517f1bf1c0249ad5febd1dcebf05477282ea6abaa0ff5023cab2d",
    "speculation/replicas-lost": "failed:570a74f992c56d6b17037aacef4cb93ce0a40754addb3f2eac61c42a854a7ec7",
    "speculation/primaries-die": "completed:c7b6f45c8fd87a60590db7d25b4a0b47b4dee6f35c7dfda91170e795cb610ee4",
    "speculation/replacement-dies": "failed:672b362e65930622b4d59944742fc771dd34a871907ec280d02b56865dddcec0",
    "speculation/replacement-dies-early": "failed:3367ba932dde12676ccf67c897ce22aec10dc1fe72361bedafdc62463656055c",
    "speculation/straggler": "completed:9b5321f318648f6967c380b87c226541c7209341fca5087be267dc70cf741b37",
    "standby-cold/flat": "completed:06957de7bf5320f1ea5098c9a0e621f2102a468264903c70782bc6284f653a55",
    "standby-cold/chain3": "completed:77d335bc2fcd8df7bd68797a8b1cb1a4de9d867e5b7533349ed54ed1e58b61f1",
    "standby-cold/provider-dies": "completed:d68ea08867d51c65b649ca8146ceef3a050ba9d08a6ced3c7b3effecb38a8fd2",
    "standby-cold/partition-heals": "completed:aa63cfb8e63ba7a315b96d593b5efe0f02d2eb11582eb1c8e10383c1d0b09ed2",
    "standby-cold/partition-early": "completed:5b7ee736a8cc5ff51ce3a32f295c835ef1ed416728ea292f43809b0429759db9",
    "standby-cold/partition-stays": "failed:c489e674041089d989189ad6f4e44794aedc7758a2581af8eeaff367dbac5c4e",
    "standby-cold/no-replica": "failed:4e5593299f9a2c6e44e8ba8d294f1356a3a17f32ccd9b3f388b6e0f068119211",
    "standby-cold/replicas-lost": "failed:de2649c607ac32dddde78f1b81dba705f7f0241b691be17f2ae9cce7d33af205",
    "standby-cold/primaries-die": "completed:53c4980a7fe603d5259a67be98cc5b3e87050758385905654d124e434d50121a",
    "standby-cold/replacement-dies": "failed:acd658720a0448b8ad882c5cbcea84bfd360e3af6d1822942127e05e9b54de59",
    "standby-cold/replacement-dies-early": "failed:d3d70ad4a3cc452bd00da04ba107bda4249e56e0c39c8bd12ca91854c6103779",
    "standby-cold/straggler": "completed:f44632fa8e14ab8ed0fac7922388d12b83f9c2cc99e170a1291802df18ece253",
    "standby-warm/flat": "completed:bcdb5a796b9763e14bbedf00ad12294dc8f70c49ee7b274205429d4c9aac17bd",
    "standby-warm/chain3": "completed:d5c028d3a1731ca594d8760044ee39ec91d7f5781b95038a76b792ef83b9ec75",
    "standby-warm/provider-dies": "completed:cd95727ffac966c4f5c1ae7ad8dd0e3ef7022a4bf1cf1b6be48ef3c1c7b4b0ec",
    "standby-warm/partition-heals": "completed:b2083f2cbe6d00b36168426fe2e165308e4d9d98a4e392229cbd843c44449809",
    "standby-warm/partition-early": "completed:263ae2e91fbaed7e5b0a7aa3f74fcfd8ef8655f703ade1714d73ee52fade603d",
    "standby-warm/partition-stays": "completed:774f4cf7eed0d0183816a6a4755c4131cbce7fde315b5527299718381d26d126",
    "standby-warm/no-replica": "failed:4e5593299f9a2c6e44e8ba8d294f1356a3a17f32ccd9b3f388b6e0f068119211",
    "standby-warm/replicas-lost": "completed:6fe07b5b2102ed29f2958ac66a3ed23c6ffe579333b4acb9911c3a429b661640",
    "standby-warm/primaries-die": "completed:08b79d934693953f3014236babe39db9907a8771ef37d40df9ebd83d0e835f97",
    "standby-warm/replacement-dies": "completed:954907a444893347216da7834355d162a38a5138e12cf141cfb69b16387fcae4",
    "standby-warm/replacement-dies-early": "failed:1a6aaae43966b685e081968c653ec7df68a7d0379565e13b862f28760ea2cf53",
    "standby-warm/straggler": "completed:bcdb5a796b9763e14bbedf00ad12294dc8f70c49ee7b274205429d4c9aac17bd",
    "star/flat": "completed:2cf56bbc65bef1be7a08ce3e384a1ba22c931126483781967c5c779219dba36e",
    "star/chain3": "completed:79a714d5d679dc8bcbbc3164b91eac1e89d56c03a14803770ad221b17673f91f",
    "star/provider-dies": "completed:4df270d4e45459372cf05380c9102d630cd1c46bfe60f874610040bd69e2479a",
    "star/partition-heals": "completed:1ffe3b689d42de70d14cb27a0bed6e76ea389113f137c454791292cb14654747",
    "star/partition-early": "completed:6eb5d28f3457f6062bd6486750874b7557589b604170a5291ccabdcd2af351f8",
    "star/partition-stays": "failed:d190e07ccc2bdfa5f6d21e10452e48b3c82b9eddc6b1b87614e2f2f4929f6fbc",
    "star/no-replica": "failed:1cfe5bbfebd2e090886e9e2d307ccee6a47238e757f662e913919eed8daed600",
    "star/replicas-lost": "failed:f5fdc664284a3334ba57098c44e9f17c46775d532b818d1a5b1b3425d70b20cd",
    "star/primaries-die": "completed:5b56ab3fae843460f3ded924449780417900eb362b3c66aee95d0afaf289f5ae",
    "star/replacement-dies": "failed:36409081d36b741b176a589531279a2432649604277496a03556dd3d11644f12",
    "star/replacement-dies-early": "failed:01dd26f93c6f100a8cb8256de01afed148814eb3efaf8fbe61eab698b2e1c170",
    "star/straggler": "completed:e2defe58f3081bd015a87232c252c2a5046a6b228641078eaa65e9d49bbbab37",
    "tree/flat": "completed:42a55be040bd26d88f09f622cfffdffae8221be69f2cb77b8e873aea7ca884d6",
    "tree/chain3": "completed:44f345f7f40f7b780c543ec07428c4881f3ab4c0e763cbe3dec1dd59043ad241",
    "tree/provider-dies": "completed:bc3c1dafe279a62e73175c8b143fbe73ebc438f267dc9b61be569090345af8e1",
    "tree/partition-heals": "completed:7a6f610f3dec0ae24934d1488bdf6835f9b9ddffb603fee22da4645283ca5643",
    "tree/partition-early": "completed:d9b375d17b118664928c71b479c935499683075c1591ecc96de8f8c09d09c95f",
    "tree/partition-stays": "failed:c01b52fbc8f582203c7c8a66706f36e2672b3435be3ff374ba629a2d7be1ed9e",
    "tree/no-replica": "failed:1454284cea5a26e7d98b15f13b9347de5f31d4ffe9a82725682acfe0fddecc70",
    "tree/replicas-lost": "failed:f6166a6f1286d5b84cb265dc631bff67f163c122b7e332d8c13665e7c0881e32",
    "tree/primaries-die": "completed:a914d7b850edfaec27e1bc3796f2524773fa3a3e0e99cf0d24ad44140a6e77d1",
    "tree/replacement-dies": "failed:90f0c5bebbedb8c1f03e8fb0f7cf542c2b0591f7026d14c36ff6fb8b18cae35d",
    "tree/replacement-dies-early": "failed:d203866b894d2b553a6275ee4aeca83ee27c65e069570a6db936cd783ca89270",
    "tree/straggler": "completed:69dc0ee86a762bac81d2d176f29cd61811623315d711d7299f6f7dcb25cfd0d0",
    "tree-scribe/flat": "completed:d47de6db5ec67bca5341737bade546766a785863bdb5c532fa1ebedb647913f2",
    "tree-scribe/chain3": "completed:69801676f969031a29ddcdd42c97fa08dae921de55e732f24138a281f361ba7a",
    "tree-scribe/provider-dies": "completed:14df284be51bfd60012b76d1fe83016d81b9ad6d32cea9bd62e778788079846a",
    "tree-scribe/partition-heals": "completed:4fc27c1d69ee927599e3cadee4871d2e70bb74517aa199fd10f942094712c666",
    "tree-scribe/partition-early": "completed:286928724103078383a54a0dad6293eeb03349070d76e0ceecd5c415b0dbbcc1",
    "tree-scribe/partition-stays": "failed:e76bfb27fecbedaa17123610f5a09da3cb0392ae8fb3e4042dd4d672bb452384",
    "tree-scribe/no-replica": "failed:1454284cea5a26e7d98b15f13b9347de5f31d4ffe9a82725682acfe0fddecc70",
    "tree-scribe/replicas-lost": "failed:e1c3378693ea1b2c3c282f7f41b2b3e1f9aaf62beacbef2bfc6da6957e789d5b",
    "tree-scribe/primaries-die": "completed:127597fafb600d02cc4d9bb4e9f0c6fa00d0a30e6513ae24b8c8808c2b651204",
    "tree-scribe/replacement-dies": "failed:142f5e4e86f0945e2f72a6e2e22c79eefc6da6afc518b2c5fc9917f248ff73ab",
    "tree-scribe/replacement-dies-early": "failed:24c6fce3415b9c860a08b30106e8f7970417feb685fcc7effcfae7ca40ac8c93",
    "tree-scribe/straggler": "completed:9128aacabac627909ee4f8e7e3c2bcb1a83a22b64af5e313d8ab17103023687b",
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_trace_and_registry_are_pinned(key):
    assert run_case(*key.split("/")) == PINS[key]


def test_every_case_is_pinned():
    keys = {f"{m}/{c}" for m in MECHANISMS for c in CASES}
    assert keys - UNPINNED == set(PINS)


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(MECHANISMS):
        for case_name in CASES:
            if f"{name}/{case_name}" not in UNPINNED:
                print(f'    "{name}/{case_name}": "{run_case(name, case_name)}",')
    print("}")
