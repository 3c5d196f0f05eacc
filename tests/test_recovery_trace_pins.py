"""Pinned traces: every mechanism, flat and chained, healthy and re-failing.

Each case runs one recovery on a traced world and hashes the span dump
plus the metrics registry. The digests were taken on the code as it stood
before the mechanisms were folded onto ``RecoveryRun``; they pin the order
of ``tracer.*``, ``metrics.*``, ``sim.schedule`` and ``network.transfer``
calls inside every event, which fixes span ids and the kernel's
same-instant tie-breaks. A digest that moves means recovery behaviour
moved, not just its code. They were re-taken once since, when the network
stopped storing ``net.host.*`` series: the old digests recomputed without
those series in ``dump()["series"]`` equalled all 94 new ones. The four
baselines (checkpointing, FP4S, lineage, replication) are pinned the same
way, on the code as it stood before they opened and closed their
recoveries through ``RecoverySession``.

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
from repro.recovery.baselines.checkpointing import checkpointing_to_remote_storage
from repro.recovery.baselines.fp4s import Fp4sBaseline
from repro.recovery.baselines.lineage import LineageBaseline
from repro.recovery.baselines.replication import ReplicationBaseline
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
        chain = self.registered.plan
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
        for placed in w.registered.plan.links[0].plan.for_shard(2):
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
    return digest(w, handle, f"{mechanism}/{case}")


def digest(w: World, handle, key: str) -> str:
    """Run the world dry; the outcome and SHA-256 of its trace and registry."""
    w.sim.run_until_idle()
    assert handle.done, f"{key} left its handle pending"
    payload = dumps_trace(w.tracer, chrome=False) + json.dumps(
        w.registry.dump(), sort_keys=True, separators=(",", ":")
    )
    outcome = "failed" if handle._error is not None else "completed"
    return f"{outcome}:{hashlib.sha256(payload.encode('utf-8')).hexdigest()}"


# Checkpointing on 100 Mbit links with a 32 MB state: the fetch from
# storage runs from 6.0 s to about 11.7 s after the owner's death, and the
# replay flow from the upstream node from there to about 19.4 s.
BASELINE_CASES = (
    "checkpointing/clean",
    "checkpointing/replay-aborted",
    "checkpointing/replacement-dead",
    "fp4s/clean",
    "lineage/clean",
    "replication/clean",
)


def run_baseline(name: str, case: str) -> str:
    """One baseline recovery of the saved state's bytes after its owner dies."""
    w = World()
    owner = w.registered.owner
    size = w.registered.state_bytes
    peers = [n for n in w.overlay.nodes if n.node_id != owner.node_id]
    baseline = None
    if name == "checkpointing":
        baseline = checkpointing_to_remote_storage(w.ctx)
        baseline.save(owner, size)
    elif name == "fp4s":
        baseline = Fp4sBaseline(w.ctx)
        baseline.save(owner, peers[: baseline.config.num_coded], size)
    w.sim.run_until_idle()
    w.overlay.fail_node(owner)
    replacement = w.overlay.replacement_for(owner)
    if name == "checkpointing":
        upstream = next(n for n in peers if n.node_id != replacement.node_id)
        if case == "replay-aborted":
            w.sim.schedule(14.0, w.overlay.fail_node, upstream)
        elif case == "replacement-dead":
            w.sim.schedule(8.0, w.overlay.fail_node, replacement)
        handle = baseline.recover(upstream, replacement, size, STATE)
    elif name == "fp4s":
        handle = baseline.recover(peers[: baseline.config.num_coded], replacement, size)
    elif name == "lineage":
        handle = LineageBaseline(w.ctx).recover(replacement, size)
    else:
        baseline = ReplicationBaseline(w.ctx)
        baseline.protect(owner, replacement)
        handle = baseline.recover(owner, size)
    return digest(w, handle, f"{name}/{case}")


# Line counts a retry before it checks the budget, one more than the other
# mechanisms report; an exhausted line budget is therefore left unpinned
# (tests/test_recovery_refailure.py holds the count to ``max_retries``).
UNPINNED = {"line/partition-stays", "line-prefetch/partition-stays"}

PINS = {
    "checkpointing/clean": "completed:bf9a386d68422cdb677510e2dadf753d50eeeee15588326216ff91f772337ee6",
    "checkpointing/replacement-dead": "failed:a2368a59cc51e2cc367fb091d044e1a8c0819259367dc97b197c113184fd9923",
    "checkpointing/replay-aborted": "failed:d014d943fec48f01fa44742dd871e0e6abff12176686f79ee59063117552f36d",
    "fp4s/clean": "completed:e00af02ab591006db49dc6871aa31f306526e5f60ed5809c01ce57aa4a198a64",
    "lineage/clean": "completed:0e3ba6a48fdfc08b3abd2edbd6929bedfc8426c06689a87e1f42ba5a84e93c00",
    "replication/clean": "completed:bf0eab0e2d0d75809019f1ca1f79dfd4acafd7c774d0be54289ba47a9960b9a8",
    "line/flat": "completed:9ae3339b9cdfbbbfa7d2f4a6320b7138b93a9366a8b528e303c45c6e385234c5",
    "line/chain3": "completed:3452460ac8f88447e1b849e46fa38b52641cc776a9907bd8bc64b204fdd4899b",
    "line/provider-dies": "completed:9252cb7b93e4ff766c855b7d2d358c58e057a4f0735b4c764f213023213c7720",
    "line/partition-heals": "completed:5d4b87d700046fb2474f7d801a035ade4faf3b3ff124fe3beb5920004d2d940a",
    "line/partition-early": "completed:45b7eb82aee384ac756232071ecb8f22de263cd35050f08fb3739e73ae29c674",
    "line/no-replica": "failed:4168227768f5a922837a1c15930c021e319e96c6ef50cf47713d6bde99970abe",
    "line/replicas-lost": "completed:174d849cf686f91e714f8e9fa07b2e177aca4bde5e762e60752e248767160dc0",
    "line/primaries-die": "failed:96e3b5a1780832bf1161373db75586a6fc04ddcdfa01fbe2b5b46254d3c02067",
    "line/replacement-dies": "failed:8976775e7c278b797864850ef8c374ecfc4113bb0a22ce6d95b9006c5cf44562",
    "line/replacement-dies-early": "failed:36a4d5238e7dbba503c8cd0606f9f0cbc76fe43770a6b1bbc3244236c15c744e",
    "line/straggler": "completed:9ae3339b9cdfbbbfa7d2f4a6320b7138b93a9366a8b528e303c45c6e385234c5",
    "line-prefetch/flat": "completed:2627b262bf9cf3282f129408a68d92f976dcf6edf816b6f49cc07ee8b8c5a7e4",
    "line-prefetch/chain3": "completed:bafd05bd9a0019c5cac1b27dabb0b1a3cb39af1407131600824456cb8ac02134",
    "line-prefetch/provider-dies": "completed:79407e80b6e4ce2e70bb2a4dd344194a6a53cc637c8eaf65c1eb3e95724785bf",
    "line-prefetch/partition-heals": "completed:f5a93fd8be564b6b0b449216ece0e00053b8eae3f4a28948a8d11197d06feef7",
    "line-prefetch/partition-early": "completed:cbf37bcb4da992e6424898142d4ec18ef933e025208e8f2a3f4c0b3159669f64",
    "line-prefetch/no-replica": "failed:38a2fbb0b2e88fac997ca71bf470886bc9ce8668915f3199fde06f89d2a8ad5a",
    "line-prefetch/replicas-lost": "completed:0f56e96449861aa046ea4a0eebebd9a7b90413970474f6420eb44c6b3ff4ead4",
    "line-prefetch/primaries-die": "failed:ceedcbf79b47b7d071555ae0f3f2dbdf1dbf3e36cf936b7a6b602567da2f648d",
    "line-prefetch/replacement-dies": "failed:54c488a48d74d35681f94d921d782a7331e228597a2c25d6d2ec420f59a1d039",
    "line-prefetch/replacement-dies-early": "failed:6aab954a31fbfe217ec10b6f9752904b18f43d6d93643069716a38179a382025",
    "line-prefetch/straggler": "completed:2627b262bf9cf3282f129408a68d92f976dcf6edf816b6f49cc07ee8b8c5a7e4",
    "speculation/flat": "completed:cae13b5df4f11e47fc1f45103aee0197d97df3cb300da52e8c3ea7983f19e076",
    "speculation/chain3": "completed:e46117b1a145caa004d5be5a1af25245f7051c0247a05b82f2af46a81455457e",
    "speculation/provider-dies": "completed:8daa92695dfb310a0c5dcbf02b75dc4ecb2fbd43c87f08095a70a6951266c3c1",
    "speculation/partition-heals": "failed:2597fa6fefed73d015de74b4094804b6b0673e135fc5b654aefa8fd27a0e5048",
    "speculation/partition-early": "completed:a847ff9a5acbc74baeb29c59fa0db8d1358b0503b3a772e6fde58c055b35e460",
    "speculation/partition-stays": "failed:c8d630cbf3609f24b84a90361c83647e5093f67610d39e8e285ceb5c98dd3216",
    "speculation/no-replica": "failed:52b65532627d36963523991aca936afa59d69178c1370f11faedbc4f29bd837c",
    "speculation/replicas-lost": "failed:2608c6782088785f05f4335cca167e9d04f0dc8e663a2e789fd1698dc1c0e2f6",
    "speculation/primaries-die": "completed:3ec984510ad52109942baae65f06098256ef5fba5b838a8f2574593e5d6b58ce",
    "speculation/replacement-dies": "failed:fce8a231e7ca528d06c645af4b9deed0257e1af87041f8ef5d9e36307c36e59b",
    "speculation/replacement-dies-early": "failed:c2a680087c502022356e9dab12ae4e9520d9ea81958c4cb55a04d2bd2598095f",
    "speculation/straggler": "completed:631401c66b6a742ef53c9792587e8b00cedace54e6b7629d56e7f81c40b24ff2",
    "standby-cold/flat": "completed:8fa8a27da921b567c2d447c46f51f9ec1d80b358a37167c82b50e820890ad8c7",
    "standby-cold/chain3": "completed:aa43fbc12a24a3b1a0ddd60a9581ed1344e4072a7c6e6fa50087c617cd7725a0",
    "standby-cold/provider-dies": "completed:bc9c6e0fcc2511ef2a9b33a17827899ed83e522950570b6b4b3967c3f1f5a597",
    "standby-cold/partition-heals": "completed:02b9143c59dcf68c8928512904c21b4c7c081fd4ea478b1618b46f282f852ee8",
    "standby-cold/partition-early": "completed:3bd8c726fd64a2fbce1223ad83efce65d54ebba2e8979462a32b445d2f03ae42",
    "standby-cold/partition-stays": "failed:f13495e39775e5c97f654bdc130c00d381e6464cd2a50cbe33c8430c508dc724",
    "standby-cold/no-replica": "failed:f946700253087c3beeecd82694446e8702988a1527f263bfafee8c595d394c1f",
    "standby-cold/replicas-lost": "failed:445c1eb013ce14c771ae5ef3ecfb0ff009418b740bc1623352a879d9b1e3387d",
    "standby-cold/primaries-die": "completed:13e9e5f041c055d490353c64d5e55719c4d2f0aa731c14351333f2657f91799c",
    "standby-cold/replacement-dies": "failed:eff26b6b6c8c1857f46e7ed72ad237b881e652b74391df5ec258a63cf89f87f4",
    "standby-cold/replacement-dies-early": "failed:a5019055b3b705ca520fffc681ca042703fc80e60c43e895d16e74b4edf7ecb7",
    "standby-cold/straggler": "completed:4cbc94aa8f2cf5e265664a400890bf7c239afd2b906127701de6e61a5e119c66",
    "standby-warm/flat": "completed:77d37b2442b083b9b92f49d9756e51ba68d7bfbea4356937133ec18dbd26fde5",
    "standby-warm/chain3": "completed:041351222c168cc9b22bbf20119befe8271a55794f1442c992613cfe24b6c11f",
    "standby-warm/provider-dies": "completed:76d6722e2c5adf85f377853a15863f34c36f48da718dd9af6c0ca8bb6c29b94b",
    "standby-warm/partition-heals": "completed:09a02309792d1e4e04ed2b9173a2d57bcad6d5c8fc2398e4827bd300ad286075",
    "standby-warm/partition-early": "completed:db923c0c96f52bab8becba1e428ef47b0808c3c2af04bcd771fbf274b4f2b6cc",
    "standby-warm/partition-stays": "completed:ba369586ada6105199e34cd3538c9335ab14eeb4c12c32e669c9221931ad86ff",
    "standby-warm/no-replica": "failed:f946700253087c3beeecd82694446e8702988a1527f263bfafee8c595d394c1f",
    "standby-warm/replicas-lost": "completed:20e244c076b8cd0080a07c1441b1241eeaf517f25e0683ecd27ea6a0c979c9f8",
    "standby-warm/primaries-die": "completed:6e410ea49396078c47a570bf34aeb2056f80aba768e8a42149264d795584bb1a",
    "standby-warm/replacement-dies": "completed:d06f953b58e8e11075157b073ea2747d02768bcebb676c659a77b974e5c59cb1",
    "standby-warm/replacement-dies-early": "failed:02a4a1b5ddcbbc51a43f877be293dbdf92cc72207829810ab3b81015ba269624",
    "standby-warm/straggler": "completed:77d37b2442b083b9b92f49d9756e51ba68d7bfbea4356937133ec18dbd26fde5",
    "star/flat": "completed:86557f6f5c0438e1b08817c9495e00f0880be1432a96152452ae60c5238a9dac",
    "star/chain3": "completed:77bd26bc7dcfa48094ae1a61c11edd35826cb1176e25f5d051b64f6ff2f4f545",
    "star/provider-dies": "completed:d49eaf6e07e543bcda7ec18b086a3edcc7991444eab5341aa2997797d44c16c6",
    "star/partition-heals": "completed:557dbc47693e2aefa8ae955ec99930688053130d6ba7bc76709635dafbefb042",
    "star/partition-early": "completed:b6a7599b40058bcf7aef61d2ca4d6e04af0a81e9bb7c467c538b4e71c5b14ab0",
    "star/partition-stays": "failed:fe10e5041f3e0224650bc3474f621d01b75e786f9711ce6946e7cf39a35aeaf2",
    "star/no-replica": "failed:bf9b485cabe1aae99e497e3fcd679dbebf319720f1f3d926f9c66dc323834f06",
    "star/replicas-lost": "failed:06e5545d9eec3768683af016b9b4674b54f83a4ff47b65eda80cff8f6ebdc207",
    "star/primaries-die": "completed:491bebf46a6d3634b06936fa039f007aaba03f04edc1407a5e0aab010785e66a",
    "star/replacement-dies": "failed:14e3525cc01b09e027979f8a3e3a37bd022edb77b05598892068f4a73940d567",
    "star/replacement-dies-early": "failed:544f3dbe0d789ea2f06f0521d5a6b54b815cbfd7c631a2f22616f50b931f3a3a",
    "star/straggler": "completed:7e29ac8d208c26225954d9660e568f631106d2f0f5437a3116051251c10b206a",
    "tree/flat": "completed:885d8d0f2d3ba23396dbda495168d132a28f3f62844fd293d7287d0dccc55379",
    "tree/chain3": "completed:5dc2c3cf43e2cb5163b8b5ac5120d647322c071a1214b57e3f63d2f32c88c42b",
    "tree/provider-dies": "completed:1d04100245e373267b2bdfdac3a78ecf6379e9797bb42e0b4b88b732bf531b9f",
    "tree/partition-heals": "completed:57f1edf25abcd3ce45f1e1c1ba85bc97be53b640d4480103c42c1a01013fadf9",
    "tree/partition-early": "completed:0aa7c1ddc93d213addca0415244d86c1ebff09e03c66115a9200edbd05cfb445",
    "tree/partition-stays": "failed:3ea634e0c5be57de33e74bd87f205aaa04408fd334ae5543f6019592fcf12734",
    "tree/no-replica": "failed:1a684995e02ac5916a3593c8733418ffbf5bc0cea2b5ba6bd789a3d8e861d204",
    "tree/replicas-lost": "failed:01d2dbd0aed649548467fc81b41b65eb3e90f63b584ad492e188cbef056eed56",
    "tree/primaries-die": "completed:5ca83ed8997b656c75f8ecef3ece61d3a7f499eefd53a21b9b6df402fc8ce04a",
    "tree/replacement-dies": "failed:17c0fda06436e0e0357c2305f2330b186da5c1289bffd865bd9c34ac6105f36d",
    "tree/replacement-dies-early": "failed:8aae5a2590424f019105516fe01e5aa3b7e4c26363b6fc8bb6dbada9c583f4c8",
    "tree/straggler": "completed:383525a9ee8722ecd9eb92e20219ba148c3a3600db902a0e5c3bf7fee54172fe",
    "tree-scribe/flat": "completed:21637150c0d05f0d41fd27b5f6ecd23fbc3352052eb487edda13e7f64ce359d8",
    "tree-scribe/chain3": "completed:d157a77cdba4bd94e692e77bbfec71339d3f62bb251df5c0821482662221abdf",
    "tree-scribe/provider-dies": "completed:5da0dddfa67ea72726463bb66107ccca8ffda0af6bb35a017b6b54381adad404",
    "tree-scribe/partition-heals": "completed:4d1d54d0c0f4e75796dea3a61427af788e86f9fabfa8f39087a7a39f91738418",
    "tree-scribe/partition-early": "completed:c19fcbca40daa0584db29a769606f712a8dc42198e3337dc14e9ba3660f99c03",
    "tree-scribe/partition-stays": "failed:da96b92985e40981999123b62cd3b8649392727d289b33f5e28e1039a91a782a",
    "tree-scribe/no-replica": "failed:1a684995e02ac5916a3593c8733418ffbf5bc0cea2b5ba6bd789a3d8e861d204",
    "tree-scribe/replicas-lost": "failed:8e5b5809b3abc060438ae94f0d3a52e181aa1156857cbf2a8eb0dadccffa4de6",
    "tree-scribe/primaries-die": "completed:0a1aa1c6efdacf630f880ccf0a618c440921cacb8d955bb1968ffc7b47a79d61",
    "tree-scribe/replacement-dies": "failed:9dab2f046aac4f4fbfb543637443849922de7182159ac4dd05a07d0066e25e07",
    "tree-scribe/replacement-dies-early": "failed:c344f266106cfcc7184771b9286da9b963427c8ab16b80bf6421d1b3642871d8",
    "tree-scribe/straggler": "completed:60b86fe39d0224faa8281fe2c45291e8da9d6c494d5d3bdf858376d475eac3c0",
}


def pinned(key: str) -> str:
    name, case = key.split("/")
    return run_baseline(name, case) if key in BASELINE_CASES else run_case(name, case)


@pytest.mark.parametrize("key", sorted(PINS))
def test_trace_and_registry_are_pinned(key):
    assert pinned(key) == PINS[key]


def test_every_case_is_pinned():
    keys = {f"{m}/{c}" for m in MECHANISMS for c in CASES}
    assert (keys - UNPINNED) | set(BASELINE_CASES) == set(PINS)


if __name__ == "__main__":
    keys = {f"{m}/{c}" for m in MECHANISMS for c in CASES} - UNPINNED
    print("PINS = {")
    for key in sorted(keys | set(BASELINE_CASES)):
        print(f'    "{key}": "{pinned(key)}",')
    print("}")
