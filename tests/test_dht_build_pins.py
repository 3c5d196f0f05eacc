"""Pinned overlay state: what ``build`` wires and what forty steps leave.

Each case builds one overlay and hashes everything the membership layer
decides: node names and ids, both leaf-set halves, every routing table
(``all_entries`` and each ``row_entries``, so the dict orders count), the
reverse holder index read through ``_leafset_holders``, and the generator's
state after the build. The same hash is taken again after forty seeded
fail / add / revive steps, together with the metrics registry. The digests
were taken on the code as it stood before leaf sets were wired and repaired
from the alive ring (a per-node walk over a full sorted index, one observer
call per leaf-set member); a digest that moves means a build or a repair
chose differently, not just faster.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_dht_build_pins.py
"""

import hashlib
import json
import random

import pytest

from repro.dht.overlay import Overlay
from repro.sim.kernel import Simulator
from repro.sim.network import Network

SIZES = (1, 2, 7, 24, 25, 26, 64, 700)
SEEDS = (0, 3)
STEPS = 40


def state_digest(overlay: Overlay, *extra: str) -> str:
    digest = hashlib.sha256()

    def put(*parts) -> None:
        digest.update(repr(parts).encode())

    names = lambda nodes: [n.name for n in nodes]  # noqa: E731
    for node in overlay.nodes:
        put(node.name, node.node_id.value, node.alive, node.join_order)
        put(names(node.leaf_set.clockwise()), names(node.leaf_set.counter_clockwise()))
        table = node.routing_table
        put(names(table.all_entries()))
        for row in table.occupied_rows():
            put(row, names(table.row_entries(row)))
        put(names(overlay._leafset_holders(node.node_id)))
    put(overlay.rng.getstate(), *extra)
    return digest.hexdigest()


def churn(overlay: Overlay, seed: int) -> None:
    """Forty fail / add / revive steps drawn from a generator of their own."""
    rng = random.Random(seed + 1000)
    for _ in range(STEPS):
        draw = rng.random()
        dead = [n for n in overlay.nodes if not n.alive]
        if draw < 0.55 and overlay.alive_count() > 1:
            overlay.fail_node(rng.choice(overlay.alive_nodes()), repair=rng.random() < 0.8)
        elif draw < 0.8 or not dead:
            overlay.add_node()
        else:
            node = rng.choice(dead)
            node.revive()
            overlay.network.recover_host(node.host)
    overlay.sim.run_until_idle()


def run_case(nodes: int, seed: int) -> tuple:
    sim = Simulator()
    overlay = Overlay(sim, Network(sim), rng=random.Random(seed))
    overlay.build(nodes)
    built = state_digest(overlay)
    churn(overlay, seed)
    return built, state_digest(overlay, json.dumps(sim.metrics.dump()))


# (nodes, seed) -> (digest after build, digest after the forty steps)
PINS = {
    (1, 0): (
        "9e0e96e6062ce550aa894a0b7da79ff25b7245bb00e4209fefc15776b102bba6",
        "37e5ae4917cff89e842d8cf4d6f9758ce0d45bf6c9fe462643573de1da94ad97",
    ),
    (1, 3): (
        "01be0925b80f0eb7d0d38b8d995a3afab050dd260c24f36a0b17b07aab2f7673",
        "eea3b8d60886ecf56434ed59dfa05c7d9bff7bd783597b7a72931f285e90be76",
    ),
    (2, 0): (
        "b1f9795ca6480ec2e15496d5642b6f9ba1fbd146931a09c211e8c13b26c4ebb4",
        "8c434f78eadbda468d61e26e62f8eb9f50fed4ef3d9de113c365d99461bae63b",
    ),
    (2, 3): (
        "7c6df7233dead68ee2a2174ea03c7fbdd48f8d236e57cef9fc5c84e7bb9e4582",
        "e0a3d275faa6c051e9d2ae30e9d9383e3ea19d759e4fad78999214f580ec391c",
    ),
    (7, 0): (
        "a63feacf801cc0a1be0722ac290019afd6e83253d59063b5c13a603218dbd622",
        "357542dc47740cb91834293184283093bc5a1cb3031dcd2b639df923e64008bd",
    ),
    (7, 3): (
        "30dbcc5b8d415c183c581db5c9f45e9073270881c67f7eb86ac2298421e49821",
        "248ce3a88e07facdd0e350a8aa6dce0b339908470d58ed2f21dfa8bf83310885",
    ),
    (24, 0): (
        "ba3ae93b946671105967bb5b8a0395c0c9653cb366a3c12425a1ce5ad28a13af",
        "1dd7ec1e66c728a24aee8fbe70a78e542accfd23f3fea2bce4407f8da7c42dc6",
    ),
    (24, 3): (
        "71a6559ffbbccc6ff0892f1049548f4b3eee8e2dd963ee1683be892d2d740f13",
        "e939d5f437e87da21ebecf31b7d1332ff005f562b18696be0720634d26219581",
    ),
    (25, 0): (
        "4c68dde00b7efdb025897fe6507a18aa8727ad2721c9487b46b6a5e95152767b",
        "de247f80dafb023f72c33a90d6eabc98cb7795ff14ed1468ae978d49b808d4c1",
    ),
    (25, 3): (
        "bf6c566ff25c37128e46e3ab60b571454d99a566370524e1cf24dd6b83070713",
        "304183bdbd9d8159c52b3728c76244c05270e72a9095eca6b503b472418aef3e",
    ),
    (26, 0): (
        "c4a2fdf87e6038dc47987c32f109d581fcd08ab00c1dc2c947a86b6e4d5d348a",
        "b2bc8ceb3a327ca1789fd216dd17f68b9f1fbc819d64cf8415ddf756994f2610",
    ),
    (26, 3): (
        "dfa5007d349233af6cb8daa743d5bc570bfffa8c2fc93c274ab39402b9422996",
        "f423810abc51e70e44d7dc34efbde62642a87d377c5c07377850dd6937c65a45",
    ),
    (64, 0): (
        "d15f33b00f757a471c5109ceba2cef69239e298b4176c9d8255f07f904fe44f7",
        "3b8d21bbddd36edd4d63240624bdbd5b2734786b8227c65f2c23fb4a15ce6014",
    ),
    (64, 3): (
        "6e1015cc67345f416f65c723979733b80d3dd519ddf4ad1435295e9c5a33e735",
        "192e9765ff49cd09e4a042563edc2ff4bbaf50982858453a1ee216830a92734a",
    ),
    (700, 0): (
        "244feea32615b758e3c234f18e6817f2e04c9cc1263fc4a6a8801e80e16c4905",
        "8e4be34f18a8d79b2c99af2326bce6a52a6db123261a8be7fb54c545df5181e8",
    ),
    (700, 3): (
        "ae52bd7aab15967c9c35f7ecbd3563bafbbcd0c69b2309d3af0a7b64c39f5b93",
        "f9a69d7973285b75dd436053b0c6c878b67d3c27895a68654289f6e9f2a43415",
    ),
}


@pytest.mark.parametrize("nodes,seed", sorted(PINS))
def test_build_and_churn_state_is_pinned(nodes, seed):
    assert run_case(nodes, seed) == PINS[(nodes, seed)]


def test_every_size_and_seed_is_pinned():
    assert sorted(PINS) == [(nodes, seed) for nodes in SIZES for seed in SEEDS]


if __name__ == "__main__":
    print("PINS = {")
    for size in SIZES:
        for case_seed in SEEDS:
            built, churned = run_case(size, case_seed)
            print(f'    ({size}, {case_seed}): (\n        "{built}",\n        "{churned}",\n    ),')
    print("}")
