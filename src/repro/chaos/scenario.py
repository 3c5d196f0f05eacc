"""The scenario DSL: declarative, reproducible fault campaigns.

A :class:`Scenario` is a frozen spec — deployment shape, protected states,
a sequence of :mod:`injectors <repro.chaos.injectors>` on the virtual
clock, and the mechanisms to sweep. Everything is derived from the
scenario ``seed``, so the same spec always yields the same fault timeline
and, downstream, a byte-identical resilience report.

The shipped catalog (``SCENARIOS``) covers the failure modes the paper
argues SR3 must survive, plus the recovery-during-recovery cases its
mechanisms historically mishandled; ``CAMPAIGNS`` groups them into the CI
smoke sweep and the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Tuple

from repro.chaos.injectors import (
    BandwidthFlap,
    CrashWave,
    Injector,
    MidRecoveryCrash,
    NetworkPartition,
    PoissonChurn,
    RackFailure,
    Straggler,
)
from repro.errors import SimulationError
from repro.util.sizes import MB

#: Mechanism names the campaign runner understands. ``star``/``line``/
#: ``tree``/``speculation`` are the SR3 mechanisms; ``checkpointing`` is
#: the remote-storage baseline swept for contrast.
KNOWN_MECHANISMS = ("star", "line", "tree", "speculation", "checkpointing")

SR3_MECHANISMS = ("star", "line", "tree", "speculation")


@dataclass(frozen=True)
class Scenario:
    """One declarative fault campaign against a simulated deployment."""

    num_nodes: ClassVar[int] = 32
    state_bytes: ClassVar[float] = 16.0 * MB
    num_shards: ClassVar[int] = 4
    num_replicas: ClassVar[int] = 3
    # Incremental save rounds after the base save, each ``delta_fraction`` of
    # the state bytes: campaigns exercise chain-aware recovery by default.
    delta_rounds: ClassVar[int] = 2
    delta_fraction: ClassVar[float] = 0.1

    name: str
    description: str = ""
    num_states: int = 2
    uplink_mbit: float = 0.0  # 0 means unconstrained (GbE LAN mode)
    latency_bound: float = 120.0
    mechanisms: Tuple[str, ...] = SR3_MECHANISMS
    injections: Tuple[Injector, ...] = field(default_factory=tuple)
    #: Which replica of the spec runs; set by :meth:`with_seed` only.
    seed: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("scenario needs a name")
        if self.num_states < 1:
            raise SimulationError("scenario needs at least one state")
        if self.latency_bound <= 0:
            raise SimulationError("latency bound must be positive")
        if not self.mechanisms:
            raise SimulationError("scenario must sweep at least one mechanism")
        for mechanism in self.mechanisms:
            if mechanism not in KNOWN_MECHANISMS:
                raise SimulationError(
                    f"unknown mechanism {mechanism!r}; known: {KNOWN_MECHANISMS}"
                )
        # Normalize list inputs (hand-written specs) to tuples.
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        object.__setattr__(self, "injections", tuple(self.injections))

    def state_names(self) -> List[str]:
        return [f"{self.name}/state-{i}" for i in range(self.num_states)]

    def with_seed(self, seed: int) -> "Scenario":
        reseeded = replace(self)
        object.__setattr__(reseeded, "seed", seed)
        return reseeded


# --------------------------------------------------------------------- catalog

SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="crash-wave",
            description="Two state owners die simultaneously; recoveries "
            "run in parallel on disjoint provider sets.",
            num_states=2,
            injections=(CrashWave(at=5.0, count=2),),
            mechanisms=SR3_MECHANISMS + ("checkpointing",),
        ),
        Scenario(
            name="rack-outage",
            description="A state owner and its nearest ring neighbours "
            "(replica holders) fail together.",
            num_states=1,
            injections=(RackFailure(),),
        ),
        Scenario(
            name="churn",
            description="Poisson node churn with rejoining newcomers while "
            "one owner crash drives a recovery.",
            num_states=1,
            injections=(
                PoissonChurn(duration=15.0, rate=0.3),
                CrashWave(at=6.0, count=1),
            ),
        ),
        Scenario(
            name="partition-heal",
            description="A third of the cluster is cut off mid-recovery; "
            "the cut heals within the retry budget.",
            num_states=1,
            injections=(
                CrashWave(at=3.0, count=1),
                NetworkPartition(at=5.0, heal_after=8.0),
            ),
        ),
        Scenario(
            name="bandwidth-flap",
            description="Random hosts flap to 10% bandwidth while a "
            "recovery streams state.",
            num_states=1,
            uplink_mbit=200.0,  # flapping needs finite links to bite
            injections=(
                CrashWave(at=3.0, count=1),
                BandwidthFlap(at=4.0, hosts=3, period=4.0),
            ),
        ),
        Scenario(
            name="stragglers",
            description="Slow provider nodes drag transfers; speculation "
            "should mask them, plain star pays the slowdown.",
            num_states=1,
            uplink_mbit=200.0,  # stragglers need finite links to bite
            latency_bound=60.0,
            injections=(
                Straggler(hosts=4, factor=0.2),
                CrashWave(at=3.0, count=1),
            ),
        ),
        Scenario(
            name="mid-recovery-provider-crash",
            description="A replica holder serving the recovery dies "
            "mid-transfer; every mechanism must retry from an "
            "alternate replica.",
            num_states=1,
            uplink_mbit=100.0,  # finite links keep transfers in flight
            injections=(
                CrashWave(at=3.0, count=1),
                MidRecoveryCrash(target="provider"),
            ),
        ),
        Scenario(
            name="mid-recovery-recrash",
            description="The replacement node dies mid-recovery; mechanisms "
            "surface a clean RecoveryError and the campaign engine "
            "restarts onto a fresh replacement.",
            num_states=1,
            uplink_mbit=100.0,  # finite links keep transfers in flight
            injections=(
                CrashWave(at=3.0, count=1),
                MidRecoveryCrash(target="replacement"),
            ),
        ),
    )
}

#: Named sweeps. ``smoke`` is the CI campaign: a small ring, three
#: scenarios, every mechanism — fast enough to run on every push.
CAMPAIGNS: Dict[str, Tuple[str, ...]] = {
    "smoke": ("crash-wave", "mid-recovery-provider-crash", "mid-recovery-recrash"),
    "full": tuple(sorted(SCENARIOS)),
}


def campaign_scenarios(name: str) -> List[Scenario]:
    """Resolve a campaign name into its scenario list."""
    if name not in CAMPAIGNS:
        raise SimulationError(
            f"unknown campaign {name!r}; known: {sorted(CAMPAIGNS)}"
        )
    return [SCENARIOS[s] for s in CAMPAIGNS[name]]
