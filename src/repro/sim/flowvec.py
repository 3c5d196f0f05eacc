"""Vectorized fast path for the flow-level network model.

When the live-flow population is large (paper-scale recovery pushes tens
of thousands of concurrent transfers), the per-flow Python loops in
:mod:`repro.sim.network` — settling byte progress, water-filling, and
completion scanning — dominate wall-clock. This module mirrors the live
flow list into aligned numpy arrays and runs those loops as array
kernels.

**Determinism contract: byte-identical results.** Every kernel performs
the exact same IEEE-754 operations, in the same per-accumulator order,
as the scalar code it replaces:

* Settling multiplies the same ``rate * elapsed`` products (the settle
  invariant guarantees one shared ``elapsed`` for all live flows) and
  folds per-host/total byte counters with ``np.add.at`` /
  ``np.add.accumulate``, which apply strictly in element order — the
  admission order the scalar loop walks.
* Water-filling subtracts fixed shares with ``np.subtract.at`` in
  admission order per link. Up-links and down-links are disjoint keys,
  so the two-pass (all up, then all down) subtraction hits each link
  with the identical operand sequence as the scalar interleaved loop.
* Completion scanning exploits that ``min(now + t_i) == now + min(t_i)``
  for rounded monotone addition over the same operands.

While a :class:`FlowTable` is attached, the arrays are authoritative for
``Flow.remaining`` and per-host byte counters; ``Host.bytes_sent`` /
``bytes_received`` are properties that read through to the table, and
``Flow.remaining`` is synced back on removal and on deactivation.

numpy is an optional dependency (``pip install repro[fast]``), and it is
imported by :func:`attach` when the first table is wanted, not with this
module: it costs 0.15 s and 13 MB, and most processes never reach
``VECTOR_ACTIVATE`` concurrent flows. ``HAVE_NUMPY`` says whether it can
be found without importing it. Without it, or once its import has
failed, ``HAVE_NUMPY`` is False and the network keeps the pure-Python
path — same results, just slower at scale.
"""

from __future__ import annotations

import math
from importlib.util import find_spec
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.network import Flow, Host

np = None  # numpy, once attach() has imported it
HAVE_NUMPY = find_spec("numpy") is not None

# Mode thresholds (module-level so tests can monkeypatch them). The table
# attaches when the live-flow count reaches ACTIVATE at a settle point and
# detaches below DEACTIVATE; the gap keeps a population at one boundary
# from thrashing O(n) conversions. On the 2-vCPU box a numpy settle plus
# completion scan costs ~17 us flat against ~0.4 us per flow scalar, and a
# table adds ~50 us to a flow's life: break-even at ~90 steady flows (159
# vs 149 us per completed flow at 96; 126 vs 150 at 64; 314 vs 155 at 256).
# ACTIVATE sits a third above that because the first table also pays the
# numpy import: two 48-flow recoveries overlapping exactly (one crash-wave
# chaos cell in 27) hold 96 flows for one settle, not worth 0.1 s and 13 MB.
VECTOR_ACTIVATE = 128
VECTOR_DEACTIVATE = 48
# Minimum solve size for the vectorized water-filling. A call costs
# 0.3-0.8 ms before the first flow, the scalar solver 1.5-3 us per flow
# and round: sparse components (one host per flow) break even at ~150
# flows, dense ones (four flows per host) at ~500.
WATERFILL_MIN = 192


_ROW_ARRAYS = ("seq", "rate", "remaining", "demand", "srci", "dsti")


def attach(flows: List["Flow"]) -> Optional["FlowTable"]:
    """A :class:`FlowTable` over ``flows``; the first one imports numpy.

    Returns None when numpy is installed but its import raises. That
    clears ``HAVE_NUMPY``, so the process asks once and stays scalar.
    """
    global np, HAVE_NUMPY
    if np is None:
        try:
            import numpy
        except ImportError:
            HAVE_NUMPY = False
            return None
        np = numpy
    return FlowTable(flows)


class FlowTable:
    """Aligned array mirror of ``Network._order_cache``.

    Row ``i`` of every array describes ``network._order_cache[i]``; the
    alignment is maintained by inserting/removing rows at the exact list
    positions the network uses. Host state lives in slot arrays created
    lazily per host: absolute byte counters (seeded from the host at
    slot creation) and current link capacities, with link id ``2*slot``
    for the uplink and ``2*slot + 1`` for the downlink.
    """

    __slots__ = (
        "n",
        "seq",
        "rate",
        "remaining",
        "demand",
        "srci",
        "dsti",
        "hosts",
        "slot_of",
        "nslots",
        "link_bw",
        "h_sent",
        "h_recv",
    )

    def __init__(self, flows: List["Flow"]) -> None:
        cap = max(64, 2 * len(flows))
        self.n = 0
        self.seq = np.zeros(cap, dtype=np.int64)
        self.rate = np.zeros(cap, dtype=np.float64)
        self.remaining = np.zeros(cap, dtype=np.float64)
        self.demand = np.zeros(cap, dtype=np.float64)
        self.srci = np.zeros(cap, dtype=np.int64)
        self.dsti = np.zeros(cap, dtype=np.int64)
        self.hosts: List["Host"] = []
        self.slot_of: Dict["Host", int] = {}
        self.nslots = 0
        hcap = 64
        self.link_bw = np.zeros(2 * hcap, dtype=np.float64)
        self.h_sent = np.zeros(hcap, dtype=np.float64)
        self.h_recv = np.zeros(hcap, dtype=np.float64)
        for flow in flows:
            self.insert(self.n, flow)

    # ------------------------------------------------------------- host slots

    def _slot(self, host: "Host") -> int:
        slot = self.slot_of.get(host)
        if slot is not None:
            return slot
        slot = self.nslots
        if slot >= len(self.h_sent):
            grow = 2 * len(self.h_sent)
            self.h_sent = np.resize(self.h_sent, grow)
            self.h_recv = np.resize(self.h_recv, grow)
            self.link_bw = np.resize(self.link_bw, 2 * grow)
        # Seed the absolute counters from the host *before* linking the
        # slot (the property reads through to us once linked).
        self.h_sent[slot] = host.bytes_sent
        self.h_recv[slot] = host.bytes_received
        self.link_bw[2 * slot] = host.up_bw
        self.link_bw[2 * slot + 1] = host.down_bw
        self.slot_of[host] = slot
        self.hosts.append(host)
        self.nslots += 1
        host._flowvec = (self, slot)
        return slot

    def update_host_bw(self, host: "Host") -> None:
        slot = self.slot_of.get(host)
        if slot is not None:
            self.link_bw[2 * slot] = host.up_bw
            self.link_bw[2 * slot + 1] = host.down_bw

    def detach(self) -> None:
        """Write host byte counters back to the host objects."""
        for host in self.hosts:
            slot = self.slot_of[host]
            host._flowvec = None
            host._bytes_sent = float(self.h_sent[slot])
            host._bytes_received = float(self.h_recv[slot])

    # -------------------------------------------------------------- row edits

    def insert(self, pos: int, flow: "Flow") -> None:
        n = self.n
        if n == len(self.seq):
            grow = 2 * n
            for name in _ROW_ARRAYS:
                setattr(self, name, np.resize(getattr(self, name), grow))
        if pos != n:
            for name in _ROW_ARRAYS:
                arr = getattr(self, name)
                arr[pos + 1 : n + 1] = arr[pos:n]
        self.seq[pos] = flow.seq
        self.rate[pos] = flow.rate
        self.remaining[pos] = flow.remaining
        self.demand[pos] = flow.demand
        self.srci[pos] = self._slot(flow.src)
        self.dsti[pos] = self._slot(flow.dst)
        self.n = n + 1

    def remove_many(self, positions: List[int]) -> None:
        """Drop the rows at ``positions``, compacting each array once."""
        if not positions:
            return
        n = self.n
        keep = np.ones(n, dtype=bool)
        keep[positions] = False
        left = n - len(positions)
        for name in _ROW_ARRAYS:
            arr = getattr(self, name)
            arr[:left] = arr[:n][keep]
        self.n = left

    def pos_of(self, flow: "Flow") -> int:
        return int(np.searchsorted(self.seq[: self.n], flow.seq))

    def positions_of(self, flows: List["Flow"]) -> "np.ndarray":
        """Positions of admission-ordered ``flows`` (vectorized bisect)."""
        want = np.fromiter((f.seq for f in flows), dtype=np.int64, count=len(flows))
        return np.searchsorted(self.seq[: self.n], want)

    def set_rates(self, flows: List["Flow"], rates: List[float]) -> None:
        """Store the scalar solver's new ``rates`` of ``flows``."""
        self.rate[self.positions_of(flows)] = rates

    def rerate(self, pos: Optional["np.ndarray"]) -> tuple:
        """Water-fill the rows at ``pos`` (None = all) and store the result.

        Returns ``(indices, rates)``: the indices into ``pos`` whose rate
        changed, and their new rates as Python floats.
        """
        rows = slice(0, self.n) if pos is None else pos
        rates = waterfill(self, pos)
        moved = np.nonzero(rates != self.rate[rows])[0]
        self.rate[rows] = rates
        return moved.tolist(), rates[moved].tolist()

    # ---------------------------------------------------------------- kernels

    def settle(self, elapsed: float) -> Optional["np.ndarray"]:
        """Advance all rows by ``elapsed``; returns per-flow bytes moved.

        Returns None when nothing can have moved. Host byte counters are
        folded in admission order via ``np.add.at`` (sequential per
        element, matching the scalar loop's per-host accumulation
        sequence); the caller folds the returned vector into the global
        totals the same way.
        """
        n = self.n
        if n == 0:
            return None
        rate = self.rate[:n]
        rem = self.remaining[:n]
        if elapsed == 0.0:
            # Only infinite-rate flows move bytes in zero elapsed time
            # (their whole finite payload transfers on settle).
            mask = np.isinf(rate) & np.isfinite(rem)
            if not mask.any():
                return None
            moved = np.zeros(n, dtype=np.float64)
            moved[mask] = rem[mask]
        else:
            moved = rate * elapsed
            np.minimum(moved, rem, out=moved)
            # inf * elapsed on an infinite-remaining app flow: charge
            # nothing rather than poison the counters (scalar rule).
            inf_mask = np.isinf(moved)
            if inf_mask.any():
                moved[inf_mask] = 0.0
        rem -= moved
        np.add.at(self.h_sent, self.srci[:n], moved)
        np.add.at(self.h_recv, self.dsti[:n], moved)
        return moved

    def completion_scan(self, now: float) -> tuple:
        """(next completion instant, any-infinite-rate) over all rows."""
        n = self.n
        rate = self.rate[:n]
        rem = self.remaining[:n]
        active = (rate > 0) & np.isfinite(rem)
        if not active.any():
            return math.inf, False
        r = rate[active]
        if bool(np.isinf(r).any()):
            # An unconstrained flow finishes at `now`, which lower-bounds
            # every other candidate (now + nonnegative).
            return now, True
        t = rem[active] / r
        return float(now + t.min()), False

    def finished_positions(self, eps: float) -> List[int]:
        return np.nonzero(self.remaining[: self.n] <= eps)[0].tolist()


def fold_total(start: float, moved: "np.ndarray") -> float:
    """Left fold ``start + m0 + m1 + ...`` with scalar rounding order.

    ``np.add.accumulate`` is a strictly sequential left fold (unlike
    ``np.sum``'s pairwise tree), so this reproduces the scalar loop's
    running-total ulps exactly.
    """
    acc = np.empty(len(moved) + 1, dtype=np.float64)
    acc[0] = start
    acc[1:] = moved
    return float(np.add.accumulate(acc)[-1])


def waterfill(table: FlowTable, pos: Optional["np.ndarray"]) -> "np.ndarray":
    """Progressive water-filling over the rows at ``pos`` (None = all).

    Array transliteration of ``Network._waterfill`` — same iteration
    structure (saturate demand-capped flows below the fair share first,
    then freeze the flows on bottleneck links), same float-op order per
    accumulator, same ``1 + 1e-12`` bottleneck tolerance and post-pass
    clamp. ``pos`` must be admission-ordered and closed under constraint
    sharing, exactly like the scalar solver's input.
    """
    if pos is None:
        k = table.n
        up_g = 2 * table.srci[:k]
        down_g = 2 * table.dsti[:k] + 1
        demand = table.demand[:k]
    else:
        k = len(pos)
        up_g = 2 * table.srci[pos]
        down_g = 2 * table.dsti[pos] + 1
        demand = table.demand[pos]
    links, inverse = np.unique(np.concatenate((up_g, down_g)), return_inverse=True)
    up_l = inverse[:k]
    down_l = inverse[k:]
    nlinks = len(links)
    residual = table.link_bw[links].copy()
    counts = (
        np.bincount(up_l, minlength=nlinks) + np.bincount(down_l, minlength=nlinks)
    ).astype(np.float64)
    demand_capped = bool(np.isfinite(demand).any())
    unfixed = np.ones(k, dtype=bool)
    rates = np.zeros(k, dtype=np.float64)
    while unfixed.any():
        share = np.divide(
            residual,
            counts,
            out=np.full(nlinks, math.inf, dtype=np.float64),
            where=counts > 0,
        )
        bottleneck_share = float(share.min())
        if math.isinf(bottleneck_share):
            # No remaining link constraint: elastic flows take inf,
            # demand-capped app flows saturate at their offered load.
            rates[unfixed] = demand[unfixed]
            break
        if demand_capped:
            saturated = unfixed & (demand <= bottleneck_share)
            if saturated.any():
                rates[saturated] = demand[saturated]
                unfixed &= ~saturated
                su = up_l[saturated]
                sd = down_l[saturated]
                sdem = demand[saturated]
                # Up-link and down-link ids are disjoint, so the two
                # passes subtract from each link in admission order —
                # the scalar loop's exact per-link operand sequence.
                np.subtract.at(residual, su, sdem)
                np.subtract.at(residual, sd, sdem)
                np.subtract.at(counts, su, 1.0)
                np.subtract.at(counts, sd, 1.0)
                touched = np.concatenate((su, sd))
                residual[touched] = np.maximum(residual[touched], 0.0)
                continue
        link_fixed = (counts > 0) & (share <= bottleneck_share * (1 + 1e-12))
        fix = unfixed & (link_fixed[up_l] | link_fixed[down_l])
        if not fix.any():
            raise NetworkError("water-filling failed to make progress")
        rates[fix] = bottleneck_share
        unfixed &= ~fix
        fu = up_l[fix]
        fd = down_l[fix]
        np.subtract.at(residual, fu, bottleneck_share)
        np.subtract.at(residual, fd, bottleneck_share)
        np.subtract.at(counts, fu, 1.0)
        np.subtract.at(counts, fd, 1.0)
        touched = np.concatenate((fu, fd))
        residual[touched] = np.maximum(residual[touched], 0.0)
    return rates
