"""A budget on the Python frames one flow alone on the network costs.

The median reallocation in a chaos cell meets a single live flow, and what
such a flow costs is call overhead, so the number of frames it enters is the
quantity a change to the flow path moves. ``sys.setprofile`` counts them over
1,000 serial flows between two hosts, each started by the completion
callback of the one before, after ten warm-up flows: from ``transfer``
through admission, the settle event that rates it, the completion tick and
the callback, to the settle event after it (four kernel events). The count
repeats exactly and is the same on an unconstrained and a finite pair.
Before the lone-flow path (DESIGN.md, "Max–min allocation over link
records") it read 39.00.
"""

import math
import os
import sys
from collections import Counter

import pytest

import repro
from repro.sim.kernel import Simulator
from repro.sim.network import Network

WARM_UP, MEASURED = 10, 1000
PROGRAM = os.path.dirname(repro.__file__) + os.sep
#: Frames a flow, its completion callback included.
BUDGET = 21.0


def frames_per_flow(up_bw, down_bw):
    sim = Simulator()
    net = Network(sim)
    src = net.add_host("src", up_bw=up_bw, down_bw=down_bw)
    dst = net.add_host("dst", up_bw=up_bw, down_bw=down_bw)
    entered = Counter()
    started = 0

    def hook(frame, event, arg):
        # The program's frames and the callback below: inside a long test
        # session the collector runs other libraries' weakref callbacks.
        code = frame.f_code
        if event == "call" and (
            code.co_filename.startswith(PROGRAM) or code.co_filename == __file__
        ):
            entered[code.co_name] += 1

    def next_flow(_flow=None):
        # Counting starts inside the last warm-up callback and stops inside
        # the last measured one, so each flow's cycle is counted once.
        nonlocal started
        if started == WARM_UP:
            sys.setprofile(hook)
        elif started == WARM_UP + MEASURED:
            sys.setprofile(None)
            return
        started += 1
        net.transfer(src, dst, 1000.0, on_complete=next_flow)

    previous = sys.getprofile()
    try:
        next_flow()
        sim.run()
    finally:
        sys.setprofile(previous)
    assert net.completed_flows == WARM_UP + MEASURED
    return sum(entered.values()) / MEASURED, entered


@pytest.mark.parametrize("bandwidth", [math.inf, 1e6], ids=["unconstrained", "finite"])
def test_a_lone_flow_stays_inside_its_frame_budget(bandwidth):
    frames, entered = frames_per_flow(bandwidth, bandwidth / 2)
    assert frames <= BUDGET, sorted(entered.items(), key=lambda kv: -kv[1])
    assert frames_per_flow(bandwidth, bandwidth / 2)[0] == frames  # a count, not a timing
    # The entry points the layer trace wraps or books still run per flow:
    # transfer, the four kernel events and both settle events' series point.
    for name, calls in (("transfer", 1), ("next_flow", 1), ("schedule", 4), ("record", 2)):
        assert entered[name] == calls * MEASURED, name
