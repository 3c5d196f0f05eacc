"""What a fresh interpreter loads, and when (structural: no timings).

``import repro`` is an export table, and numpy is imported when the first
``FlowTable`` attaches (``repro.sim.flowvec.attach``), so a process pays
at start-up for what it is about to use. Each case runs in its own
interpreter and reads ``sys.modules``.
"""

import pytest

from repro.sim import flowvec
from tests.test_package_exports import fresh_interpreter

LOADED = (
    "import sys\n"
    "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules),\n"
    "      'numpy' in sys.modules)\n"
)


def loaded_after(code: str):
    """``(repro modules loaded, numpy loaded)`` once ``code`` has run."""
    count, numpy_loaded = fresh_interpreter(code + LOADED).split()
    return int(count), numpy_loaded == "True"


def test_import_repro_loads_the_table_and_nothing_else():
    count, numpy_loaded = loaded_after("import repro\n")
    assert count <= 3 and not numpy_loaded


def test_one_class_costs_the_modules_it_needs():
    count, numpy_loaded = loaded_after("from repro.util import NodeId\n")
    assert count <= 5 and not numpy_loaded


def test_the_facade_loads_no_control_module():
    out = fresh_interpreter(
        "import sys\n"
        "from repro import SR3\n"
        "print([m for m in sorted(sys.modules) if m.startswith('repro.control')])\n"
    )
    assert out.strip() == "[]"


def test_the_campaign_runner_loads_no_control_module():
    out = fresh_interpreter(
        "import sys\n"
        "from repro.chaos import run_campaign\n"
        "print([m for m in sorted(sys.modules) if m.startswith('repro.control')])\n"
    )
    assert out.strip() == "[]"


def test_a_chaos_cell_never_loads_numpy():
    count, numpy_loaded = loaded_after(
        "from repro.chaos import SCENARIOS, run_campaign\n"
        "report = run_campaign(scenarios=[SCENARIOS['crash-wave'].with_seed(0)], mechanisms=['star'])\n"
        "assert [o.status for o in report.outcomes] == ['survived'], report.outcomes\n"
    )
    assert count > 3 and not numpy_loaded


def test_a_live_flash_cell_never_loads_numpy():
    # The smoke size of benchmarks/perf's LiveFlash: a tenth of the rates.
    _, numpy_loaded = loaded_after(
        "from repro.live import FlashCrowd, LoadDriver, build_live_cell\n"
        "from repro.recovery import StarRecovery\n"
        "rate = FlashCrowd(base=30.0, peak=150.0, at=8.0, ramp=2.0, hold=10.0, decay=5.0)\n"
        "cell = build_live_cell(num_nodes=16, seed=0, link_mbit=200.0)\n"
        "report = LoadDriver(\n"
        "    cell, rate, duration=30.0, service_rate=300.0, checkpoint_at=(5.0,),\n"
        "    kill_at=10.0, mechanism=StarRecovery(fanout_bits=2), bulk_state_mb=32.0,\n"
        "    app_load=True,\n"
        ").run()\n"
        "assert report.recovery_s is not None and report.drain_s is not None\n"
    )
    assert not numpy_loaded


@pytest.mark.skipif(not flowvec.HAVE_NUMPY, reason="numpy not installed")
def test_numpy_loads_when_the_first_table_attaches():
    out = fresh_interpreter(
        "import sys\n"
        "from repro.sim import Network, Simulator, flowvec\n"
        "seen = [flowvec.HAVE_NUMPY]\n"
        "sim = Simulator()\n"
        "net = Network(sim)\n"
        "a = net.add_host('a', up_bw=100.0, latency=0.0)\n"
        "b = net.add_host('b', down_bw=100.0, latency=0.0)\n"
        "def start(flows):\n"
        "    for _ in range(flows):\n"
        "        net.transfer(a, b, 1e6)\n"
        "def look():\n"
        "    seen.append(('numpy' in sys.modules, net._vec is not None))\n"
        "start(flowvec.VECTOR_ACTIVATE - 1)\n"
        "sim.schedule(1.0, start, 1)  # its admission settles ACTIVATE - 1 live flows\n"
        "sim.schedule(1.5, look)\n"
        "sim.schedule(2.0, start, 1)  # its admission settles ACTIVATE: the table attaches\n"
        "sim.schedule(2.5, look)\n"
        "sim.run(until=3.0)\n"
        "print(seen)\n"
    )
    assert out.strip() == "[True, (False, False), (True, True)]"
