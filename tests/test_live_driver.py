"""The live-traffic load driver: ingest, kill, rollback, replay, metrics."""

import pytest

from repro.control import ControlPlane, Controller, PolicyTable
from repro.errors import LiveHarnessError
from repro.live import ConstantRate, FlashCrowd, LatencyRecorder, LoadDriver, build_live_cell
from repro.live.driver import _DRAIN_GRACE
from repro.live.metrics import PHASES
from repro.recovery.line import LineRecovery
from repro.recovery.star import StarRecovery


def small_cell(seed=3):
    return build_live_cell(num_nodes=12, seed=seed)


def kill_run(seed=3, app_load=True, rate=None, **overrides):
    cell = small_cell(seed)
    kwargs = dict(
        duration=20.0,
        service_rate=2_500.0,
        checkpoint_at=(4.0,),
        kill_at=8.0,
        mechanism=StarRecovery(fanout_bits=2),
        bulk_state_mb=8.0,
        app_load=app_load,
    )
    kwargs.update(overrides)
    driver = LoadDriver(cell, rate or ConstantRate(300.0), **kwargs)
    return cell, driver.run()


class TestNoFailureRun:
    def test_serves_every_arrival_in_order(self):
        cell = small_cell()
        driver = LoadDriver(
            cell, ConstantRate(200.0), duration=10.0, service_rate=2_000.0
        )
        report = driver.run()
        assert report.arrived == 2_000
        assert report.served == 2_000
        assert report.replayed == 0
        assert report.killed_at is None
        assert report.recovery_s is None
        # Everything lands in "before" when nothing failed.
        assert report.phase("before").count == 2_000
        assert report.phases["during"] is None
        assert report.phases["after"] is None
        # Sub-tick latency: the pipeline keeps up with the offered load.
        assert report.phase("before").p99 < 0.2

    def test_driver_runs_once(self):
        cell = small_cell()
        driver = LoadDriver(cell, ConstantRate(100.0), duration=5.0)
        driver.run()
        with pytest.raises(LiveHarnessError):
            driver.run()


class TestKillAndRecovery:
    def test_recovery_report_populated(self):
        _, report = kill_run()
        assert report.killed_at == pytest.approx(8.0, abs=0.2)
        assert report.recovered_at is not None
        assert report.recovery_s is not None and report.recovery_s > 0
        assert report.replayed > 0
        assert report.replay_lag_peak > 0
        assert report.drain_s is not None and report.drain_s > 0
        assert report.catchup_events_per_s is not None
        # Catch-up runs faster than the offered 300 ev/s, else it never drains.
        assert report.catchup_events_per_s > 300.0
        for phase in ("before", "during", "after"):
            assert report.phase(phase).count > 0
        assert report.phase("during").p99 > report.phase("before").p99

    def test_exactly_once_state_equals_failure_free_run(self):
        quiet_cell, quiet = kill_run(kill_at=None, bulk_state_mb=0.0, checkpoint_at=())
        killed_cell, killed = kill_run()
        assert quiet.served == killed.served
        assert quiet_cell.cluster.state_checksums() == killed_cell.cluster.state_checksums()

    def test_deterministic_given_seed(self):
        _, a = kill_run()
        _, b = kill_run()
        assert a == b

    def test_app_flows_slow_recovery(self):
        rate = FlashCrowd(base=300.0, peak=1_200.0, at=6.0, ramp=2.0, hold=8.0, decay=4.0)
        _, loaded = kill_run(rate=rate, app_load=True, bulk_state_mb=16.0)
        _, quiet = kill_run(rate=rate, app_load=False, bulk_state_mb=16.0)
        assert loaded.recovery_s > quiet.recovery_s

    def test_mechanism_is_pluggable(self):
        _, star = kill_run(mechanism=StarRecovery(fanout_bits=2))
        _, line = kill_run(mechanism=LineRecovery(path_length=4))
        assert star.recovery_s != line.recovery_s

    def test_a_recovery_that_never_lands_keeps_the_window_open_to_the_end(self):
        # A controller with no rules notices nothing and starts nothing.
        cell = small_cell()
        controller = Controller(
            ControlPlane(cell), policy=PolicyTable(), verify_invariants=False
        )
        duration = 6.0
        report = LoadDriver(
            cell, ConstantRate(200.0), duration=duration, service_rate=2_000.0,
            checkpoint_at=(2.0,), kill_at=4.0, controller=controller,
        ).run()
        assert report.recovered_at is None
        assert report.recovery_s is None and report.drain_s is None
        end = cell.sim.now
        assert end == pytest.approx(duration + _DRAIN_GRACE, abs=0.1)
        assert report.recovery_window == (report.killed_at, end)
        # Nothing after the kill was served: it is all still queued. Every
        # arrival after it (they stop at ``duration``) falls in "during".
        _, queued = cell.sim.metrics.series("live.backlog").last()
        assert queued == report.arrived - report.served > 0
        assert report.phases["after"] is None
        recorder = LatencyRecorder()
        for arrival in (report.killed_at + 0.005, duration):
            recorder.record(arrival, end)
        split = recorder.split(report.recovery_window)
        assert [len(split[phase]) for phase in PHASES] == [0, 2, 0]


class TestValidation:
    def test_kill_requires_prior_checkpoint(self):
        cell = small_cell()
        with pytest.raises(LiveHarnessError):
            LoadDriver(
                cell,
                ConstantRate(100.0),
                duration=10.0,
                kill_at=5.0,
                checkpoint_at=(6.0,),
            )

    def test_kill_inside_duration(self):
        cell = small_cell()
        with pytest.raises(LiveHarnessError):
            LoadDriver(
                cell,
                ConstantRate(100.0),
                duration=10.0,
                kill_at=12.0,
                checkpoint_at=(4.0,),
            )

    def test_positive_knobs(self):
        cell = small_cell()
        with pytest.raises(LiveHarnessError):
            LoadDriver(cell, ConstantRate(100.0), duration=0.0)
        with pytest.raises(LiveHarnessError):
            LoadDriver(cell, ConstantRate(100.0), duration=5.0, service_rate=-1.0)
        with pytest.raises(LiveHarnessError):
            LoadDriver(cell, ConstantRate(100.0), duration=5.0, bulk_state_mb=-1.0)


class TestBarrierConsistency:
    def test_kill_defers_past_inflight_save(self):
        # Checkpoint scheduled immediately before the kill: the save round
        # is still landing replicas when kill_at arrives, so the driver
        # must wait for the barrier before failing the owner.
        _, report = kill_run(checkpoint_at=(4.0, 7.9), kill_at=8.0)
        assert report.killed_at is not None
        assert report.killed_at >= 8.0
        assert report.recovered_at is not None

    def test_multiple_checkpoints_roll_back_to_last_barrier(self):
        quiet_cell, _ = kill_run(kill_at=None, bulk_state_mb=0.0, checkpoint_at=())
        killed_cell, report = kill_run(checkpoint_at=(2.0, 4.0, 6.0))
        assert quiet_cell.cluster.state_checksums() == killed_cell.cluster.state_checksums()
        # Later barrier => shorter replay gap than the single-checkpoint run.
        _, single = kill_run(checkpoint_at=(4.0,))
        assert report.replayed < single.replayed
