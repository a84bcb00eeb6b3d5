"""Shard-crash recovery and executor exception-safety.

A worker process dying mid-task breaks the whole fork pool; the
executor must respawn it, re-run only the lost shards, and merge the
exact sequential result.  A shard that *keeps* crashing must surface as
:class:`~repro.errors.WorkerCrashed` — with the pool torn down, never
leaked — and an ordinary worker exception must propagate promptly.
"""

import os
import signal
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.errors import WorkerCrashed
from repro.faults import FaultPlan, FaultProfile
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan import sharding
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.scan.sharding import ShardedCampaignExecutor
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world

pytestmark = pytest.mark.skipif(
    not ShardedCampaignExecutor.supported(),
    reason="sharded execution requires the fork start method",
)

SEED = 2022

#: Bound on waiting for a pool to notice a SIGKILLed worker.
BROKEN_DEADLINE_SECONDS = 10.0


def _executor(plan, workers=4, telemetry=None):
    world = build_world(WorldConfig.tiny(seed=SEED))
    settings = EcsScanSettings(
        workers=workers, campaign_seed=SEED, fault_plan=plan
    )
    scanner = EcsScanner(
        world.route53, world.routing, world.clock, settings, telemetry=telemetry
    )
    return ShardedCampaignExecutor(scanner, workers)


def _boom(task):
    raise RuntimeError(f"worker bug on shard {task.index}")


class TestCrashRecovery:
    def test_crash_drill_recovers_and_counts_reruns(self):
        telemetry = Telemetry()
        plan = FaultPlan("hostile", seed=SEED)
        with _executor(plan, telemetry=telemetry) as executor:
            result = executor.scan(RELAY_DOMAIN_QUIC)
        assert result.queries_sent > 0
        reruns = [
            entry
            for entry in telemetry.snapshot()["metrics"]["counters"]
            if entry["name"] == "shards.rerun"
        ]
        assert reruns and reruns[0]["value"] >= 1

    def test_unrecoverable_crash_raises_worker_crashed(self):
        profile = FaultProfile(
            name="always-crash",
            crash_shards=(0, 1, 2, 3),
            crash_attempts=10**6,
        )
        executor = _executor(FaultPlan(profile, seed=SEED))
        with executor:
            with pytest.raises(WorkerCrashed):
                executor.scan(RELAY_DOMAIN_QUIC)
        assert executor._pool is None  # torn down, not leaked

    def test_worker_exception_propagates_and_closes_pool(self, monkeypatch):
        monkeypatch.setattr(sharding, "_run_shard", _boom)
        executor = _executor(FaultPlan("none", seed=SEED))
        with executor:
            with pytest.raises(RuntimeError, match="worker bug"):
                executor.scan(RELAY_DOMAIN_QUIC)
        assert executor._pool is None


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        executor = _executor(None)
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_close_after_killed_worker_does_not_hang(self):
        executor = _executor(None)
        pool = executor._ensure_pool()
        # Force the pool to actually fork its workers before the kill.
        pool.submit(os.getpid).result()
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        executor.close()
        assert executor._pool is None

    def test_close_kills_workers_that_ignore_sigterm(self):
        # Forked workers inherit the parent's signal dispositions (the
        # graceful-drain handler catches SIGTERM).  After a sibling is
        # SIGKILLed the survivor never exits on its own; close() must
        # kill it rather than join it forever.
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            executor = _executor(None)
            pool = executor._ensure_pool()
            pool.submit(os.getpid).result()
            workers = list(pool._processes.values())
        finally:
            signal.signal(signal.SIGTERM, previous)
        os.kill(workers[0].pid, signal.SIGKILL)
        executor.close()
        assert executor._pool is None
        assert not any(worker.is_alive() for worker in workers)

    def test_submit_to_a_broken_pool_fails_the_shard(self):
        executor = _executor(None)
        try:
            pool = executor._ensure_pool()
            pool.submit(os.getpid).result()
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            # Until the pool's manager thread notices the dead worker, a
            # surviving worker may still take the next submit; wait until
            # the pool reports itself broken.
            victim.join(BROKEN_DEADLINE_SECONDS)
            deadline = time.monotonic() + BROKEN_DEADLINE_SECONDS
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken, "pool never noticed the killed worker"
            with pytest.raises(BrokenExecutor):
                pool.submit(os.getpid).result()
            future = sharding._submit(pool, None)
            with pytest.raises(BrokenExecutor):
                future.result()
        finally:
            executor.close()

    def test_context_manager_always_closes(self):
        executor = _executor(None)
        with pytest.raises(ValueError):
            with executor:
                executor._ensure_pool()
                raise ValueError("scan went sideways")
        assert executor._pool is None
