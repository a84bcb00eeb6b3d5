"""Shared fixtures.

World generation is the expensive part, so worlds are session-scoped:
``tiny_world`` for cheap structural checks and ``small_world`` for
integration tests that run the measurement pipeline.  Tests must not
mutate world state destructively; tests that advance the shared clock
should only ever advance it (the clock is monotonic anyway).
"""

from __future__ import annotations

import faulthandler
import signal
import threading

import pytest

from repro.worldgen import WorldConfig, build_world

#: Wall seconds each test phase (setup, call, teardown) may take before
#: it fails.  The fork-based suites (sharded scans, worker crashes,
#: shared-memory IPC) are the ones that can hang — a worker parked on a
#: lock its killed sibling held — and a hang must fail that test instead
#: of blocking ``pytest -x`` forever.  No test phase comes near it.
TEST_DEADLINE_SECONDS = 120.0


class PhaseDeadlineExceeded(Exception):
    """A test phase ran past :data:`TEST_DEADLINE_SECONDS`."""


def _deadline_hit(signum, frame):
    faulthandler.dump_traceback(all_threads=True)
    raise PhaseDeadlineExceeded(
        f"test phase exceeded the {TEST_DEADLINE_SECONDS:g} s deadline "
        "(thread stacks dumped to stderr)"
    )


def _under_deadline():
    armed = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not armed:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _deadline_hit)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _under_deadline()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _under_deadline()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _under_deadline()


@pytest.fixture(scope="session")
def tiny_world():
    """A scale-0.004 world (sub-second build)."""
    return build_world(WorldConfig.tiny())


@pytest.fixture(scope="session")
def small_world():
    """A scale-0.02 world for pipeline integration tests."""
    return build_world(WorldConfig.small())


@pytest.fixture(scope="session")
def small_world_scans(small_world):
    """The four monthly ECS scans (default + fallback) on small_world."""
    from repro.scan import EcsScanner
    from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC

    world = small_world
    scanner = EcsScanner(world.route53, world.routing, world.clock)
    monthly = []
    for year, month in world.scan_months():
        world.clock.advance_to(world.scan_start(year, month))
        default = scanner.scan(RELAY_DOMAIN_QUIC)
        fallback = (
            scanner.scan(RELAY_DOMAIN_FALLBACK) if (year, month) != (2022, 1) else None
        )
        monthly.append((year, month, default, fallback))
    return monthly
