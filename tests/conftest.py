"""Fixtures for every test under ``tests/``."""

import signal

import pytest


@pytest.fixture(autouse=True)
def time_limit():
    """A test that runs past 60 s fails instead of stalling the suite: a run
    forks helper processes on any machine with two or more CPUs, and a
    helper that never answers would otherwise block its parent for good."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
