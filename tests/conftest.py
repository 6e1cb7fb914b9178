"""Checks that every test leaves the process as it found it."""

import sys
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_run_state():
    """A test leaves the GIL switch interval alone and no thread behind."""
    switch = sys.getswitchinterval()
    threads = set(threading.enumerate())
    yield
    after = sys.getswitchinterval()
    sys.setswitchinterval(switch)  # one leak should not fail every later test
    assert after == switch
    assert set(threading.enumerate()) == threads
