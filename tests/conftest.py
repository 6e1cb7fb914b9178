"""Checks that every test leaves the process as it found it."""

import sys
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_run_state():
    """A pipeline run leaves the GIL switch interval alone and stops its worker."""
    switch = sys.getswitchinterval()
    yield
    after = sys.getswitchinterval()
    sys.setswitchinterval(switch)  # one leak should not fail every later test
    assert after == switch
    assert [t.name for t in threading.enumerate() if t.name == "distill-worker"] == []
