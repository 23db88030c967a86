"""The per-test time bound of ``conftest.py``."""

import signal
import time

import pytest


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.time_bound(0.2)
def test_bound_fails_a_test_that_runs_past_it():
    """A test that would sleep 5 s under a 0.2 s bound is failed at 0.2 s,
    with a message naming it."""
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="test_bound_fails_a_test_that_runs_past_it ran past its 0.2 s"):
        time.sleep(5.0)
    assert time.perf_counter() - start < 2.0
