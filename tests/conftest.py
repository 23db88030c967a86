import signal
import sys

import pytest
from hypothesis import Phase, settings

# Every Hypothesis phase but explain, which only annotates a failure already
# found: on a strategy that raises while drawing, it grew one run past 1.8 GB
# before the time bound fired, while the failure it reports is the same
# without it.
settings.register_profile("qscale", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("qscale")

# No test may run longer than this, so that a test that hangs ends as a
# failure naming it instead of stalling the run; the slowest test
# (acceptance criterion 5) takes well under a minute.
TIME_BOUND_S = 300.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_bound(seconds): fail the test once it has run this long"
    )


@pytest.fixture(autouse=True)
def time_bound(request):
    """Fail the test once it has run ``TIME_BOUND_S`` seconds, or the
    seconds of its ``time_bound`` marker, through SIGALRM.  Where there is
    no SIGALRM, tests run unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = request.node.get_closest_marker("time_bound")
    seconds = marker.args[0] if marker else TIME_BOUND_S

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its {seconds} s time bound", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
