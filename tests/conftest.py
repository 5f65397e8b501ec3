import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def within():
    """within(seconds, call, *args): call(*args), failing the test once it has run for seconds.

    A wall-clock timer (SIGALRM) interrupts the call, so a loop that never
    ends fails at the bound instead of hanging the run.  The failure is
    pytest's own outcome, which no ``except Exception`` and no
    ``pytest.raises(AssertionError)`` in the call's path catches.
    """

    def run(seconds: float, call, *args, **kwargs):
        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return call(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return run
