import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

# The slowest test takes about 3 s; a solver that stops making progress
# fails its test after this many seconds instead of hanging the suite.
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so hypothesis does not catch
    it and rerun the hanging example while shrinking."""


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
