import signal

import pytest

# seconds a test that uses time_limit may run before it fails
TIME_LIMIT_S = 10


@pytest.fixture
def time_limit():
    """Fail the test after TIME_LIMIT_S seconds instead of letting it hang."""
    def expire(signum, frame):
        pytest.fail(f"still running after {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
