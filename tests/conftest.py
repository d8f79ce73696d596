"""A time bound on every test, so that a hang fails with a traceback."""

import signal
import time
import traceback
from contextlib import contextmanager

import pytest

#: Seconds any one test may run: more than ten times the slowest test (about
#: 26 s), so that only a hang reaches it.
TEST_SECONDS = 300

#: Seconds between alarms once a limit has run out: an exception raised
#: where Python ignores it (in a gc callback) must not end the limit.
_AGAIN = 0.1


class _Expired(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError, naming the lines that were running, once the
    block has run for seconds. The error holds none of their frames, so
    what they built is freed: a walk of a cyclic term builds a lot. An
    enclosing limit is armed again with the time it has left."""

    def expire(signum, frame):
        raise _Expired("".join(traceback.format_stack(frame, limit=8)))

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds, _AGAIN)
    start = time.monotonic()
    where = None
    try:
        yield
    except _Expired as e:
        where = str(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 0.001), _AGAIN)
    if where is not None:
        raise TimeoutError(f"ran over its {seconds} s bound in\n{where}")


@pytest.fixture(autouse=True)
def time_bound():
    with time_limit(TEST_SECONDS):
        yield
