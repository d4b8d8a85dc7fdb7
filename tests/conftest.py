import contextlib
import os
import signal

import pytest


def pytest_configure(config):
    """`pythonpath` in pyproject.toml puts ./src on this process's path;
    tests that start `python -m k3fm` need it in PYTHONPATH as well."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def time_budget():
    """`with time_budget(seconds):` fails the test once its body has run
    that long.  SIGALRM interrupts the body at the deadline, so a path that
    would take hours fails in seconds instead of hanging the suite."""

    @contextlib.contextmanager
    def budget(seconds):
        def expire(signum, frame):
            pytest.fail(f"over its {seconds} s budget", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return budget
