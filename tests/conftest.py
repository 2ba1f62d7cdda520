"""A per-test time limit from the standard library.

``faulthandler_timeout`` in pyproject.toml prints the stacks of a test
that runs too long but lets it go on, and pytest-timeout is not a
dependency.  So each test call runs under ``signal.alarm``: past
TEST_LIMIT_S seconds the test fails and the run moves on.  The plugin is
registered for the whole session, so it covers the doctests of the
package as well as this directory.  Where SIGALRM does not exist
(Windows) it is not registered and nothing changes.
"""

import signal

import pytest

# the slowest test takes a few seconds; a hung one never returns
TEST_LIMIT_S = 300


class _Alarm:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        def expire(signum, frame):
            pytest.fail(f"{item.nodeid} ran past the {TEST_LIMIT_S} s limit")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(TEST_LIMIT_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def pytest_configure(config):
    if hasattr(signal, "SIGALRM"):
        config.pluginmanager.register(_Alarm(), "schubsmooth-test-limit")
