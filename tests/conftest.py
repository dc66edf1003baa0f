"""Suite-wide guards."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a non-daemon thread running: it would keep
    the interpreter alive at exit and run on into later tests.  A thread
    already on its way out gets a second to finish."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before and not t.daemon]
    for thread in leaked:
        thread.join(1.0)
    alive = sorted(t.name for t in leaked if t.is_alive())
    if alive:
        pytest.fail(f"non-daemon thread(s) outlived the test: {alive}")
