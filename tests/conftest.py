import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child {pid} unreaped (wait status {status})")
    pytest.fail("the test left a child process running")
