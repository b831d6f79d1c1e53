import os

import pytest

_FDS = "/proc/self/fd"


def _open_fds():
    return len(os.listdir(_FDS)) if os.path.isdir(_FDS) else None


@pytest.fixture(autouse=True)
def no_leaked_processes_or_fds():
    """Fail a test that leaves a child process running or unreaped, or that
    leaves more file descriptors open than it started with (where the
    platform lists them in /proc/self/fd)."""
    before = _open_fds()
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        if pid:
            pytest.fail(f"the test left child {pid} unreaped (wait status {status})")
        pytest.fail("the test left a child process running")
    after = _open_fds()
    if before is not None and after > before:
        pytest.fail(f"the test left {after - before} more file descriptors open "
                    f"({before} before, {after} after)")
