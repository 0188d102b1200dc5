import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which a child process is still running or unreaped:
    `write_trace` forks, and must reap its child on success and on failure."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"a child process was left behind ({'running' if pid == 0 else f'pid {pid} unreaped'})")
