"""Tier-1 resource fence: a test leaves no process and no fd behind.

Every test must end with no child process it did not start with and
no more open file descriptors than it started with. Both are counts
read from ``/proc`` around the test — never a timeout — so a fleet a
test forgets to close, or pipes only a garbage collection would free,
fail the test that left them.
"""

import os

import pytest


def _children() -> set[int]:
    """Pids whose parent is this process (``/proc/<pid>/stat``)."""
    me = str(os.getpid()).encode()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:  # exited meanwhile
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens.
        if stat.rsplit(b")", 1)[1].split()[1] == me:
            found.add(int(entry))
    return found


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def resource_fence():
    children, fds = _children(), _open_fds()
    yield
    left = _children() - children
    assert not left, f"the test left child processes {sorted(left)}"
    assert _open_fds() <= fds, (
        f"the test left {_open_fds() - fds} more fds open than it found")
