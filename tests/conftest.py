"""Fixtures shared by the test modules."""

import os

import pytest

from hdcp import cli


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, at two workers.

    After the test every one of them must have been reaped.
    """
    monkeypatch.setattr(cli, "_WORKERS", 2)
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
