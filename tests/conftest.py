from concurrent.futures import Executor, Future

import pytest
from hypothesis import settings

from zeroset import cli, crofton


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the line-counting process pool by an in-process stand-in.

    The stand-in runs every task inline and starts no process; the returned
    dict counts pools opened, pools shut down and tasks run.  Two CPUs are
    made available, so `--workers 2` keeps its value on a 1-CPU machine too.
    """
    log = {"opened": 0, "shut": 0, "tasks": 0}

    class InlinePool(Executor):
        def __init__(self, max_workers=None, **kwargs):
            log["opened"] += 1

        def submit(self, fn, /, *args, **kwargs):
            log["tasks"] += 1
            future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            log["shut"] += 1

    monkeypatch.setattr(crofton, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return log


# Property tests draw the same examples on every run and have no deadline,
# so a run is reproducible and timing noise cannot fail it.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
