"""parallel_map's forked workers: order, errors, CPU cap and clean-up.

Each test here starts at most 3 processes."""

import os
import subprocess
import sys
import textwrap

import pytest

from fsf import parallel
from fsf.parallel import parallel_map

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setenv("FSF_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_keep_item_order_and_caller_computes_share_0(two_workers):
    out = parallel_map(lambda x: (x, os.getpid()), range(7))
    assert [x for x, _ in out] == list(range(7))
    assert {pid for _, pid in out[0::2]} == {os.getpid()}
    assert len({pid for _, pid in out[1::2]} - {os.getpid()}) == 1


@pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 5)])
def test_lowest_failing_index_raises(two_workers, failing):
    def fn(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {min(failing)}$"):
        parallel_map(fn, range(8))


def test_worker_that_dies_names_its_exit_status(two_workers):
    def fn(x):
        if x == 1:  # the worker's share
            os._exit(5)
        return x

    with pytest.raises(RuntimeError, match=r"exit statuses \[5\]"):
        parallel_map(fn, range(4))


def test_worker_count_capped_by_usable_cpus(monkeypatch):
    def no_fork():
        raise AssertionError("forked although one CPU is usable")

    monkeypatch.setenv("FSF_THREADS", "1000")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]


def test_no_fork_runs_serially(monkeypatch):
    monkeypatch.setenv("FSF_THREADS", "2")
    monkeypatch.delattr(os, "fork")
    assert parallel_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3


def test_fork_after_multithreaded_blas():
    script = textwrap.dedent("""
        import numpy as np
        from fsf.parallel import parallel_map

        a = np.random.default_rng(0).standard_normal((600, 600))
        b = a @ a  # BLAS starts its threads here, before the fork
        diag = parallel_map(lambda k: float((a @ a)[k, k]), range(4))
        assert np.allclose(diag, np.diag(b)[:4]), diag
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", FSF_THREADS="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
