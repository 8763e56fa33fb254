"""Optional per-image parallelism in forked workers, capped by FSF_THREADS and the usable CPUs."""

from __future__ import annotations

import os
import pickle

from .errors import ConfigError


def worker_count() -> int:
    """Worker cap from FSF_THREADS (default 1 = serial); must be a positive integer."""
    raw = os.environ.get("FSF_THREADS", "1")
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ConfigError(f"FSF_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _share(fn, items, k: int, workers: int):
    """fn over ``items[k::workers]`` to the first failure: (results, (index, exception) or None)."""
    results = []
    for i in range(k, len(items), workers):
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def parallel_map(fn, items):
    """Apply fn to each item; the results, and the lowest failing item's exception, are a loop's.

    With W = min(FSF_THREADS, usable CPUs, len(items)) > 1 and ``os.fork``,
    forked workers compute the shares ``items[k::W]``, k = 1..W-1, while the
    caller computes share 0; forking lets fn be a closure over the caller's
    state. Items may write files; no other side effect reaches the caller.
    Results and exceptions must pickle.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(worker_count(), cpus or 1, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(it) for it in items]
    children, lost = [], False  # children: (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:  # worker: never returns to the caller
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as out:  # the share is computed before any write
                        pickle.dump(_share(fn, items, k, workers), out, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares = [_share(fn, items, 0, workers)] + [pickle.load(fh) for _, fh in children]
    except (EOFError, pickle.UnpicklingError):  # a worker ended before sending its share
        lost = True
    finally:
        for _, fh in children:
            fh.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if lost:
        raise RuntimeError(f"a parallel_map worker sent no results; exit statuses {statuses}")
    if failures := [failure for _, failure in shares if failure is not None]:
        raise min(failures, key=lambda f: f[0])[1]
    return [shares[i % workers][0][i // workers] for i in range(len(items))]
