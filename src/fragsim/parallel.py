"""A runner's replications run in forked child processes.

`engine._replicate` hands its tasks here when `engine._workers` finds
them worth forking for, which it does only on Linux, where `os.fork` and
`os.sched_getaffinity` exist. `os.fork` hands each child the parent's
memory, closures included, so no function is pickled: only each child's
results, or its exception, travel back, through one pipe per child. The
parent runs no task itself. This module is imported only by a run that
forks, so a run that does not never compiles it.
"""

from __future__ import annotations

import os
import pickle
import signal


def replicate(run, groups: list, workers: int, topology) -> list:
    """[run(part) for part in parts], each part run by one of `workers`
    forked children: a contiguous run of `groups`, the task groups of
    `engine._replicate` in its order, so that a group's tasks share one
    process and one decoded stream. With fewer groups than children, the
    groups are split into single tasks, each decoding its own stream. The
    parts differ by at most one group. What each child would otherwise
    repeat is done here first: the topology's route table, and numpy's lazy
    `numpy.random` import."""
    import numpy.random  # noqa: F401 -- lazy in numpy 2: imported once here, not per child
    topology.routes  # noqa: B018 -- computed here once, not in every child
    if len(groups) < workers:
        groups = [[task] for group in groups for task in group]
    return _run_forked(run, [groups[len(groups) * k // workers:len(groups) * (k + 1) // workers]
                             for k in range(workers)])


def _child(run, part, w: int):
    """In a forked child: write to fd `w` the pickled (None, run(part)), or
    (exception, its traceback) if one is raised, and leave through
    os._exit, so that none of the parent's code runs on after it."""
    status = 1
    try:
        try:
            payload = pickle.dumps((None, run(part)))
        except BaseException as exc:
            import traceback
            tb = traceback.format_exc()
            try:
                payload = pickle.dumps((exc, tb))
            except Exception:  # an exception that pickle cannot carry
                payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
        with open(w, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _run_forked(run, parts: list) -> list:
    """[run(part) for part in parts], each run by a forked child of its own.
    A child's exception is raised here with its type and message, caused by
    its traceback. Every child is reaped before this returns or raises; if
    it raises, the children still running are killed first."""
    results, children = [], []  # (pid, read end of its pipe)
    try:
        for part in parts:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _child(run, part, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, r))
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                raise RuntimeError(f"worker {pid} ended without a result")
            exc, value = pickle.loads(payload)
            if exc is not None:
                raise exc from RuntimeError(f"in worker {pid}:\n{value}")
            results.append(value)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return results
