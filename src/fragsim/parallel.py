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

from .engine import Simulation


def replicate(topology, paths, profiles, replications: int, drive, workers: int) -> list:
    """`engine._replicate`'s (results over replications, summed clamp
    events) per profile, its tasks run by `workers` forked children. What
    each child would otherwise repeat is done here first: the topology's
    route table, and numpy's lazy `numpy.random` import."""
    import numpy.random  # noqa: F401 -- lazy in numpy 2: imported once here, not per child
    topology.routes  # noqa: B018 -- computed here once, not in every child
    tasks = len(profiles) * replications

    def run(i):
        sim = Simulation(topology, profiles[i // replications], paths, i % replications)
        return drive(sim), sim.clamp_events

    runs = _run_forked(run, tasks, workers)
    return [([res for res, _ in rs], sum(c for _, c in rs))
            for rs in (runs[i:i + replications] for i in range(0, tasks, replications))]


def _child(run, tasks, w: int):
    """In a forked child: write to fd `w` the pickled (None, [run(i) for i
    in tasks]), or (exception, its traceback) if one is raised, and leave
    through os._exit, so that none of the parent's code runs on after it."""
    status = 1
    try:
        try:
            payload = pickle.dumps((None, [run(i) for i in tasks]))
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


def _run_forked(run, tasks: int, workers: int) -> list:
    """[run(i) for i in range(tasks)], run by `workers` forked children
    that take the tasks round-robin. A child's exception is raised here
    with its type and message, caused by its traceback. Every child is
    reaped before this returns or raises; if it raises, the children still
    running are killed first."""
    results, children = [None] * tasks, []  # (pid, read end of its pipe)
    try:
        for k in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _child(run, range(k, tasks, workers), w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, r))
        for k, (pid, r) in enumerate(children):
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                raise RuntimeError(f"worker {pid} ended without a result")
            exc, value = pickle.loads(payload)
            if exc is not None:
                raise exc from RuntimeError(f"in worker {pid}:\n{value}")
            results[k::workers] = value
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return results
