"""A forked map: `run_forked` runs the first part of a list in this process
and each other part in a forked child of its own.

`os.fork` hands each child the parent's memory, closures included, so no
function is pickled: only each child's result, or its exception, travels
back, through one pipe per child. Every child is forked before the parent
runs its own part, so each starts from the parent's memory as it was before
any part ran, and a run of n parts forks n - 1 children and keeps the
parent at work beside them rather than idle. The parent reaps every child
before `run_forked` returns or raises. This module is imported only by a
run that forks, so a run that does not never compiles it.
"""

from __future__ import annotations

import os
import pickle


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


def run_forked(run, parts: list) -> tuple[list, int]:
    """([run(part) for part in parts], the largest `ru_maxrss` of the
    children): a forked child runs each part after the first, and this
    process runs `parts[0]` once they have all been started. The peak is
    read from `os.wait4` as each child is reaped, so it covers these
    children only (KiB on Linux); the parent's own part shows in the
    parent's own peak. A child's exception is raised here with its type and
    message, caused by its traceback, and one from `parts[0]` is raised as
    it is. Every child is reaped before this returns or raises; if it
    raises, the children still running are killed first."""
    children, peak = [], 0  # children: (pid, read end of its pipe)
    try:
        for part in parts[1:]:
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
        results = [run(parts[0])]
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
        import signal  # only a run that fails needs it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            peak = max(peak, os.wait4(pid, 0)[2].ru_maxrss)
    return results, peak
