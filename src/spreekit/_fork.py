"""Contiguous ranges of work split across forked processes.

:func:`split` cuts a count of units into at most one even range per
usable CPU, each of at least the caller's fewest units.
:func:`forked` runs a function on each range but the first in a child
started with ``os.fork``; the calling process works on the first range
itself.  A child pickles every object the function gives,
then sends them over a pipe, where the caller unpickles them one at a
time; or it sends its error, which is also what an object it cannot pickle
gives.  It leaves by ``os._exit``: it never returns into its caller's
stack, and never flushes a buffer it inherited, such as a half-written
output file or stdout.  The caller reads the children's results in range
order after its own range, so the lowest range that raised raises, with
its type, message and attributes.  Every child is killed if still running
and reaped on every path: a return, an error, an interrupt, or a generator
closed before its end.

Four callers split their work this way, each naming its unit and its
fewest units a process: ``validate``'s rounds
(:func:`spreekit.simulation.run_simulation`), the rows of a CSV output
(:func:`spreekit.io.csv_text`), the byte ranges of a large households
or pixels file (:func:`spreekit.io.load_households`,
:func:`spreekit.io.load_pixels`), and ``aggregate``'s areas
(:func:`spreekit.geo.aggregate_pixels`).

The split rule, for every one of them, library call or command: one range
per CPU this process may run on (``os.sched_getaffinity``), fewer where a
range would have less than the caller's fewest units, and one where the
CPUs cannot be read, or while another Python thread is alive (started
through ``threading`` or ``_thread``), whose locks a child would hold for
good.  A thread that a C extension starts unseen by Python is not counted:
the system's count of threads would also see numpy's OpenBLAS pool, which
OpenBLAS stops itself at a fork, and so would keep every call from
splitting.  One range forks nothing; so a process pinned to one
CPU (``taskset -c 0``, ``os.sched_setaffinity``) works on every unit
itself.  No output byte depends on the split.
"""

from __future__ import annotations

import _thread
import contextlib
import os
import pickle
import signal
import threading
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence


def split(n: int, fewest: int) -> list[int]:
    """Where each range of units ``0`` to ``n - 1`` starts, then ``n``, by
    the split rule above with at least ``fewest`` units a range; the later
    ranges take any extra unit."""
    alone = threading.active_count() == 1 and _thread._count() == 0
    may_fork = alone and hasattr(os, "sched_getaffinity")
    processes = len(os.sched_getaffinity(0)) if may_fork else 1
    ranges = max(1, min(processes, n // fewest))
    return [n * k // ranges for k in range(ranges + 1)]


def _child(
    work: Callable[[int, int], Iterable[Any]], lo: int, hi: int, out, inherited: list
) -> NoReturn:
    """In a forked child: write to ``out`` the count of objects
    ``work(lo, hi)`` gave, then each, once all are pickled; or None, then
    the error it raised as type, arguments and attributes (so that an
    exception whose constructor takes other arguments arrives whole)."""
    status = 1
    try:
        for end in inherited:
            end.close()
        try:
            pieces = [pickle.dumps(piece) for piece in work(lo, hi)]
            head = len(pieces)
        except Exception as e:
            try:
                error = pickle.dumps((type(e), e.args, vars(e)))
            except Exception:
                error = pickle.dumps((RuntimeError, (f"{type(e).__name__}: {e}",), {}))
            head, pieces = None, [error]
        with out:
            out.write(pickle.dumps(head))
            for piece in pieces:
                out.write(piece)
        status = 0
    finally:
        os._exit(status)


def _unpickled(stream, lost: str) -> Any:
    # A child that ended early leaves no pickle, or a cut one.
    try:
        return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(lost) from None


def _rebuilt(cls: type[BaseException], args: tuple, attributes: dict) -> BaseException:
    exc = cls.__new__(cls, *args)
    # Sets what only a constructor sets, such as a UnicodeError's fields;
    # one that takes other arguments keeps the arguments alone.
    with contextlib.suppress(Exception):
        exc.__init__(*args)
    exc.args = args
    vars(exc).update(attributes)
    return exc


@contextlib.contextmanager
def forked(
    work: Callable[[int, int], Iterable[Any]], bounds: Sequence[int], what: str
) -> Iterator[Iterator[Iterator[Any]]]:
    """Fork a child for each range ``bounds[k]`` to ``bounds[k + 1] - 1``
    with ``k`` from 1 and give, in range order, an iterator over the
    objects ``work`` gave there, unpickled one at a time; the caller works
    on the first range itself.  One range forks nothing.  A child that
    raised raises when its objects are reached; one that ended without
    them all is ``ChildProcessError`` naming its range as ``what``.  Every
    child is killed and reaped on leaving the block."""
    children = []  # (pid, read end) per child, in range order

    def results() -> Iterator[Iterator[Any]]:
        for (_, stream), lo, hi in zip(children, bounds[1:-1], bounds[2:]):
            lost = f"{what} {lo} to {hi - 1} ended without a result"
            count = _unpickled(stream, lost)
            if count is None:
                raise _rebuilt(*_unpickled(stream, lost))
            yield (_unpickled(stream, lost) for _ in range(count))

    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            stream, out = open(read_end, "rb"), open(write_end, "wb")
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, lo, hi, out, [stream, *(c[1] for c in children)])
            except BaseException:
                stream.close()
                raise
            finally:
                out.close()
            children.append((pid, stream))
        yield results()
    finally:
        # A child that has sent its result has nothing left to do; one
        # still running is not needed once the caller has left.  One that
        # has ended is not signalled: where the caller ignores SIGCHLD the
        # system has reaped it already, and its pid may be another's.
        for pid, stream in children:
            stream.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
