"""Contiguous ranges of work split across forked processes.

:func:`forked` runs a function on each range but the first in a child
started with ``os.fork``; the calling process works on the first range
itself.  A child makes all the pieces of bytes the function gives, then
sends them over a pipe, where the caller reads them one at a time; or it
sends its error.  It leaves by ``os._exit``: it never returns into its
caller's stack, and never flushes a buffer it inherited, such as a
half-written output file or stdout.  The caller reads the children's
results in range order after its own range, so the lowest range that
raised raises, with its type, message and attributes.  Every child is
killed if still running and reaped on every path: a return, an error, an
interrupt, or a generator closed before its end.

Nothing here forks unless asked.  A library must not fork behind a caller
that may hold threads or locks, so every library function that splits its
work defaults to one process; the command line asks for one process per
CPU it may run on (:func:`usable_cpus`), at a point where it holds no
thread but its own.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import Callable, Iterable, Iterator, NoReturn, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on; one where they cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _child(
    work: Callable[[int, int], Iterable[bytes]], lo: int, hi: int, out, inherited: list
) -> NoReturn:
    """In a forked child: write to ``out`` a flag and a count, then each
    piece ``work(lo, hi)`` gave, after its length, once all are made; or
    the error it raised as type, arguments and attributes (so that an
    exception whose constructor takes other arguments arrives whole)."""
    status = 1
    try:
        for end in inherited:
            end.close()
        try:
            ok, pieces = True, list(work(lo, hi))
        except Exception as e:
            try:
                error = pickle.dumps((type(e), e.args, vars(e)))
            except Exception:
                error = pickle.dumps((RuntimeError, (f"{type(e).__name__}: {e}",), {}))
            ok, pieces = False, [error]
        with out:
            out.write(bytes([ok]) + len(pieces).to_bytes(8, "little"))
            for piece in pieces:
                out.write(len(piece).to_bytes(8, "little"))
                out.write(piece)
        status = 0
    finally:
        os._exit(status)


def _read(stream, size: int, lost: str) -> bytes:
    # A buffered pipe reads until the buffer is full or the child has gone.
    data = stream.read(size)
    if len(data) < size:
        raise ChildProcessError(lost)
    return data


def _pieces(stream, count: int, lost: str) -> Iterator[bytes]:
    for _ in range(count):
        yield _read(stream, int.from_bytes(_read(stream, 8, lost), "little"), lost)


def _rebuilt(error: bytes) -> BaseException:
    cls, args, attributes = pickle.loads(error)
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
    work: Callable[[int, int], Iterable[bytes]], bounds: Sequence[int], what: str
) -> Iterator[Iterator[Iterator[bytes]]]:
    """Fork a child for each range ``bounds[k]`` to ``bounds[k + 1] - 1``
    with ``k`` from 1 and give, in range order, an iterator over the pieces
    ``work`` gave there, read one at a time; the caller works on the first
    range itself.  One range forks nothing.  A child that raised raises
    when its pieces are reached; one that ended without them all is
    ``ChildProcessError`` naming its range as ``what``.  Every child is
    killed and reaped on leaving the block."""
    children = []  # (pid, read end) per child, in range order

    def results() -> Iterator[Iterator[bytes]]:
        for (_, stream), lo, hi in zip(children, bounds[1:-1], bounds[2:]):
            lost = f"{what} {lo} to {hi - 1} ended without a result"
            head = _read(stream, 9, lost)
            pieces = _pieces(stream, int.from_bytes(head[1:], "little"), lost)
            if not head[0]:
                raise _rebuilt(b"".join(pieces))
            yield pieces

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
        # still running is not needed once the caller has left.
        for pid, stream in children:
            stream.close()
            # Gone already where the caller ignores SIGCHLD.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
