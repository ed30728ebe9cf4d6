"""How work is split across forked processes and how a child's objects
come back (``spreekit._fork``)."""

import contextlib
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from spreekit._fork import forked, split

from conftest import another_thread_alive, fake_cpus


@pytest.mark.parametrize(
    "n, fewest, cpus, bounds",
    [
        (15, 8, 4, [0, 15]),  # one range below 2 * fewest
        (0, 8, 4, [0, 0]),
        (500, 8, 1, [0, 500]),
        (37, 1, 3, [0, 12, 24, 37]),  # floor cuts: the later ranges take the extra units
        (23, 8, 4, [0, 11, 23]),  # processes capped at n // fewest
        (24, 8, 4, [0, 8, 16, 24]),
        (50, 1, 4, [0, 12, 25, 37, 50]),
        (16, 8, 4, [0, 8, 16]),  # two ranges from 2 * fewest
        (17, 8, 2, [0, 8, 17]),
        (1, 1, 4, [0, 1]),
        (3, 1, 50, [0, 1, 2, 3]),  # more CPUs than units: one unit a range
    ],
)
def test_split(monkeypatch, n, fewest, cpus, bounds):
    fake_cpus(monkeypatch, cpus)
    assert split(n, fewest) == bounds


def test_one_range_where_the_cpus_cannot_be_read(monkeypatch):
    # As on macOS and Windows, which have no os.sched_getaffinity: the
    # caller works on every unit itself, and nothing forks.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was started"))
    bounds = split(50, 1)
    assert bounds == [0, 50]
    with forked(lambda lo, hi: [lo], bounds, "units") as children:
        assert list(children) == []


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def things(k: int) -> list:
    """Objects of several types for unit ``k``."""
    return [
        k,
        f"unit {k} \udc80",  # a lone surrogate, which UTF-8 cannot encode
        (b"\x00" * k, b"\xff"),
        {"k": [k / 7, None]},
        np.arange(k, dtype=float),
    ]


def test_objects_arrive_equal_and_in_range_order():
    bounds = [0, 2, 3, 5, 8]

    def work(lo: int, hi: int):
        for k in range(lo, hi):
            yield from things(k)

    with forked(work, bounds, "units") as children:
        got = [list(objects) for objects in children]
    want = [[x for k in range(lo, hi) for x in things(k)] for lo, hi in zip(bounds[1:], bounds[2:])]
    assert len(got) == len(want) == 3
    for objects, expected in zip(got, want):
        assert len(objects) == len(expected)
        for a, b in zip(objects, expected):
            assert type(a) is type(b)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b
    assert_no_child_left()


@pytest.mark.parametrize("raw", [False, True], ids=["threading", "_thread"])
def test_one_range_while_another_thread_is_alive(monkeypatch, raw):
    # A child would hold only the forking thread, and any lock another
    # thread held, for good; so the caller works on every unit itself.  A
    # thread started through _thread is not in threading's list.
    fake_cpus(monkeypatch, 4)
    with another_thread_alive(raw):
        assert split(50, 1) == [0, 50]
    assert split(50, 1) == [0, 12, 25, 37, 50]


@pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
def test_a_child_that_has_ended_is_not_signalled(monkeypatch, sigchld):
    # Where SIGCHLD is ignored the system reaps a child as it ends, and its
    # pid may soon be another process's.
    pids, fork, kills = [], os.fork, []
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    previous = signal.signal(signal.SIGCHLD, sigchld)
    try:
        with forked(lambda lo, hi: [lo], [0, 1, 2, 3], "units") as children:
            assert [list(objects) for objects in children] == [[1], [2]]
            for pid in pids:  # until each has ended, reaping none
                with contextlib.suppress(ChildProcessError):
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(pids) == 2 and kills == []
    assert_no_child_left()


def test_an_object_a_child_cannot_pickle_is_its_error():
    def work(lo: int, hi: int):
        yield lo
        if lo == 2:
            yield threading.Lock()

    with pytest.raises(TypeError) as here:
        pickle.dumps(threading.Lock())
    with forked(work, [0, 1, 2, 3], "units") as children:
        assert list(next(children)) == [1]
        with pytest.raises(TypeError) as there:
            next(children)
    assert str(there.value) == str(here.value)
    assert_no_child_left()
