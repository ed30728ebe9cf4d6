"""How work is split across forked processes and how a child's objects
come back (``spreekit._fork``)."""

import os
import pickle
import threading

import numpy as np
import pytest

from spreekit._fork import forked, split


@pytest.mark.parametrize(
    "n, fewest, processes, bounds",
    [
        (15, 8, 4, [0, 15]),  # one range below 2 * fewest
        (0, 8, 4, [0, 0]),
        (500, 8, 1, [0, 500]),
        (37, 1, 3, [0, 12, 24, 37]),  # floor cuts: the later ranges take the extra units
        (23, 8, 4, [0, 11, 23]),  # processes capped at n // fewest
        (24, 8, 4, [0, 8, 16, 24]),
        (50, 1, 4, [0, 12, 25, 37, 50]),
    ],
)
def test_split(n, fewest, processes, bounds):
    assert split(n, fewest, processes) == bounds


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
