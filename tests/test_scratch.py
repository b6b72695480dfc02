import functools
import sys
import threading
import time

import numpy as np
import pytest

from lanepost import _scratch
from lanepost._scratch import borrow


def in_a_new_thread(test):
    """Run the test on a thread of its own, whose pool starts empty: the
    test thread's pool holds whatever earlier tests left in it."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        errors = []

        def target():
            try:
                test(*args, **kwargs)
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        if errors:
            raise errors[0]

    return run


@in_a_new_thread
def test_a_returned_buffer_is_reused_and_grows_to_the_largest():
    with borrow(100, np.float64) as first:
        assert first.shape == (100,) and first.dtype == np.float64
    with borrow(50, np.float64) as second:
        assert np.shares_memory(first, second)
    with borrow(300, np.float64) as grown:
        assert not np.shares_memory(first, grown)
    with borrow(200, bool) as again:
        assert again.shape == (200,) and np.shares_memory(grown, again)
    with borrow(10) as small:
        assert small.dtype == np.uint8 and np.shares_memory(grown, small)
    assert [len(buf) for buf in _scratch._pools.slots] == [2400]


@in_a_new_thread
def test_nested_borrows_never_alias():
    with borrow(64) as outer:
        with borrow(64) as inner:
            assert not np.shares_memory(outer, inner)
            with borrow(64) as innermost:
                assert not np.shares_memory(outer, innermost)
                assert not np.shares_memory(inner, innermost)
        with borrow(64) as sibling:  # the inner borrow's slot, given back
            assert np.shares_memory(inner, sibling)
            assert not np.shares_memory(outer, sibling)
    with borrow(64) as again:
        assert np.shares_memory(outer, again)


@in_a_new_thread
def test_an_exception_in_a_nested_borrow_gives_every_slot_back():
    with borrow(64) as outer:
        with borrow(64) as inner:
            pass
    with pytest.raises(ValueError):
        with borrow(64):
            with borrow(64):
                raise ValueError("frame refused")
    assert all(buf is not None for buf in _scratch._pools.slots)  # none still borrowed
    with borrow(64) as top:
        assert np.shares_memory(outer, top)
        with borrow(64) as nested:
            assert np.shares_memory(inner, nested)


@in_a_new_thread
def test_each_thread_has_its_own_pool():
    with borrow(64) as mine:
        pass
    seen = []

    def worker():
        with borrow(64) as theirs:
            seen.append(np.shares_memory(mine, theirs))
            seen.append(len(_scratch._pools.slots))

    with borrow(64):  # this thread's open borrow does not nest the other's
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen == [False, 1]
    with borrow(64) as again:
        assert np.shares_memory(mine, again)


def test_threads_borrowing_at_once_never_share_a_buffer():
    # more threads than cores and frequent switches: each thread marks its
    # buffer, lets the others run, and finds its mark intact
    failures = []

    def worker(mark):
        for _ in range(200):
            with borrow(4096) as buf:
                buf[:] = mark
                time.sleep(0)
                if not (buf == mark).all():
                    failures.append(mark)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
