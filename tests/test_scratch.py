import sys
import threading
import time

import numpy as np

from lanepost._scratch import borrow


def test_a_returned_buffer_is_reused_and_grows_to_the_largest():
    with borrow("test.reuse", 100, np.float64) as first:
        assert first.shape == (100,) and first.dtype == np.float64
    with borrow("test.reuse", 50, np.float64) as second:
        assert np.shares_memory(first, second)
    with borrow("test.reuse", 300, np.float64) as grown:
        assert not np.shares_memory(first, grown)
    with borrow("test.reuse", 200, bool) as again:
        assert again.shape == (200,) and np.shares_memory(grown, again)


def test_nested_borrows_of_one_kind_never_alias():
    with borrow("test.nested", 64):
        pass  # the pool now holds a buffer of this kind
    with borrow("test.nested", 64) as outer:
        with borrow("test.nested", 64) as inner:
            assert not np.shares_memory(outer, inner)
        with borrow("test.other", 64) as other:
            assert not np.shares_memory(outer, other)


def test_each_thread_has_its_own_pool():
    with borrow("test.thread", 64) as mine:
        pass
    seen = []

    def worker():
        with borrow("test.thread", 64) as theirs:
            seen.append(np.shares_memory(mine, theirs))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [False]
    with borrow("test.thread", 64) as again:
        assert np.shares_memory(mine, again)


def test_threads_borrowing_at_once_never_share_a_buffer():
    # more threads than cores and frequent switches: each thread marks its
    # buffer, lets the others run, and finds its mark intact
    failures = []

    def worker(mark):
        for _ in range(200):
            with borrow("test.stress", 4096) as buf:
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
