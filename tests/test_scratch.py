import ast
import functools
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lanepost
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


def borrowing_functions():
    """module.function of every function in the package that calls
    borrow( itself, not only through a function nested in it."""
    found = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "borrow" and self.stack:
                found.add(f"{self.module}.{self.stack[-1]}")
            self.generic_visit(node)

    for path in Path(lanepost.__file__).parent.glob("*.py"):
        if path.stem != "_scratch":
            Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_the_docstring_names_every_borrow_site():
    # the by-stage list of the `_scratch` docstring names exactly the
    # functions that borrow: a new borrow must be listed, and a function
    # that stops borrowing must leave the list
    listed = _scratch.__doc__.split("By stage:", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+\.\w+)`", listed))
    assert named and named == borrowing_functions()
