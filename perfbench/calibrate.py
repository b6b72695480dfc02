"""Machine-speed calibration for the lanepost benchmark.

On a shared machine a process runs slower while other tenants load the
host: on a 2-vCPU VM the frame path took 1.8-1.9x its usual time for
stretches from a second to several minutes, longer than a whole run.
The benchmark therefore times a fixed kernel next to the program and
scales the program's times by REFERENCE_MS over the kernel's time
nearby: times are reported at reference machine speed.

The kernel is a pure-Python 8-connected flood fill over a fixed grid:
the same kind of interpreter work (byte indexing, integer arithmetic, a
deque) as lanepost's hot paths, labeling, pairwise voting and PNG
unfiltering, so it slows down by about the same factor. Over 90 s of
alternating calls the frame path's time varied by 22% (coefficient of
variation of 3 s medians) and its ratio to the kernel's time by 3.5%.
Work that runs outside the interpreter (numpy, zlib) slows down less;
a lanepost change that moves its hot path there would make its scaled
times read low in a slow stretch.

The kernel belongs to the benchmark and does not change with lanepost.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# the kernel's time on the reference machine when nothing else loads it
# (2-vCPU x86-64 VM, CPython 3, fastest stretches); scaled times read
# as what the program costs there
REFERENCE_MS = 0.95

WINDOW = 4  # a frame is scaled by the 2 * WINDOW + 1 calibrations around it

_HEIGHT, _WIDTH = 48, 96
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _grid() -> bytes:
    """Four slanted 3-px strokes, one component each."""
    cells = bytearray(_HEIGHT * _WIDTH)
    for k in range(4):
        for r in range(_HEIGHT):
            c = 8 + 22 * k + r // 4
            cells[r * _WIDTH + c : r * _WIDTH + c + 3] = b"\x01\x01\x01"
    return bytes(cells)


_GRID = _grid()
_SIZES = [3 * _HEIGHT] * 4


def kernel() -> list[int]:
    """Component sizes of the fixed grid, by breadth-first flood fill."""
    cells, width, height = _GRID, _WIDTH, _HEIGHT
    visited = bytearray(len(cells))
    sizes = []
    for seed in range(len(cells)):
        if not cells[seed] or visited[seed]:
            continue
        visited[seed] = 1
        queue = deque((seed,))
        size = 0
        while queue:
            idx = queue.popleft()
            size += 1
            r, c = divmod(idx, width)
            for dr, dc in _OFFSETS:
                nr = r + dr
                nc = c + dc
                if 0 <= nr < height and 0 <= nc < width:
                    n = nr * width + nc
                    if cells[n] and not visited[n]:
                        visited[n] = 1
                        queue.append(n)
        sizes.append(size)
    return sizes


def time_kernel() -> float:
    """One timed kernel call, in ms; raises if the kernel went wrong."""
    t0 = time.perf_counter()
    sizes = kernel()
    ms = (time.perf_counter() - t0) * 1e3
    if sizes != _SIZES:
        raise RuntimeError(f"calibration kernel gave {sizes}, not {_SIZES}")
    return ms


def typical(cal_ms: list[float]) -> float:
    """The mean of the calibrations without the fastest and slowest
    fifth. In a slow stretch single calibrations are either fast or
    slow, and a frame many times longer than one pays about their mean;
    trimming keeps a single stall from moving it. Against a probe of
    frames and PNG decodes on the 2-vCPU VM it left frames at 1.00x
    and decodes at 0.87-0.94x of their fast-stretch times, where the
    median left decodes at 0.83-0.89x."""
    v = sorted(cal_ms)
    k = len(v) // 5
    return statistics.fmean(v[k : len(v) - k])


def factors(cal_ms: list[float]) -> list[float]:
    """Per calibration: REFERENCE_MS over the typical time of the
    calibrations within WINDOW of it. A time measured next to
    calibration k, times factors[k], is that time at reference speed."""
    return [
        REFERENCE_MS / typical(cal_ms[max(0, k - WINDOW) : k + WINDOW + 1])
        for k in range(len(cal_ms))
    ]


def factor_now(warm: int = 3) -> float:
    """The scale factor for a time measured just before this call, from
    2 * WINDOW + 1 calibrations after `warm` untimed ones."""
    for _ in range(warm):
        time_kernel()
    return REFERENCE_MS / typical([time_kernel() for _ in range(2 * WINDOW + 1)])
