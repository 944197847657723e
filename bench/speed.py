"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by up to 2x over
seconds to tens of seconds, for Python and numpy code alike.  Measured on
2 cores: a 150x150 `curvature` call read 0.14 s to 0.26 s across
windows of eight calls, while the same calls divided by the Python
kernel below varied by about 6%.  The benchmark therefore times a fixed
reference kernel right before and right after each invocation and
reports the invocation's time at the nominal reference speed:

    seconds = wall seconds * NOMINAL_S[kind] / reference seconds

The kernels are plain Python and numpy; they call no pgsurf code, so a
change to the program moves the invocation time and not the reference.
The Python kernel imports nothing, so a fresh interpreter can time it
before it imports the program.
"""

from __future__ import annotations

import math
import time

_FLOATS = [math.pi * (0.1 + 0.9 * i / 3999) for i in range(4000)]
_ARRAY = []
REPEATS = 3


def _python_kernel() -> None:
    for value in _FLOATS:
        format(value, ".17g")


def _numpy_kernel() -> None:
    import numpy as np

    if not _ARRAY:
        _ARRAY.append(np.linspace(-2.0, 2.0, 1_000_000))
    np.sqrt(np.abs(np.tanh(_ARRAY[0] * 3.1) + 1.0))


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}
# Fast-phase reference times on the machine that defined the benchmark.
NOMINAL_S = {"python": 1.9e-3, "numpy": 6.8e-3}


def slowdown(kind: str) -> float:
    """Best of `REPEATS` reference times over the nominal one."""
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best / NOMINAL_S[kind]
