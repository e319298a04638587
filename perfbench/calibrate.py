"""Reference loops that measure how fast the machine runs right now.

On a shared machine the speed of the same code drifts by up to 1.8x over
minutes, which no run length averages away.  The benchmark therefore times
a reference loop next to each measurement and reports every time scaled to
a machine on which the loop takes REFERENCE_S:

    scaled = measured * REFERENCE_S / median(reference samples nearby)

Two loops, each matched to what it calibrates (chosen by measured spread):

* reference_s mixes small numpy array operations with interpreter-bound
  float work, as the program's units of work do.  It needs numpy already
  imported, so it runs only after the program's import.
* python_reference_s is interpreter-bound only, like an import (unmarshal,
  module bodies), and imports nothing, so it can run before the timed
  import without pre-loading anything the import would pay for.
"""

import math
import sys
import time

REFERENCE_S = 0.010
_ROUNDS = 650
_PYTHON_ROUNDS = 1300


def reference_s() -> float:
    """Wall time of one pass of the numpy + interpreter reference loop."""
    np = sys.modules["numpy"]  # loaded by the program's import; loading it here would be timed
    x = np.linspace(0.0, 1.0, 64)
    t = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        acc += float(np.sum(np.cos(x * i)))
        acc += math.fsum([math.sin(i * k) for k in range(30)])
    if acc != acc:  # keeps the result live
        raise ArithmeticError("reference loop produced NaN")
    return time.perf_counter() - t


def python_reference_s() -> float:
    """Wall time of one pass of the interpreter-only reference loop."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(_PYTHON_ROUNDS):
        acc += math.fsum([math.sin(i * k) * math.sqrt(k + 1.0) for k in range(32)])
    if acc != acc:
        raise ArithmeticError("reference loop produced NaN")
    return time.perf_counter() - t


def timed_import(module: str) -> tuple[float, list[float]]:
    """Seconds to import `module`, and interpreter-only reference samples around it."""
    refs = [python_reference_s(), python_reference_s()]
    t = time.perf_counter()
    __import__(module)
    t = time.perf_counter() - t
    return t, refs + [python_reference_s(), python_reference_s()]


def median(values):
    # not statistics.median: the worker imports this module before the timed
    # import of the program, and statistics would pre-load modules it pays for
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def scale(samples) -> float:
    """Factor that maps a time measured next to these samples to the reference machine."""
    return REFERENCE_S / median(samples)
