"""One left-fold sum for simulated values.

Python 3.12's ``builtins.sum`` compensates float additions (Neumaier),
so the same operands can sum to different bits than on 3.11.  Reports
promise the same bytes for the same seed, so every sum of simulated
floats that reaches one goes through :func:`left_sum` instead.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable):
    """``0 + v0 + v1 + ...``, added left to right: bit-identical to 3.11's
    ``sum(values)``, including the int ``0`` of an empty input."""
    return reduce(add, values, 0)
