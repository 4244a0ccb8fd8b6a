"""The left-fold sum every report total goes through."""

import random
import sys

import pytest

from repro.fold import left_sum

CANCELLING = [1e16, 1.0, -1e16]


def neumaier_sum(values):
    """The compensated float sum of 3.12's ``builtins.sum``."""
    total = 0.0
    compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_left_fold_loses_what_a_compensated_sum_keeps():
    assert left_sum(CANCELLING) == 0.0
    assert neumaier_sum(CANCELLING) == 1.0


def test_empty_input_is_int_zero():
    result = left_sum([])
    assert result == 0 and type(result) is int


def test_ints_stay_exact():
    assert left_sum([2**60, 1, -(2**60)]) == 1
    assert type(left_sum(range(10))) is int


def test_consumes_any_iterable_once():
    assert left_sum(x / 4 for x in range(5)) == 2.5


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="builtins.sum compensates floats from 3.12")
def test_bit_identical_to_builtin_sum_before_312():
    rng = random.Random(3)
    for _ in range(200):
        values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8)
                  for _ in range(rng.randint(0, 40))]
        assert float(left_sum(values)).hex() == float(sum(values)).hex()
