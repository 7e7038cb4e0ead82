"""Tests of the scaling of measured times to a fixed machine speed.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import clock  # noqa: E402


def _clock(samples):
    c = clock.Clock()
    for at, took in samples:
        c._at.append(at)
        c.took.append(took)
    return c


def test_an_interval_scales_by_the_reference_time_near_it():
    slow, fast = 2 * clock.REFERENCE_S, clock.REFERENCE_S / 2
    c = _clock([(t, slow) for t in range(10)] + [(t, fast) for t in range(100, 110)])
    assert c.scaled(4.0, 5.0) == 0.5
    assert c.scaled(104.0, 105.0) == 2.0
    # an interval between the two phases takes the median of its neighbours
    assert c.scaled(50.0, 51.0) in (0.5, 2.0)


def test_few_samples_use_all_of_them():
    c = _clock([(0.0, clock.REFERENCE_S), (1.0, clock.REFERENCE_S)])
    assert c.scaled(10.0, 12.0) == 2.0


def test_sampling_times_the_reference():
    c = clock.Clock()
    c.sample()
    assert len(c.took) == 1 and c.took[0] > 0
    assert c.scaled(0.0, c.took[0]) > 0
