"""Reference seconds scale measured intervals by the probe's chunk times."""

import math
from time import perf_counter

import pytest

import hostspeed


def fitted(times, chunks):
    probe = hostspeed.SpeedProbe()
    probe.times, probe.chunks = list(times), list(chunks)
    probe.fit()
    return probe


def test_constant_speed_scales_every_interval_alike():
    probe = fitted([i * 0.02 for i in range(100)], [2 * hostspeed.REFERENCE_CHUNK_S] * 100)
    assert probe.reference([(0.1, 0.5)]) == pytest.approx(0.2)
    assert probe.reference([(0.1, 0.2), (0.3, 0.5)]) == pytest.approx(0.15)
    # before the first and after the last sample the nearest rate holds
    assert probe.reference([(-1.0, 0.0), (1.98, 3.98)]) == pytest.approx(1.5)


def test_a_slow_stretch_counts_less_reference_time():
    ref = hostspeed.REFERENCE_CHUNK_S
    times = [i * 0.02 for i in range(300)]
    chunks = [ref if t < 3.0 else 2 * ref for t in times]
    probe = fitted(times, chunks)
    # the same work took twice as long once the host slowed down
    assert probe.reference([(0.5, 1.5)]) == pytest.approx(1.0)
    assert probe.reference([(4.0, 6.0)]) == pytest.approx(1.0)
    assert probe.reference([(2.0, 4.0)]) == pytest.approx(1.5, rel=0.1)


def test_a_lone_outlier_is_smoothed_away():
    ref = hostspeed.REFERENCE_CHUNK_S
    times = [i * 0.02 for i in range(100)]
    chunks = [ref] * 100
    chunks[50] = 50 * ref
    assert fitted(times, chunks).reference([(0.9, 1.1)]) == pytest.approx(0.2)


def test_without_samples_there_is_no_reference_time():
    probe = hostspeed.SpeedProbe()
    probe.stop()
    with pytest.raises(RuntimeError):
        probe.reference([(0.0, 1.0)])


def test_the_live_probe_samples_and_leaves_its_time_out_of_the_clock():
    probe = hostspeed.SpeedProbe()
    probe.start()
    try:
        t0, w0 = probe.clock(), perf_counter()
        while perf_counter() - w0 < 0.3:
            math.factorial(200)
        t1, w1 = probe.clock(), perf_counter()
    finally:
        probe.stop()
    assert len(probe.times) >= 5
    assert 0 < probe.stolen and t1 - t0 == pytest.approx(w1 - w0 - probe.stolen, abs=1e-3)
    assert probe.reference([(t0, t1)]) > 0
