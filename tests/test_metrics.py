import pytest

from conftest import bidir, path_topology
from obs_gprm.metrics import (
    RunCounters,
    RunResult,
    TimeSeries,
    UndefinedMetricError,
    blr_gain_terms,
    u_gain_terms,
)
from obs_gprm.topology import Topology


def counters(sent=0, delivered=0, **drops):
    c = RunCounters(bursts_sent=sent, bursts_delivered=delivered)
    for cause, n in drops.items():
        setattr(c, "drops_" + cause, n)
    return c


def result(c, elapsed=1.0):
    """A run whose steady-state cohort is `c`, measured over `elapsed` s."""
    return RunResult(c, c, TimeSeries(0.01), duration=elapsed, warmup=0.0)


def test_blr_simple():
    assert result(counters(sent=1000, contention=50)).blr() == pytest.approx(0.05)


def test_blr_lossless():
    assert result(counters(sent=10, delivered=10)).blr() == 0.0


def test_blr_undefined_on_zero_sent():
    with pytest.raises(UndefinedMetricError):
        result(counters()).blr()


def test_drop_causes_sum():
    c = counters(sent=10, contention=1, offset=2, noroute=3, ingress=4)
    assert c.bursts_dropped == 10
    assert c.in_flight == 0


def test_mean_delay():
    c = counters(sent=1, delivered=1)
    c.delay_sum = 5.5e-3
    assert result(c).mean_delay() == pytest.approx(5.5e-3)
    with pytest.raises(UndefinedMetricError):
        result(counters(sent=1)).mean_delay()


def test_utilization_single_burst():
    # one fiber pair with 2 data channels per direction: 4 channels total
    topo = Topology([0, 1], bidir(0, 1, data=2))
    c = RunCounters()
    c.add_busy((0, 1, 0), 3.2e-3)
    assert result(c, elapsed=1.0).utilization(topo) == pytest.approx(8e-4)


def test_utilization_bounds():
    topo = path_topology(2, data=4)  # 8 channels
    c = RunCounters()
    assert result(c).utilization(topo) == 0.0
    for w in range(4):
        c.add_busy((0, 1, w), 1.0)
        c.add_busy((1, 0, w), 1.0)
    assert result(c).utilization(topo) == pytest.approx(1.0)
    with pytest.raises(UndefinedMetricError):
        result(c, elapsed=0.0).utilization(topo)


def test_blr_gain_values():
    # gains.csv sums the per-point terms
    assert sum(blr_gain_terms([0.10], [0.05])) == pytest.approx(0.5)
    assert sum(blr_gain_terms([0.1, 0.2], [0.1, 0.2])) == 0.0
    assert sum(blr_gain_terms([0.1, 0.2], [0.05, 0.1])) == pytest.approx(1.0)


def test_u_gain_values():
    assert sum(u_gain_terms([0.5], [0.6])) == pytest.approx(0.2)
    assert sum(u_gain_terms([0.4, 0.5], [0.4, 0.5])) == 0.0
    assert sum(u_gain_terms([0.4, 0.5], [0.44, 0.55])) == pytest.approx(0.2)


def test_gain_errors():
    with pytest.raises(ValueError):
        blr_gain_terms([0.1], [0.1, 0.2])
    with pytest.raises(ValueError):
        blr_gain_terms([0.0], [0.1])
    with pytest.raises(ValueError):
        u_gain_terms([0.0], [0.1])


def test_gain_terms_recompute_directly():
    sp, gp = [0.08, 0.12, 0.2], [0.05, 0.1, 0.25]
    terms = blr_gain_terms(sp, gp)
    for t, s, g in zip(terms, sp, gp):
        assert t == pytest.approx((s - g) / s)
    uterms = u_gain_terms(sp, gp)
    for t, s, g in zip(uterms, sp, gp):
        assert t == pytest.approx((g - s) / s)


def test_time_series_buckets_and_conservation():
    ts = TimeSeries(bucket_width=0.01)
    for t in (0.001, 0.004, 0.012, 0.025, 0.026):
        ts.add_sent(t)
    ts.add_drop(0.013)
    ts.add_drop(0.027)
    times, sent, dropped = ts.arrays()
    assert sent.sum() == 5
    assert dropped.sum() == 2
    assert list(sent) == [2, 1, 2]
    assert list(dropped) == [0, 1, 1]


def test_rolling_blr_window():
    ts = TimeSeries(bucket_width=0.01)
    # bucket 0: 4 sent 2 dropped; bucket 1: 4 sent 0 dropped
    for i in range(4):
        ts.add_sent(0.001 * i)
        ts.add_sent(0.01 + 0.001 * i)
    ts.add_drop(0.002)
    ts.add_drop(0.003)
    _, rolling = ts.rolling_blr(window_buckets=1)
    assert rolling[0] == pytest.approx(0.5)
    assert rolling[1] == pytest.approx(0.0)
    _, rolling2 = ts.rolling_blr(window_buckets=2)
    assert rolling2[1] == pytest.approx(0.25)


def test_rolling_blr_empty():
    ts = TimeSeries(bucket_width=0.01)
    times, rolling = ts.rolling_blr()
    assert len(times) == 0 and len(rolling) == 0
