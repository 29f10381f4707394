import math
import os
import random
import subprocess
import sys

import pytest

import obs_gprm
from conftest import bidir, path_topology
from obs_gprm.experiment import _gains_rows
from obs_gprm.metrics import (
    ROLLING_WINDOW_BUCKETS,
    RunCounters,
    RunResult,
    TimeSeries,
    rolling_ratio,
)
from obs_gprm.topology import Topology


def counters(sent=0, delivered=0, **drops):
    c = RunCounters(bursts_sent=sent, bursts_delivered=delivered)
    for cause, n in drops.items():
        setattr(c, "drops_" + cause, n)
    return c


def result(c, elapsed=1.0):
    """A run whose steady-state cohort is `c`, measured over `elapsed` s."""
    return RunResult(c, c, TimeSeries(), duration=elapsed, warmup=0.0)


def test_blr_simple():
    assert result(counters(sent=1000, contention=50)).blr() == pytest.approx(0.05)


def test_blr_lossless():
    assert result(counters(sent=10, delivered=10)).blr() == 0.0


def test_blr_undefined_on_zero_sent():
    assert math.isnan(result(counters()).blr())


def test_drop_causes_sum():
    c = counters(sent=10, contention=1, offset=2, noroute=3, ingress=4)
    assert c.bursts_dropped == 10
    assert c.in_flight == 0


def test_mean_delay():
    c = counters(sent=1, delivered=1)
    c.delay_sum = 5.5e-3
    assert result(c).mean_delay() == pytest.approx(5.5e-3)
    assert math.isnan(result(counters(sent=1)).mean_delay())


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
    assert math.isnan(result(c, elapsed=0.0).utilization(topo))
    # a topology without a data channel has no capacity to occupy
    assert math.isnan(result(c).utilization(Topology([0], [])))


def gains(column, sp, gprm):
    """gains.csv rows for one seed per load, `column` (blr or utilization)
    taking the given per-load values and the other metrics fixed."""
    other = "utilization" if column == "blr" else "blr"
    rows = [{"policy": p, "load": i, "seed": 1, column: v, other: 0.5, "mean_delay_s": 1e-3}
            for p, vals in (("sp", sp), ("gprm", gprm)) for i, v in enumerate(vals)]
    out = _gains_rows(rows, list(range(len(sp))), [1])
    return [[float(v) for v in row[1:] if v != ""] for row in out]


def test_blr_gain_values():
    # gains.csv sums the per-point terms
    assert gains("blr", [0.10], [0.05])[-2] == [pytest.approx(0.5), 0.0]
    assert gains("blr", [0.1, 0.2], [0.1, 0.2])[-2] == [0.0, 0.0]
    assert gains("blr", [0.1, 0.2], [0.05, 0.1])[-2] == [pytest.approx(1.0), 0.0]


def test_u_gain_values():
    assert gains("utilization", [0.5], [0.6])[-2] == [0.0, pytest.approx(0.2)]
    assert gains("utilization", [0.4, 0.5], [0.4, 0.5])[-2] == [0.0, 0.0]
    assert gains("utilization", [0.4, 0.5], [0.44, 0.55])[-2] == [0.0, pytest.approx(0.2)]


def test_gain_errors():
    with pytest.raises(ValueError, match="baseline values must be > 0"):
        gains("blr", [0.0], [0.1])
    with pytest.raises(ValueError, match="baseline values must be > 0"):
        gains("utilization", [0.0], [0.1])
    # a NaN baseline before the zero one must not hide it
    with pytest.raises(ValueError, match="baseline values must be > 0"):
        gains("blr", [float("nan"), 0.0], [0.1, 0.1])


def test_gains_rows_recompute_terms_directly():
    sp, gp = [0.08, 0.12, 0.2], [0.05, 0.1, 0.25]
    rows = gains("blr", sp, gp)
    for (b_sp, b_gp, term, *_), s, g in zip(rows, sp, gp):
        assert (b_sp, b_gp, term) == (s, g, pytest.approx((s - g) / s))
    rows = gains("utilization", sp, gp)
    for (*_, u_sp, u_gp, term), s, g in zip(rows, sp, gp):
        assert (u_sp, u_gp, term) == (s, g, pytest.approx((g - s) / s))
    assert rows[-1][-1] == pytest.approx(sum((g - s) / s for s, g in zip(sp, gp)) / 3)


def test_time_series_buckets_and_conservation():
    ts = TimeSeries()
    for t in (0.001, 0.004, 0.012, 0.025, 0.026):
        ts.add_sent(t)
    ts.add_drop(0.013)
    ts.add_drop(0.027)
    times, sent, dropped = ts.arrays()
    assert sum(sent) == 5
    assert sum(dropped) == 2
    assert list(sent) == [2, 1, 2]
    assert list(dropped) == [0, 1, 1]


def test_rolling_blr_window():
    ts = TimeSeries()
    # bucket 0: 4 sent 2 dropped; buckets 1-21: 1 sent each; bucket 21: 1 dropped
    for i in range(4):
        ts.add_sent(0.001 * i)
    for i in range(1, 22):
        ts.add_sent(0.01 * i + 0.005)
    ts.add_drop(0.002)
    ts.add_drop(0.003)
    ts.add_drop(0.215)
    _, sent, dropped = ts.arrays()
    assert len(sent) == 22 and ROLLING_WINDOW_BUCKETS == 20
    rolling = rolling_ratio(sent, dropped)
    # the window holds bucket 0 up to bucket 19, then bucket 0 leaves it
    assert rolling.tolist()[:20] == [2 / (4 + i) for i in range(20)]
    assert rolling[20] == 0.0
    assert rolling[21] == 1 / 20


def test_rolling_blr_equals_brute_force_window_sums():
    rng = random.Random(14)
    w = ROLLING_WINDOW_BUCKETS
    for _ in range(40):
        ts = TimeSeries()
        n = rng.randint(1, 3 * w)  # most series are longer than the window
        want_sent, want_dropped = [0] * n, [0] * n
        for i in range(n):
            if rng.random() < 0.4:
                continue  # an empty bucket
            want_sent[i], want_dropped[i] = rng.randint(0, 6), rng.randint(0, 3)
            for _ in range(want_sent[i]):
                ts.add_sent((i + 0.5) * 0.01)
            for _ in range(want_dropped[i]):
                ts.add_drop((i + 0.5) * 0.01)
        while want_sent and not (want_sent[-1] or want_dropped[-1]):
            del want_sent[-1], want_dropped[-1]  # the series ends at its last burst
        times, sent, dropped = ts.arrays()
        assert times.tolist() == [i * 0.01 for i in range(len(want_sent))]
        assert (sent.tolist(), dropped.tolist()) == (want_sent, want_dropped)
        expected = []
        for i in range(len(times)):
            first = max(0, i - w + 1)
            s, d = sum(want_sent[first:i + 1]), sum(want_dropped[first:i + 1])
            expected.append(d / s if s else 0.0)
        assert rolling_ratio(sent, dropped).tolist() == expected


def test_rolling_blr_empty():
    ts = TimeSeries()
    times, sent, dropped = ts.arrays()
    rolling = rolling_ratio(sent, dropped)
    assert len(times) == 0 and len(rolling) == 0


def test_runtime_imports_no_numpy():
    # the simulator, the sweep and the CLI run on the standard library alone
    src = os.path.dirname(os.path.dirname(obs_gprm.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, obs_gprm.cli, obs_gprm.experiment, obs_gprm.signaling; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
