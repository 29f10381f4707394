import math
import re

import pytest

from conftest import nsfnet_workload, offered_load
from obs_gprm.traffic import (
    ConnectionSpec,
    LoadSpec,
    TrafficMatrix,
    arrival_rates,
    load_matrix,
    next_arrival,
    scale_to_load,
)

L = 3.2e6  # 400 KB in bits


def test_connection_spec_validation():
    with pytest.raises(ValueError):
        ConnectionSpec(0, 1, 0.0, L, 1)
    with pytest.raises(ValueError):
        ConnectionSpec(0, 1, 1.0, -5, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_specs_reject_non_finite_values(bad):
    # NaN passes a `<= 0` check. Only construction is tried: a run with an
    # infinite arrival rate would never return.
    for args in ((0, 1, bad, L, 1), (0, 1, 1.0, bad, 1)):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            ConnectionSpec(*args)
    for args in ((bad, {0: 1e9}), (0.4, {0: 1e9, 1: bad})):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            LoadSpec(*args)


def test_inter_arrival_sample_mean():
    conn = ConnectionSpec(0, 1, 10.0, L, seed=11)
    rng = conn.make_rng()
    n = 100_000
    mean = sum(next_arrival(conn, rng)[0] for _ in range(n)) / n
    assert 0.095 <= mean <= 0.105


def test_burst_size_sample_mean():
    conn = ConnectionSpec(0, 1, 10.0, L, seed=12)
    rng = conn.make_rng()
    n = 100_000
    mean = sum(next_arrival(conn, rng)[1] for _ in range(n)) / n
    assert abs(mean - L) / L < 0.02


@pytest.mark.parametrize("lambda_, mean_size", [(10.0, L), (250.0, 0.5)])
def test_draws_are_the_expovariate_stream(lambda_, mean_size):
    # the golden digests were recorded on `random.expovariate`'s stream; the
    # second connection's mean is below 1 bit, so the floor fires too
    conn = ConnectionSpec(0, 1, lambda_, mean_size, seed=7)
    ours, ref = conn.make_rng(), conn.make_rng()
    floored = 0
    for _ in range(10_000):
        want = (ref.expovariate(lambda_), max(1.0, ref.expovariate(1.0 / mean_size)))
        assert [x.hex() for x in next_arrival(conn, ours)] == [x.hex() for x in want]
        floored += want[1] == 1.0
    assert floored or mean_size >= 1.0


def test_same_seed_same_stream():
    conn = ConnectionSpec(0, 1, 5.0, L, seed=99)
    r1, r2 = conn.make_rng(), conn.make_rng()
    s1 = [next_arrival(conn, r1) for _ in range(500)]
    s2 = [next_arrival(conn, r2) for _ in range(500)]
    assert s1 == s2


def test_matrix_rejects_self_traffic_and_all_zero():
    with pytest.raises(ValueError):
        TrafficMatrix({(0, 0): 1.0})
    with pytest.raises(ValueError):
        TrafficMatrix({(0, 1): 0.0})
    with pytest.raises(ValueError):
        TrafficMatrix({(0, 1): -1.0})


def test_scale_to_load_round_trip_uniform():
    m = TrafficMatrix({(i, j): 1.0 for i in range(3) for j in range(3) if i != j})
    caps = {i: 8e9 for i in range(3)}
    conns = scale_to_load(m, LoadSpec(0.4, caps), L)
    assert offered_load(conns, caps) == pytest.approx(0.4, rel=1e-9)


def test_scale_to_load_proportionality():
    m = TrafficMatrix({(0, 1): 2.0, (1, 0): 1.0})
    caps = {0: 4e9, 1: 4e9}
    conns = {(c.src, c.dst): c for c in scale_to_load(m, LoadSpec(0.2, caps), L)}
    assert conns[(0, 1)].lambda_ == pytest.approx(2 * conns[(1, 0)].lambda_)


def test_scale_to_load_shipped_matrix_round_trip():
    _, caps, conns = nsfnet_workload(0.3, seed=0, mean_burst_size=L)
    assert offered_load(conns, caps) == pytest.approx(0.3, rel=1e-9)
    assert all(c.src != c.dst for c in conns)


@pytest.mark.parametrize("weights, target, message", [
    # the overflow makes every rate 0; the error names the pair that caused it
    ({(0, 1): 1.0, (1, 2): 1e308, (2, 0): 1.0}, 0.2,
     "pair 1 2: weight 1e+308 and mean_burst_size 3.2e+06 make the offered load overflow"),
    ({(0, 1): 5e-324, (1, 0): 5e-324}, 0.2,
     "pair 0 1: weight 4.94066e-324 and mean_burst_size 3.2e+06 make the offered load "
     "underflow to 0"),
    ({(0, 1): 1.0, (1, 0): 5e-324}, 1e-4,
     "pair 1 0: weight 4.94066e-324 gives arrival rate 0, which must be finite and > 0"),
], ids=["load-overflow", "load-underflow", "rate-underflow"])
def test_arrival_rates_name_the_pair_a_run_would_reject(weights, target, message):
    caps = {0: 4e9, 1: 4e9, 2: 4e9}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        arrival_rates(TrafficMatrix(weights), LoadSpec(target, caps), L)


def test_seed_stability_when_adding_connections():
    m1 = TrafficMatrix({(0, 1): 1.0})
    m2 = TrafficMatrix({(0, 1): 1.0, (1, 0): 1.0})
    caps = {0: 4e9, 1: 4e9}
    c1 = scale_to_load(m1, LoadSpec(0.1, caps), L, master_seed=5)
    c2 = scale_to_load(m2, LoadSpec(0.1, caps), L, master_seed=5)
    by_pair = {(c.src, c.dst): c.seed for c in c2}
    assert by_pair[(0, 1)] == c1[0].seed


def test_load_matrix_parses_and_defaults(tmp_path):
    path = tmp_path / "m.matrix"
    path.write_text("# demo\n0 1 2.5\n1 0 1.0\n")
    m = load_matrix(str(path))
    assert m.weights == {(0, 1): 2.5, (1, 0): 1.0}
    assert (2, 3) not in m.weights


def test_load_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "m.matrix"
    path.write_text("0 1 huh\n")
    with pytest.raises(ValueError):
        load_matrix(str(path))


def test_load_matrix_rejects_duplicate_pair(tmp_path):
    # a repeated pair used to keep its last weight silently
    path = tmp_path / "m.matrix"
    path.write_text("0 1 1.0\n1 0 1.0\n0 1 5.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: pair 0 1 is already listed on line 1")):
        load_matrix(str(path))
