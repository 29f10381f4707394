import copy

import pytest
from hypothesis import given, settings, strategies as st

import obs_gprm
from obs_gprm.gprm import (
    LossRateWindow,
    SuccessTable,
    extract_evidence,
    warm_start_prior,
)
from conftest import flat, nb_oracle, path_topology, update_and_read
from obs_gprm.signaling import SimConfig, Simulator
from obs_gprm.topology import load_topology

EV = (3, 0, 3, 2)  # (offset class, loss class, hop class, destination)
STATE_COUNTS = (16, 3, 16, 8)
HOPS = path_topology(4).hop_counts()  # the path graph 0-1-2-3


def fresh_table(alpha=0.9, initial=0.5, neighbors=(1, 2), nb_space=None):
    return SuccessTable(0, neighbors, alpha, flat(initial), nb_space)


def test_update_ack_from_half(tmp_path):
    t = fresh_table(alpha=0.9)
    assert update_and_read(t, 1, EV, True) == pytest.approx(0.55)
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.55)
    update_and_read(t, 1, (0, 0, 0, 2), False)
    path = tmp_path / "table.txt"
    with open(path, "w") as fh:
        t.dump(fh)  # observed entries only, as sorted `k o b nb d sp` lines
    assert path.read_text() == "# success table of node 0\n1 0 0 0 2 0.45\n1 3 0 3 2 0.55\n"


def test_alpha_one_freezes():
    t = fresh_table(alpha=1.0, initial=0.7)
    assert update_and_read(t, 1, EV, True) == pytest.approx(0.7)
    assert update_and_read(t, 1, EV, False) == pytest.approx(0.7)


@given(st.floats(0.0, 1.0), st.lists(st.booleans(), min_size=1, max_size=60))
def test_update_closure_property(alpha, outcomes):
    t = fresh_table(alpha=alpha)
    for ok in outcomes:
        v = update_and_read(t, 1, EV, ok)
        assert 0.0 <= v <= 1.0


def test_alternating_stream_settles_in_band():
    t = fresh_table(alpha=0.9)
    v = 0.5
    for i in range(400):
        v = update_and_read(t, 1, EV, i % 2 == 0)
        if i >= 200:
            assert 0.45 <= v <= 0.55


def blr_class(local_blr):
    """Loss class `extract_evidence` gives at the default thresholds."""
    cfg = SimConfig()
    return extract_evidence(0, 3, 3e-4, local_blr, HOPS, cfg.blr_low, cfg.blr_high)[1]


def test_blr_class_boundaries():
    assert blr_class(0.0) == 0
    assert blr_class(0.01) == 1  # half-open boundary
    assert blr_class(0.05) == 2
    assert blr_class(1.0) == 2


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_blr_class_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert blr_class(lo) <= blr_class(hi)


def test_config_rejects_bad_blr_thresholds():
    # the thresholds are checked once, by the config they are read from
    cfg = SimConfig(blr_low=0.5, blr_high=0.1)
    assert cfg.problems() == ["blr_high: must be > blr_low, got 0.1 <= 0.5"]
    # a threshold out of (0, 1) is named alone: the order of the two is not checked
    assert SimConfig(blr_low=0.0, blr_high=0.0).problems() == [
        "blr_low: must be in (0, 1), got 0.0", "blr_high: must be in (0, 1), got 0.0"]
    assert SimConfig(blr_high=1.0).problems() == ["blr_high: must be in (0, 1), got 1.0"]


def test_extract_evidence_exact_multiples():
    e = extract_evidence(0, 3, remaining_offset=3e-4, local_blr=0.0, hop_counts=HOPS,
                         blr_low=0.01, blr_high=0.05)
    assert type(e) is tuple and e == (3, 0, 3, 3)


def test_extract_evidence_clamps():
    e = extract_evidence(0, 3, remaining_offset=40e-4, local_blr=0.0, hop_counts=HOPS,
                         blr_low=0.01, blr_high=0.05)
    assert e[0] == 15


def test_extract_evidence_caps_both_classes():
    # a quotient that overflows to inf is offset class 15, not OverflowError
    e = extract_evidence(0, 3, remaining_offset=1e308, local_blr=0.0, hop_counts=HOPS,
                         blr_low=0.01, blr_high=0.05)
    assert e[0] == 15
    # the hop class is capped from 16 hops on, which takes a path of 17 nodes
    hops = path_topology(17).hop_counts()
    for dest, hop_class in ((14, 14), (15, 15), (16, 15)):
        e = extract_evidence(0, dest, remaining_offset=3e-4, local_blr=0.0, hop_counts=hops,
                             blr_low=0.01, blr_high=0.05)
        assert e[2] == hop_class


def test_extract_evidence_cold_start_low():
    e = extract_evidence(1, 3, remaining_offset=2e-4, local_blr=0.0, hop_counts=HOPS,
                         blr_low=0.01, blr_high=0.05)
    assert e[1] == 0


def blr_class_oracle(local_blr, low=0.01, high=0.05):
    if local_blr < low:
        return 0
    return 1 if local_blr < high else 2


@given(st.integers(0, 3), st.integers(0, 3), st.floats(0, 2e-3),
       st.floats(0, 1) | st.sampled_from([0.01, 0.05]))
def test_extract_evidence_ranges(node, dest, rem, blr_value):
    if node == dest:
        return
    e = extract_evidence(node, dest, rem, blr_value, HOPS, 0.01, 0.05)
    assert 0 <= e[0] <= 15
    assert e[1] == blr_class_oracle(blr_value)
    assert 0 <= e[2] <= 15
    assert e[3] == dest


def nb_scores(table, k, e):
    return table._nb_scores(k, e)


def test_nb_scores_unanimous_success():
    t = fresh_table(nb_space=STATE_COUNTS)
    for _ in range(5):
        update_and_read(t, 1, EV, True)
    s_succ, s_fail = nb_scores(t, 1, EV)
    assert s_succ > s_fail > 0
    # one field away from EV is unseen evidence, which routing scores by naive Bayes
    e = (3, 1, 3, 2)
    s_succ, s_fail = nb_scores(t, 1, e)
    assert t.epoch_success_prob(1, e) == pytest.approx(s_succ / (s_succ + s_fail))
    assert t.epoch_success_prob(1, e) > 0.5


def test_nb_scores_require_observations():
    # naive Bayes scores a neighbor only once that neighbor has an outcome
    t = fresh_table(nb_space=STATE_COUNTS)
    assert t.epoch_success_prob(1, EV) == 0.5
    update_and_read(t, 2, EV, False)
    assert t.epoch_success_prob(1, EV) == 0.5
    assert t.epoch_success_prob(2, (3, 1, 3, 2)) != 0.5


def test_warm_table_keeps_no_naive_bayes_counts():
    t = fresh_table()  # no naive-Bayes space, as on every warm start
    update_and_read(t, 1, EV, True)
    update_and_read(t, 1, (0, 1, 2, 3), False)
    assert t._totals == {} and t._factor_counts == {}
    # unseen evidence still scores the prior
    assert t.epoch_success_prob(1, (3, 1, 3, 2)) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2), st.booleans()),
                min_size=1, max_size=25))
def test_nb_scores_match_bruteforce_oracle(history):
    counts = (3, 3, 3, 3)
    t = SuccessTable(0, (1,), 0.9, flat(0.5), counts)
    fed = [((o, b, nb, d), ok) for o, b, nb, d, ok in history]
    for e, ok in fed:
        update_and_read(t, 1, e, ok)
    for o in range(3):
        for b in range(3):
            e = (o, b, 1, 2)
            s_succ, s_fail = oracle = nb_oracle(fed, e, counts)
            assert nb_scores(t, 1, e) == pytest.approx(oracle)
            if (1, *e) not in t.values:
                assert t.epoch_success_prob(1, e) == pytest.approx(
                    s_succ / (s_succ + s_fail))


def nb_count_state(table):
    return copy.deepcopy((table._totals, table._factor_counts))


def test_scoring_unseen_evidence_leaves_the_counts_alone():
    t = fresh_table(nb_space=STATE_COUNTS)
    update_and_read(t, 1, EV, True)
    update_and_read(t, 2, (0, 1, 2, 3), False)
    before = nb_count_state(t)
    for k in (1, 2):
        for e in ((15, 2, 15, 7), (0, 0, 0, 0)):
            assert (k, *e) not in t.values
            t.epoch_success_prob(k, e)
            nb_scores(t, k, e)
    assert nb_count_state(t) == before


@pytest.mark.parametrize("field", range(4))
def test_naive_bayes_rejects_a_field_value_out_of_range(field):
    # each evidence field value must lie in range(nb_space[field])
    t = fresh_table(nb_space=STATE_COUNTS)
    update_and_read(t, 1, EV, True)
    e = EV[:field] + (STATE_COUNTS[field],) + EV[field + 1:]
    with pytest.raises(IndexError):
        t.epoch_success_prob(1, e)
    t.sp_update(1, e, True)
    with pytest.raises(IndexError):
        t.begin_epoch()


def test_naive_bayes_refresh_bases_each_entry_on_the_earlier_ones():
    # begin_epoch applies its queue in order; the base of an unseen row is the
    # naive-Bayes estimate from counts that already hold the earlier entries
    t = fresh_table(alpha=0.9, nb_space=STATE_COUNTS)
    history = [(EV, True)]
    update_and_read(t, 1, EV, True)
    e2, e3 = (3, 1, 3, 2), (3, 2, 3, 2)  # EV in loss classes 1 and 2
    routed = t.epoch_success_prob(1, e3)  # routing's view in the ending period
    t.sp_update(1, e2, False)
    t.sp_update(1, e3, True)
    t.begin_epoch()
    for e, ok in ((e2, False), (e3, True)):
        s_succ, s_fail = nb_oracle(history, e, STATE_COUNTS)
        base = s_succ / (s_succ + s_fail)
        assert t.values[(1, *e)] == pytest.approx(0.9 * base + 0.1 * ok, rel=1e-12)
        history.append((e, ok))
    # e2's failure was counted before e3 was based, so e3 moved off routing's view
    s_succ, s_fail = nb_oracle(history[:1], e3, STATE_COUNTS)
    assert routed == pytest.approx(s_succ / (s_succ + s_fail), rel=1e-12)
    assert t.values[(1, *e3)] != pytest.approx(0.9 * routed + 0.1, rel=1e-6)


def test_warm_start_prior_prefers_min_hop():
    prior = warm_start_prior(HOPS, owner=1, detour_base=0.8)
    e_far = (10, 0, 2, 3)  # plenty of offset budget
    assert prior(2, e_far) == pytest.approx(1.0)       # 2 is on the shortest path 1-2-3
    assert prior(0, e_far) < prior(2, e_far)           # 0 walks away from 3
    e_tight = (1, 0, 2, 3)  # budget too small to go via 2 then 3
    assert prior(2, e_tight) < 0.1


def test_update_takes_effect_at_next_refresh():
    t = fresh_table(alpha=0.5)
    t.sp_update(1, EV, True)
    t.begin_epoch()
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.75)
    t.sp_update(1, EV, True)        # queued: 0.875 from the next refresh
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.75)
    t.begin_epoch()
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.875)


def test_epoch_freeze_covers_unseen_keys():
    t = fresh_table(alpha=0.5)
    t.begin_epoch()
    t.sp_update(1, EV, False)
    # at epoch start (1, EV) was unseen, so this period's view is the default
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.5)
    t.begin_epoch()
    assert t.epoch_success_prob(1, EV) == pytest.approx(0.25)


def test_loss_rate_window():
    w = LossRateWindow(window=1.0)
    assert w.ratio(0.0) == 0.0
    w.record_forward(0.1)
    w.record_forward(0.2)
    w.record_failure(0.3)
    assert w.ratio(0.5) == pytest.approx(0.5)
    # entries expire
    assert w.ratio(1.5) == 0.0


@pytest.mark.parametrize("mode, nb_space", [("cold", (16, 3, 16, 14)), ("warm", None)])
def test_simulator_tables_take_the_config_alpha_and_the_start_mode_nb_space(mode, nb_space):
    # naive Bayes runs on a cold start only, over every NSFnet node as a destination
    topo = load_topology(obs_gprm.data_path("nsfnet.topo"))
    sim = Simulator(topo, [], policy="gprm", config=SimConfig(alpha=0.8, initial_mode=mode))
    assert len(sim.nodes) == 14
    for router in sim.nodes.values():
        assert router.success.alpha == 0.8
        assert router.success.nb_space == nb_space


def test_config_rejects_bad_alpha_and_initial_sp():
    # alpha and initial_sp are checked once, before any SuccessTable is built
    for bad, field in (({"alpha": 1.2}, "alpha"), ({"initial_sp": -0.1}, "initial_sp")):
        cfg = SimConfig(**bad)
        assert any(p.startswith(field + ":") for p in cfg.problems())
    assert SimConfig(alpha=1.0, initial_sp=0.0).problems() == []
