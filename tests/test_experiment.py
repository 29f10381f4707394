import csv
import math
import os
import pathlib
import pickle
from dataclasses import fields, replace
from typing import get_args, get_origin

import pytest

import obs_gprm
from conftest import nsfnet_workload
from obs_gprm import experiment
from obs_gprm.cli import main
from obs_gprm.experiment import (
    Scenario,
    ScenarioError,
    parse_scenario,
    run_experiment,
    validate,
    worker_count,
)
from obs_gprm.metrics import BUCKET_WIDTH, MAX_BUCKETS, MAX_BURSTS
from obs_gprm.topology import load_topology, propagation_delay
from obs_gprm.traffic import connection_seed


def small_scenario(tmp_path, **overrides):
    base = dict(
        topology=obs_gprm.data_path("nsfnet.topo"),
        matrix=obs_gprm.data_path("us_ref.matrix"),
        policies=["sp", "gprm"],
        loads=[0.3],
        seeds=[1],
        duration=2.0,
        warmup=0.5,
        offset_guard=3e-4,
    )
    base.update(overrides)
    return Scenario(**base)


def write_scn(tmp_path, text):
    path = tmp_path / "test.scn"
    path.write_text(text)
    return str(path)


def rejected_by_both(capsys, path, out):
    """Run `validate` and `run` on the scenario file `path`: each must exit
    2 with the same stderr lines, and `out` must not exist; returns the lines."""
    lines = []
    for argv in (["validate", "--scenario", path],
                 ["run", "--scenario", path, "--out-dir", str(out)]):
        assert main(argv) == 2
        lines.append(capsys.readouterr().err.splitlines())
    assert lines[0] == lines[1], lines
    assert not os.path.exists(out)
    return lines[0]


def rejected_or_runs(capsys, path, out):
    """The input contract on the scenario file `path`: `validate` exits 0 or
    2 and never raises; what it rejects, `run` rejects with the same lines
    and no file; what it passes, `run` completes, or fails (exit 1) only on
    the documented zero or NaN `sp` baseline, and a failed run leaves no
    file."""
    code = main(["validate", "--scenario", path])
    assert code in (0, 2)
    if code == 2:
        rejected = capsys.readouterr().err
        assert all(l.startswith("error: ") for l in rejected.splitlines())
        assert main(["run", "--scenario", path, "--out-dir", out]) == 2
        assert capsys.readouterr().err == rejected
        assert not os.path.exists(out)
        return
    code = main(["run", "--scenario", path, "--out-dir", out])
    if code == 1:
        assert "baseline values must be > 0" in capsys.readouterr().err.splitlines()[-1]
        assert os.listdir(out) == []
    else:
        assert code == 0, capsys.readouterr().err
        assert "results.csv" in os.listdir(out)


def test_parse_scenario_file(tmp_path):
    path = write_scn(tmp_path, f"""
# comment
topology = {obs_gprm.data_path("nsfnet.topo")}
matrix = {obs_gprm.data_path("us_ref.matrix")}
policies = sp, gprm
loads = 0.1, 0.2
seeds = 1, 2, 3
duration = 5
warmup = 1
alpha = 0.95
""")
    s = parse_scenario(path)
    assert s.loads == [0.1, 0.2]
    assert s.seeds == [1, 2, 3]
    assert s.alpha == 0.95
    assert validate(s) == []


# every scenario key: (key, text in the file, parsed value); paths are relative
SCENARIO_KEYS = [
    ("topology", "net.topo", "net.topo"),
    ("matrix", "/abs/m.matrix", "/abs/m.matrix"),
    ("policies", "gprm, sp", ["gprm", "sp"]),
    ("loads", "0.1, 1", [0.1, 1.0]),
    ("seeds", "4, 5", [4, 5]),
    ("duration", "7", 7.0),
    ("warmup", "1.5", 1.5),
    ("alpha", "0.95", 0.95),
    ("initial_sp", "0.3", 0.3),
    ("refresh_period", "0.02", 0.02),
    ("initial_mode", "cold", "cold"),
    ("detour_penalty", "0.7", 0.7),
    ("blr_low", "0.02", 0.02),
    ("blr_high", "0.2", 0.2),
    ("blr_window", "0.3", 0.3),
    ("per_hop_processing", "2e-4", 2e-4),
    ("offset_guard", "3e-4", 3e-4),
    ("mean_burst_size", "1e5", 1e5),
    ("signal_speed", "3e8", 3e8),
]


@pytest.mark.parametrize("key,text,expected", SCENARIO_KEYS)
def test_every_scenario_key_parses_to_its_type(tmp_path, key, text, expected):
    assert {k for k, _, _ in SCENARIO_KEYS} == {f.name for f in fields(Scenario)}
    value = getattr(parse_scenario(write_scn(tmp_path, f"{key} = {text}\n")), key)
    if key in ("topology", "matrix"):
        expected = os.path.join(str(tmp_path), expected)
    assert value == expected
    items = zip(value, expected) if isinstance(expected, list) else [(value, expected)]
    assert all(type(v) is type(e) for v, e in items)


def test_parse_resolves_relative_paths(tmp_path):
    import shutil
    shutil.copy(obs_gprm.data_path("nsfnet.topo"), tmp_path / "net.topo")
    shutil.copy(obs_gprm.data_path("uniform.matrix"), tmp_path / "m.matrix")
    path = write_scn(tmp_path, "topology = net.topo\nmatrix = m.matrix\nloads = 0.1\n")
    s = parse_scenario(path)
    assert os.path.isabs(s.topology) and os.path.exists(s.topology)
    assert validate(s) == []


def test_parse_rejects_unknown_key(tmp_path):
    path = write_scn(tmp_path, "nonsense = 4\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(path)


@pytest.mark.parametrize("line, reason", [
    ("loads 0.3", "expected key = value, got 'loads 0.3'"),
    ("alpha = high", "bad value for alpha: could not convert string to float: 'high'"),
    ("seeds = 1, two", "bad value for seeds: invalid literal for int() with base 10: 'two'"),
], ids=["no-equals-sign", "bad-float", "bad-list-item"])
def test_parse_rejects_a_malformed_line(tmp_path, line, reason):
    path = write_scn(tmp_path, f"{line}\n")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(path)
    assert exc.value.errors == [f"{path}:1: {reason}"]


def test_parse_rejects_a_repeated_key(tmp_path):
    # a second value for a key must not silently replace the first
    path = write_scn(tmp_path, "loads = 0.3\n# one more load\nloads = 0.5\n")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(path)
    assert exc.value.errors == [f"{path}:3: key 'loads' is already set on line 1"]


@pytest.mark.parametrize("text, error", [
    ("loads = 0.3\n# one more load\nloads = 0.5\n", "3: key 'loads' is already set on line 1"),
    ("loads = 0.3\nloads 0.5\n", "2: expected key = value, got 'loads 0.5'"),
    ("loads = 0.3\nnonsense = 4\n", "2: unknown key 'nonsense'"),
    ("loads = 0.3\nseeds = 1.5\n",
     "2: bad value for seeds: invalid literal for int() with base 10: '1.5'"),
    ("loads = a\n", "1: bad value for loads: could not convert string to float: 'a'"),
], ids=["repeated-key", "no-equals-sign", "unknown-key", "float-seed", "text-load"])
def test_cli_names_the_line_of_a_malformed_scenario_file(tmp_path, capsys, text, error):
    path = write_scn(tmp_path, text)
    assert rejected_by_both(capsys, path, tmp_path / "out") == [f"error: {path}:{error}"]


def test_shipped_scenario_validates():
    s = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    assert validate(s) == []
    assert s.loads == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    assert s.mean_burst_size == 3.2e6


def test_validate_caps_the_learning_buckets(tmp_path):
    # validate allocates no bucket; a run of 2e10 buckets would exhaust memory.
    # Drops go on for up to 13 NSFnet hops after the end, each one processing
    # and at most the longest link's propagation delay. Bursts 10x the
    # default size keep a 10,000 s run under `MAX_BURSTS`
    topo = load_topology(obs_gprm.data_path("nsfnet.topo"))
    drain = 13 * (1e-4 + max(propagation_delay(l, 2e8) for l in topo.links.values()))
    assert drain == pytest.approx(0.1833)
    longest = MAX_BUCKETS * BUCKET_WIDTH - drain - BUCKET_WIDTH  # one bucket of slack
    assert validate(small_scenario(tmp_path, duration=longest * (1 - 1e-9),
                                   mean_burst_size=3.2e7)) == []
    errors = validate(small_scenario(tmp_path, duration=longest * (1 + 1e-9),
                                     mean_burst_size=3.2e7))
    assert len(errors) == 1 and errors[0].startswith("duration: "), errors
    assert validate(small_scenario(tmp_path, duration=2e4, mean_burst_size=3.2e7)) == [
        f"duration: a duration of 20000 s and a drain of 0.183 s make more than "
        f"{MAX_BUCKETS} buckets of 0.01 s"]


@pytest.mark.parametrize("speed", [1e3, 1.0, 1e-3])
def test_validate_caps_the_buckets_of_a_slow_signal_drain(tmp_path, capsys, speed):
    # a 0.4 s run whose in-flight bursts drain for up to 13 hops of 2,800 km:
    # their drops would fall in bucket 50,014 at 1e3 m/s, 5.0e7 at 1 m/s and
    # 5.0e10 at 1e-3 m/s, and the learning series allocates up to the last one
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    s = replace(shipped, loads=[0.3], seeds=[1], duration=0.4, warmup=0.1, signal_speed=speed)
    errors = validate(s)
    assert len(errors) == 1, errors
    assert errors[0].startswith("duration: a duration of 0.4 s and a drain of ")
    # `run` rejects it too, before it makes the out-dir or its staging directory
    path = write_scn(tmp_path, scenario_text(s))
    assert rejected_by_both(capsys, path, tmp_path / "out") == [f"error: {errors[0]}"]


def test_validate_caps_the_expected_bursts(tmp_path):
    # a run's bursts are its arrival rates at the highest load times its duration
    _, _, connections = nsfnet_workload(0.5, seed=1)
    longest = MAX_BURSTS / sum(c.lambda_ for c in connections)
    assert validate(small_scenario(tmp_path, loads=[0.3, 0.5], duration=0.99 * longest)) == []
    errors = validate(small_scenario(tmp_path, loads=[0.3, 0.5], duration=1.01 * longest))
    assert len(errors) == 1 and errors[0].startswith("mean_burst_size: 3.2e+06 bits at load 0.5 ")
    # each pair's rate is finite, but their sum overflows: the run would never end
    assert validate(small_scenario(tmp_path, mean_burst_size=1e-300)) == [
        f"mean_burst_size: 1e-300 bits at load 0.3 makes a 2 s run expect inf bursts, "
        f"more than {MAX_BURSTS}"]


@pytest.mark.parametrize("size, outcome", [(1e308, "overflow"), (1e-320, "underflow to 0")])
def test_validate_names_a_burst_size_whose_offered_load_overflows(size, outcome):
    # the pair with the largest term is blamed, and so is the burst size
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    assert validate(replace(shipped, loads=[0.3], mean_burst_size=size)) == [
        f"matrix: {shipped.matrix}:119: at load 0.3, pair 7 11: weight 185.25 and "
        f"mean_burst_size {size:g} make the offered load {outcome}"]


@pytest.mark.parametrize("overrides, error", [
    ({"policies": ["sp", "ospf"]}, "policies: must be sp or gprm, got 'ospf'"),
    ({"policies": []}, "policies: must not be empty"),
    ({"seeds": []}, "seeds: must not be empty"),
    ({"mean_burst_size": 0.0}, "mean_burst_size: must be in (0, inf), got 0.0"),
    ({"mean_burst_size": -3.2e6}, "mean_burst_size: must be in (0, inf), got -3200000.0"),
    # the key at fault is named, and `warmup < duration` is not checked
    ({"duration": 0.0}, "duration: must be in (0, inf), got 0.0"),
], ids=["unknown-policy", "no-policy", "no-seed", "zero-burst-size", "negative-burst-size",
        "zero-duration"])
def test_validate_rejects_a_bad_grid_or_burst_size(tmp_path, overrides, error):
    # an empty list is reachable through `replace` only: a file's list has an item
    assert validate(small_scenario(tmp_path, **overrides)) == [error]


@pytest.mark.parametrize("overrides, error", [
    ({"seeds": [1.5]}, "seeds: must be of type int, got 1.5"),
    ({"seeds": [True]}, "seeds: must be of type int, got True"),
    ({"warmup": True}, "warmup: must be of type float, got True"),
    ({"initial_mode": ["warm"]}, "initial_mode: must be of type str, got ['warm']"),
    ({"policies": "sp"}, "policies: must be of type list, got 'sp'"),
    ({"alpha": "0.5"}, "alpha: must be of type float, got '0.5'"),
    ({"loads": (0.3,)}, "loads: must be of type list, got (0.3,)"),
    ({"duration": 10**400}, f"duration: must be of type float, got {10**400}"),
    # a file key is never opened unless it is a `str`: open() takes an int as a
    # file descriptor, and a bool as 0 or 1
    ({"topology": 1.5}, "topology: must be of type str, got 1.5"),
    ({"matrix": True}, "matrix: must be of type str, got True"),
    ({"matrix": 2}, "matrix: must be of type str, got 2"),
    ({"topology": None}, "topology: must be of type str, got None"),
    ({"matrix": pathlib.PurePosixPath("m")}, "matrix: must be of type str, "
                                             "got PurePosixPath('m')"),
], ids=["float-seed", "bool-seed", "bool-warmup", "listed-word", "unlisted-policy",
        "text-alpha", "tuple-loads", "int-beyond-float", "float-topology", "bool-matrix",
        "int-matrix", "none-topology", "path-matrix"])
def test_validate_names_a_value_of_the_wrong_type(overrides, error):
    # a file's values are parsed to each field's type, but a scenario built in
    # code is not: a bool is not a number, and only a list key takes a list
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    assert validate(replace(shipped, **{"loads": [0.3], **overrides})) == [error]


@pytest.mark.parametrize("seeds, bad", [([1, 1 + 2**63], 1 + 2**63), ([-1, 2**63 - 1], -1)],
                         ids=["above", "negative"])
def test_validate_rejects_a_seed_that_would_alias_another(seeds, bad):
    # a connection keeps 63 bits of its seed: these two seeds would replay the
    # same traffic, and the seed mean would count one run twice
    assert connection_seed(seeds[0], 3, 6) == connection_seed(seeds[1], 3, 6)
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    assert validate(replace(shipped, seeds=seeds, loads=[0.3])) == [
        f"seeds: must be in [0, {2**63}), got {bad}"]
    assert validate(replace(shipped, seeds=[0, 2**63 - 1], loads=[0.3])) == []


def test_readme_key_table_gives_every_scenario_key_its_default_and_rule():
    # one row per key in field order; a row `a / b` gives two adjacent keys
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | default | rule | meaning |\n|---|---|---|---|\n", 1)[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        cells = [c.strip().replace("`", "").split(" / ") for c in line.split("|")[1:4]]
        rows += zip(*cells, strict=True)
    by_name = {f.name: f for f in fields(Scenario)}
    assert [key for key, _, _ in rows] == list(by_name)
    for key, default, rule_text in rows:
        f = by_name[key]
        assert getattr(Scenario(), key) == (
            experiment._parse_value(f.type, default) if default else f.type()), key
        rule = f.metadata.get("rule")
        expected = ("a file" if rule is None else
                    " or ".join(rule) if isinstance(rule, tuple) else f"in {rule}")
        if get_origin(f.type) is list:
            expected = f"each {expected}"
        assert rule_text == expected, key


def test_validate_reports_field_errors(tmp_path):
    s = small_scenario(tmp_path, warmup=5.0, duration=2.0, alpha=1.2,
                       matrix="/does/not/exist")
    errors = validate(s)
    joined = "\n".join(errors)
    assert "warmup" in joined
    assert "alpha" in joined
    assert "not found" in joined


def test_run_experiment_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path)
    written = run_experiment(s, out_dir=str(out), threads=1)
    with open(written["results"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # 2 policies x 1 load x 1 seed
    assert [r["policy"] for r in rows] == ["sp", "gprm"]
    for r in rows:
        assert 0.0 <= float(r["blr"]) <= 1.0
        assert float(r["utilization"]) > 0.0
        assert int(r["drops_contention"]) >= 0
    assert os.path.exists(out / "learning_sp_load0.3_seed1.csv")
    assert os.path.exists(out / "learning_gprm_load0.3_seed1.csv")
    assert os.path.exists(written["gains"])
    with open(written["gains"]) as fh:
        gains = list(csv.reader(fh))
    assert gains[0][0] == "load"
    assert gains[-1][0] == "mean"


def test_runs_cartesian_product_and_order(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path, loads=[0.2, 0.3], seeds=[1, 2], duration=1.0,
                       warmup=0.2, policies=["sp"])
    written = run_experiment(s, out_dir=str(out), threads=2)
    with open(written["results"]) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["policy"], float(r["load"]), int(r["seed"])) for r in rows] == [
        ("sp", 0.2, 1), ("sp", 0.2, 2), ("sp", 0.3, 1), ("sp", 0.3, 2)]


def test_repeat_invocation_byte_identical(tmp_path):
    # 2 policies x 2 loads: two workers take the runs longest first, out of
    # grid order, and must still write what one worker writes
    s = small_scenario(tmp_path, loads=[0.2, 0.4], duration=1.5, warmup=0.3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(s, out_dir=str(a), threads=1)
    run_experiment(s, out_dir=str(b), threads=2)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert len([n for n in names if n.startswith("learning_")]) == 4
    assert "gains.csv" in names and "results.csv" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class RecordingPool:
    """An in-process stand-in for `multiprocessing.Pool` that records the
    specs handed to `starmap`, in order, and the `chunksize` it was given."""

    calls = []

    def __init__(self, workers):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, specs, chunksize=None):
        specs = list(specs)
        RecordingPool.calls.append(([(pol, load, seed) for *_, pol, load, seed, _ in specs],
                                    chunksize))
        return [fn(*spec) for spec in specs]


def test_pool_gets_the_runs_longest_first_one_per_task(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "calls", [])
    s = small_scenario(tmp_path, loads=[0.2, 0.4], seeds=[1, 2], duration=0.5, warmup=0.2)
    written = run_experiment(s, out_dir=str(tmp_path / "out"), threads=2)
    assert RecordingPool.calls == [([
        ("gprm", 0.4, 1), ("gprm", 0.4, 2), ("sp", 0.4, 1), ("sp", 0.4, 2),
        ("gprm", 0.2, 1), ("gprm", 0.2, 2), ("sp", 0.2, 1), ("sp", 0.2, 2),
    ], 1)]
    with open(written["results"]) as fh:
        rows = [(r["policy"], float(r["load"]), int(r["seed"])) for r in csv.DictReader(fh)]
    assert rows == [(p, l, sd) for p in ("sp", "gprm") for l in (0.2, 0.4) for sd in (1, 2)]


def test_one_worker_runs_in_process(tmp_path, monkeypatch):
    # in the same longest-first order as a pool
    monkeypatch.setattr(experiment, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "calls", [])
    started = []
    run_single = experiment.run_single

    def recording_run_single(scenario, topology, connections, policy, load, seed, trace_path):
        started.append((policy, load, seed))
        return run_single(scenario, topology, connections, policy, load, seed, trace_path)

    monkeypatch.setattr(experiment, "run_single", recording_run_single)
    s = small_scenario(tmp_path, loads=[0.2, 0.4], duration=0.5, warmup=0.2)
    run_experiment(s, out_dir=str(tmp_path / "out"), threads=1)
    assert RecordingPool.calls == []
    assert started == [("gprm", 0.4, 1), ("sp", 0.4, 1), ("gprm", 0.2, 1), ("sp", 0.2, 1)]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_reads_each_input_file_once(tmp_path, monkeypatch, threads):
    # the check parses them, and the runs get what it parsed
    monkeypatch.setattr(experiment, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "calls", [])
    reads = {"topology": 0, "matrix": 0}

    def counting(key, loader):
        def wrapper(path):
            reads[key] += 1
            return loader(path)
        return wrapper

    monkeypatch.setattr(experiment, "load_topology",
                        counting("topology", experiment.load_topology))
    monkeypatch.setattr(experiment, "load_matrix", counting("matrix", experiment.load_matrix))
    s = small_scenario(tmp_path, loads=[0.2, 0.4], seeds=[1, 2], duration=0.5, warmup=0.2)
    run_experiment(s, out_dir=str(tmp_path / "out"), threads=threads)
    assert len(RecordingPool.calls) == (threads > 1)
    assert reads == {"topology": 1, "matrix": 1}


def test_both_policies_of_a_load_and_seed_share_one_connection_list(tmp_path, monkeypatch):
    run_single = experiment.run_single
    lists = {}  # (load, seed) -> {policy: id of its connection list}

    def recording_run_single(scenario, topology, connections, policy, load, seed, trace_path):
        lists.setdefault((load, seed), {})[policy] = id(connections)
        return run_single(scenario, topology, connections, policy, load, seed, trace_path)

    monkeypatch.setattr(experiment, "run_single", recording_run_single)
    s = small_scenario(tmp_path, loads=[0.2, 0.4], seeds=[1, 2], duration=0.5, warmup=0.2)
    run_experiment(s, out_dir=str(tmp_path / "out"), threads=1)
    assert sorted(lists) == [(l, sd) for l in (0.2, 0.4) for sd in (1, 2)]
    assert all(ids["sp"] == ids["gprm"] for ids in lists.values())
    assert len({ids["sp"] for ids in lists.values()}) == 4


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_run_single_leaves_its_inputs_reusable(tmp_path, policy):
    s = small_scenario(tmp_path, duration=1.0, warmup=0.2)
    topology, _, connections = nsfnet_workload(0.3, seed=1)  # the scenario's inputs
    before = pickle.dumps((topology, connections))
    first = experiment.run_single(s, topology, connections, policy, 0.3, 1)
    second = experiment.run_single(s, topology, connections, policy, 0.3, 1)
    assert first[0]["blr"] > 0
    assert first == second
    assert pickle.dumps((topology, connections)) == before


def test_learning_csv_columns(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path, policies=["gprm"], duration=1.0, warmup=0.2)
    run_experiment(s, out_dir=str(out), threads=1)
    with open(out / "learning_gprm_load0.3_seed1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t_bucket", "sent", "dropped", "rolling_blr"]
    assert sum(int(r["sent"]) for r in rows) > 0


def test_cli_runs_the_policy_and_seed_the_scenario_lists(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(
        f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
        f"matrix = {obs_gprm.data_path('us_ref.matrix')}\n"
        "policies = sp\nloads = 0.3\nseeds = 7\nduration = 1.0\nwarmup = 0.2\n"
        "offset_guard = 3e-4\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out-dir", str(out)]) == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["policy"], int(r["seed"])) for r in rows] == [("sp", 7)]
    assert sorted(os.listdir(out)) == ["learning_sp_load0.3_seed7.csv", "results.csv"]


def test_trace_flag_writes_stable_trace(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    s = small_scenario(tmp_path, policies=["sp"], duration=1.0, warmup=0.2)
    run_experiment(s, out_dir=str(out1), trace=True, threads=1)
    run_experiment(s, out_dir=str(out2), trace=True, threads=1)
    t1 = (out1 / "trace_sp_load0.3_seed1.log").read_text()
    t2 = (out2 / "trace_sp_load0.3_seed1.log").read_text()
    assert t1 == t2
    first = t1.splitlines()[0].split()
    assert len(first) >= 5  # time kind node burst_id detail


@pytest.mark.parametrize("alpha, threads_env, n_errors", [
    ("7", "", 1), ("0.1", "two", 1), ("7", "two", 2),
], ids=["bad-key", "bad-threads", "both"])
def test_run_rejects_what_validate_reports(tmp_path, monkeypatch, capsys, alpha, threads_env,
                                           n_errors):
    # one check: the library and both commands give the same errors, in order
    monkeypatch.setenv("OBS_SIM_THREADS", threads_env)
    path = write_scn(tmp_path, f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
                               f"matrix = {obs_gprm.data_path('us_ref.matrix')}\n"
                               f"loads = 0.3\nduration = 1\nwarmup = 0.2\nalpha = {alpha}\n")
    s = parse_scenario(path)
    errors = validate(s)
    assert len(errors) == n_errors, errors
    out = tmp_path / "out"
    with pytest.raises(ScenarioError) as exc:
        run_experiment(s, out_dir=str(out))
    assert exc.value.errors == errors
    assert rejected_by_both(capsys, path, out) == [f"error: {e}" for e in errors]


def test_invalid_scenario_raises_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path, loads=[])
    with pytest.raises(ScenarioError):
        run_experiment(s, out_dir=str(out), threads=1)
    assert not os.path.exists(out / "results.csv")


def test_lossless_baseline_fails_sweep_before_any_file(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path, loads=[0.01], duration=1.5, warmup=0.3)
    with pytest.raises(ValueError, match="baseline values must be > 0"):
        run_experiment(s, out_dir=str(out), threads=1)
    assert [name for name in os.listdir(out) if name.endswith(".csv")] == []


def test_undefined_baseline_fails_sweep_before_any_file(tmp_path):
    # some seeds send no burst in the 50 ms steady window, so the seed mean
    # of the sp BLR is NaN: no gain is defined, as with a zero baseline
    out = tmp_path / "out"
    s = small_scenario(tmp_path, loads=[0.01], seeds=list(range(1, 9)),
                       duration=0.25, warmup=0.2)
    with pytest.raises(ValueError, match=r"load 0.01: baseline values must be > 0, "
                                         r"got blr_sp=nan"):
        run_experiment(s, out_dir=str(out), threads=1)
    assert os.listdir(out) == []


def test_failed_traced_sweep_leaves_no_trace(tmp_path):
    out = tmp_path / "out"
    s = small_scenario(tmp_path, loads=[0.01], duration=1.5, warmup=0.3)
    with pytest.raises(ValueError, match="baseline values must be > 0"):
        run_experiment(s, out_dir=str(out), trace=True, threads=1)
    assert os.listdir(out) == []


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # the second learning CSV cannot be written: nothing may stay behind,
    # neither the CSVs already written nor the traces
    out = tmp_path / "out"
    calls = []
    write_learning = experiment._write_learning_csv

    def failing_second(path, arrays):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_learning(path, arrays)

    monkeypatch.setattr(experiment, "_write_learning_csv", failing_second)
    s = small_scenario(tmp_path, duration=1.0, warmup=0.2)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(s, out_dir=str(out), trace=True, threads=1)
    assert len(calls) == 2
    assert os.listdir(out) == []


def test_bad_thread_count_is_a_scenario_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("OBS_SIM_THREADS", "two")
    with pytest.raises(ScenarioError) as exc:
        worker_count(4)
    assert exc.value.errors == ["OBS_SIM_THREADS: expected an integer, got 'two'"]
    assert main(["run", "--scenario", obs_gprm.data_path("nsfnet_paper.scn"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error: OBS_SIM_THREADS: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value, reason", [("two", "expected an integer, got 'two'"),
                                           ("0", "must be >= 1, got '0'")])
def test_cli_validate_checks_the_thread_count(monkeypatch, capsys, value, reason):
    # `validate` must reject what `run` rejects, with the same line
    monkeypatch.setenv("OBS_SIM_THREADS", value)
    assert main(["validate", "--scenario", obs_gprm.data_path("nsfnet_paper.scn")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: OBS_SIM_THREADS: {reason}"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_thread_count_is_a_scenario_error(monkeypatch, tmp_path, capsys, value):
    monkeypatch.setenv("OBS_SIM_THREADS", value)
    with pytest.raises(ScenarioError) as exc:
        worker_count(4)
    assert exc.value.errors == [f"OBS_SIM_THREADS: must be >= 1, got '{value}'"]
    assert main(["run", "--scenario", obs_gprm.data_path("nsfnet_paper.scn"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error: OBS_SIM_THREADS: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -3, 2.5, "2", True])
def test_bad_threads_argument_is_a_scenario_error(tmp_path, threads):
    with pytest.raises(ScenarioError) as exc:
        worker_count(4, threads)
    assert exc.value.errors == [f"threads: must be an integer >= 1, got {threads!r}"]
    out = tmp_path / "out"
    with pytest.raises(ScenarioError) as exc:
        run_experiment(small_scenario(tmp_path), out_dir=str(out), threads=threads)
    assert exc.value.errors == [f"threads: must be an integer >= 1, got {threads!r}"]
    assert not out.exists()


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("OBS_SIM_THREADS", "3")
    assert worker_count(10) == 3
    assert worker_count(2) == 2
    monkeypatch.delenv("OBS_SIM_THREADS")
    assert worker_count(1) == 1


def test_cli_validate_ok():
    assert main(["validate", "--scenario", obs_gprm.data_path("nsfnet_paper.scn")]) == 0


def test_cli_validate_bad(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("topology = /nope\nmatrix = /nope\nloads = 0.1\nalpha = 7\n")
    assert main(["validate", "--scenario", str(path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("refresh_period", "nan"), ("per_hop_processing", "nan"), ("warmup", "nan"),
    ("blr_window", "nan"), ("offset_guard", "nan"),
    ("duration", "inf"), ("duration", "nan"), ("mean_burst_size", "nan"),
    ("signal_speed", "inf"), ("loads", "nan"), ("loads", "0.3, inf"),
    ("warmup", "inf"), ("duration", "-inf"),  # no `warmup: must be < duration` too
])
def test_cli_validate_rejects_non_finite(tmp_path, capsys, key, value):
    # NaN compares false with every bound, so `x <= 0` checks let it through
    # each key once: the bad value replaces the valid `loads` line
    keys = {"topology": obs_gprm.data_path("nsfnet.topo"),
            "matrix": obs_gprm.data_path("us_ref.matrix"), "loads": "0.3", key: value}
    path = write_scn(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["validate", "--scenario", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: "), lines


@pytest.mark.parametrize("topo_line, matrix_line, expected", [
    ("link 0 1 100 2 4 abc", "", "topology: {topo}:3: malformed line"),
    ("", "0 1 x", "matrix: {matrix}:2: malformed matrix line"),
    ("", "0 99 1.0", "matrix: nodes [99] are not in the topology"),
    ("", "0 1 -1", "matrix: {matrix}:2: negative weight for pair (0, 1)"),
    ("", "0 0 2.0", "matrix: {matrix}:2: self-traffic weight at node 0"),
    ("", "0 1 nan", "matrix: {matrix}:2: non-finite weight for pair (0, 1)"),
    ("", "0 1 inf", "matrix: {matrix}:2: non-finite weight for pair (0, 1)"),
    ("link 0 1 nan 2 4 1e9", "", "topology: {topo}:3: link 0->1: length must be finite"),
    ("link 0 1 inf 2 4 1e9", "", "topology: {topo}:3: link 0->1: length must be finite"),
    ("link 0 1 100 2 4 nan", "", "topology: {topo}:3: link 0->1: channel rate must be finite"),
    ("link 0 1 100 2 4 inf", "", "topology: {topo}:3: link 0->1: channel rate must be finite"),
    # finite inputs whose products overflow: every arrival rate would be 0
    ("", "0 1 1e308", "matrix: {matrix}:2: at load 0.3, pair 0 1: weight 1e+308 and "
                      "mean_burst_size 3.2e+06 make the offered load overflow"),
    ("link 0 1 100 2 4 1e308", "", "topology: egress capacity of nodes [0, 1] overflows"),
    # a node name is one word, and a link has exactly seven fields
    ("node 2 New York", "", "topology: {topo}:3: malformed line"),
    ("link 0 1 100 2 4 1e9 junk", "", "topology: {topo}:3: malformed line"),
], ids=["bad-link-record", "bad-matrix-line", "matrix-node-not-in-topology",
        "negative-matrix-weight", "self-traffic-weight", "nan-matrix-weight",
        "inf-matrix-weight", "nan-link-length", "inf-link-length", "nan-link-rate",
        "inf-link-rate", "huge-matrix-weight", "huge-link-rate", "extra-node-field",
        "extra-link-field"])
def test_cli_validate_parses_topology_and_matrix(tmp_path, capsys, topo_line, matrix_line,
                                                 expected):
    topo, matrix = tmp_path / "net.topo", tmp_path / "m.matrix"
    topo.write_text(f"node 0 a\nnode 1 b\n{topo_line or 'link 0 1 100 2 4 1e9'}\n")
    matrix.write_text(f"1 0 1.0\n{matrix_line}\n")
    path = write_scn(tmp_path, "topology = net.topo\nmatrix = m.matrix\nloads = 0.3\n")
    expected = expected.format(topo=topo, matrix=matrix)
    lines = rejected_by_both(capsys, path, tmp_path / "out")
    assert len(lines) == 1 and lines[0].startswith(f"error: {expected}"), lines


@pytest.mark.parametrize("key", ["topology", "matrix"])
def test_cli_reports_an_empty_file_key_as_missing(tmp_path, capsys, key):
    # an empty path is not resolved against the scenario's directory
    keys = {"topology": obs_gprm.data_path("nsfnet.topo"),
            "matrix": obs_gprm.data_path("us_ref.matrix"), "loads": "0.3", key: ""}
    path = write_scn(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert rejected_by_both(capsys, path, tmp_path / "out") == [f"error: {key}: missing"]


@pytest.mark.parametrize("text, where, reason", [
    ("node 0 a\nnode 2 c\nlink 0 2 100 2 4 1e9\n", ":2",
     "node ids must be dense 0..1, got [0, 2]"),
    ("node 0 a\nnode 1 b\nnode 2 c\nlink 0 1 100 2 4 1e9\n", ":3",
     "graph is disconnected; unreachable nodes [2]"),
    ("", "", "topology has no nodes"),
], ids=["non-dense-ids", "disconnected", "empty-file"])
def test_cli_validate_names_the_record_of_a_graph_rule(tmp_path, capsys, text, where, reason):
    topo = tmp_path / "net.topo"
    topo.write_text(text)
    path = write_scn(tmp_path, f"topology = net.topo\nloads = 0.3\n"
                               f"matrix = {obs_gprm.data_path('uniform.matrix')}\n")
    assert main(["validate", "--scenario", path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: topology: {topo}{where}: {reason}"]


@pytest.mark.parametrize("grid, key", [
    ("policies = sp, gprm, gprm\nloads = 0.3\nseeds = 1", "policies"),
    ("policies = sp\nloads = 0.3\nseeds = 1, 1", "seeds"),
    ("policies = sp\nloads = 0.3000001, 0.3000002\nseeds = 1", "loads"),  # both tag 0.3
], ids=["policies", "seeds", "loads"])
def test_cli_run_rejects_a_grid_that_repeats_runs(tmp_path, capsys, grid, key):
    # a repeated run would write its files over another's
    path = write_scn(tmp_path, f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
                               f"matrix = {obs_gprm.data_path('us_ref.matrix')}\n"
                               f"{grid}\nduration = 1.0\nwarmup = 0.2\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out-dir", str(out), "--trace"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: "), lines
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing.scn", ".", "latin1.scn"],
                         ids=["missing", "directory", "not-utf8"])
def test_cli_reports_an_unreadable_scenario(tmp_path, capsys, where):
    (tmp_path / "latin1.scn").write_bytes(b"loads = 0.3  # caf\xe9\n")
    lines = rejected_by_both(capsys, str(tmp_path / where), tmp_path / "out")
    assert len(lines) == 1 and lines[0].startswith("error: cannot read scenario: "), lines


@pytest.mark.parametrize("key", ["topology", "matrix"])
def test_cli_names_an_input_file_that_is_not_utf8(tmp_path, capsys, key):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# caf\xe9\n")
    keys = {"topology": obs_gprm.data_path("nsfnet.topo"),
            "matrix": obs_gprm.data_path("us_ref.matrix"), "loads": "0.3", key: bad}
    path = write_scn(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    lines = rejected_by_both(capsys, path, tmp_path / "out")
    assert len(lines) == 1 and lines[0].startswith(
        f"error: {key}: {bad}: 'utf-8' codec can't decode byte 0xe9"), lines


@pytest.mark.parametrize("kind", ["scenario", "topology", "matrix"])
def test_cli_reads_an_input_file_saved_with_a_bom(tmp_path, capsys, kind):
    # some editors start a UTF-8 file with a byte order mark; it is no part
    # of the first record
    files = {"topology": ("net.topo", "node 0 a\nnode 1 b\nlink 0 1 100 2 4 1e9\n"),
             "matrix": ("m.matrix", "0 1 1.0\n1 0 1.0\n"),
             "scenario": ("test.scn", "loads = 0.3\ntopology = net.topo\nmatrix = m.matrix\n")}
    for key, (name, text) in files.items():
        (tmp_path / name).write_text("\ufeff" * (key == kind) + text, encoding="utf-8")
    assert main(["validate", "--scenario", str(tmp_path / "test.scn")]) == 0
    assert capsys.readouterr().err.splitlines() == ["scenario ok"]


def test_cli_failed_run_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a lossless sp baseline has no relative gain, so the sweep fails after its runs
    monkeypatch.setenv("OBS_SIM_THREADS", "1")
    path = write_scn(tmp_path, f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
                               f"matrix = {obs_gprm.data_path('us_ref.matrix')}\n"
                               "loads = 0.01\nduration = 1.5\nwarmup = 0.3\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out-dir", str(out), "--trace"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: load 0.01: baseline values must be > 0")
    assert os.listdir(out) == []


def rule_values(rule, kind):
    """The values a key, or an item of a list key, of type `kind` is fuzzed
    with: each word of a word rule and a wrong one; or each end of an
    interval, the values just inside and just outside it, -0.0, nan and inf,
    and for a float also 1e-320, 1e-300 and 1e308. These finite values pass
    most rules, but their quotients (offset / per_hop_processing, now /
    refresh_period, event times grown by a vanishing signal speed) overflow,
    or their burst count does."""
    if isinstance(rule, tuple):
        return [*rule, "bogus"]
    values = [-0.0, math.nan, math.inf]
    for end in (rule.low, rule.high):
        if kind is int:  # an integer's neighbours; its ends are finite
            values += [int(end) - 1, int(end), int(end) + 1]
        else:
            values += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    return values + [1e-320, 1e-300, 1e308] * (kind is float)


def fuzzed_edits():
    """(key, value text) for every scenario key with a rule, drawn from that
    rule; a list key is also set empty and to its first item twice (`{0}`
    stands for that item). The two file keys have no rule: a file's text is
    always a `str`, and `_check` parses the file it names."""
    edits = []
    for f in fields(Scenario):
        if "rule" not in f.metadata:
            continue
        is_list = get_origin(f.type) is list
        kind = get_args(f.type)[0] if is_list else f.type
        texts = [str(v) for v in rule_values(f.metadata["rule"], kind)]
        edits += [(f.name, t) for t in dict.fromkeys(texts + ["", "{0}, {0}"] * is_list)]
    return edits


def scenario_text(scenario, **raw):
    """`scenario` as a scenario file that `parse_scenario` reads back to it
    (`str` of a float round-trips, `-0.0`, `nan` and `inf` included), with
    the value text of each key in `raw` written in place of its own."""
    def text(value):
        return ", ".join(map(str, value)) if isinstance(value, list) else str(value)
    return "".join(f"{f.name} = {raw.get(f.name, text(getattr(scenario, f.name)))}\n"
                   for f in fields(scenario))


EDITS = fuzzed_edits()


@pytest.mark.parametrize("key, value, duration",
                         [(k, v, (0.05, 0.1, 0.2)[i % 3]) for i, (k, v) in enumerate(EDITS)],
                         ids=[f"{k}={v}" for k, v in EDITS])
def test_an_edge_scenario_is_rejected_or_runs(tmp_path, monkeypatch, capsys, key, value,
                                              duration):
    monkeypatch.setenv("OBS_SIM_THREADS", "1")
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    s = replace(shipped, loads=[0.3], seeds=[1], duration=duration, warmup=duration / 4)
    first = getattr(s, key)
    value = value.format(first[0] if isinstance(first, list) else first)
    path = write_scn(tmp_path, scenario_text(s, **{key: value}))
    rejected_or_runs(capsys, path, str(tmp_path / "out"))


# the numeric fields, by position, of the first record of each kind in the
# shipped input files; `src`, `dst` and `id` name a node
INPUT_RECORDS = [
    ("topology", "nsfnet.topo", "node", {1: "id"}),
    ("topology", "nsfnet.topo", "link",
     {1: "src", 2: "dst", 3: "km", 4: "control", 5: "data", 6: "rate"}),
    ("matrix", "us_ref.matrix", None, {0: "src", 1: "dst", 2: "weight"}),
]
# `data` stays under `MAX_DATA_CHANNELS`: an int field takes only 0 and -1
NUMERIC_TEXTS = ("0", "-1", "nan", "inf", "1e308", "1e-320")


def input_file_edits():
    """(file key, edit id, file text) for the shipped topology and matrix,
    each changed at one line, the first record of a kind in `INPUT_RECORDS`:
    an extra or a missing field, the line repeated, an unknown record name,
    a node id out of range (NSFnet has nodes 0-13), a link or pair to
    itself, or one of `NUMERIC_TEXTS` in one numeric field."""
    edits = []
    for key, name, kind, numeric in INPUT_RECORDS:
        with open(obs_gprm.data_path(name)) as fh:
            lines = fh.readlines()
        at = next(i for i, l in enumerate(lines)
                  if not l.startswith("#") and kind in (None, l.split()[0]))
        record = lines[at].split()

        def with_field(i, text):
            return record[:i] + [text] + record[i + 1:]

        ids = [i for i, f in numeric.items() if f in ("src", "dst", "id")]
        variants = {"extra-field": record + ["1"], "missing-field": record[:-1],
                    "unknown-record": ["router"] + record[1:],
                    **{f"{numeric[i]}-out-of-range": with_field(i, "14") for i in ids},
                    **{f"{numeric[i]}={v}": with_field(i, v)
                       for i in numeric for v in NUMERIC_TEXTS}}
        if len(ids) == 2:
            variants["to-itself"] = with_field(ids[1], record[ids[0]])
        texts = {what: [" ".join(f) + "\n"] for what, f in variants.items() if f != record}
        texts["repeated"] = [lines[at]] * 2
        edits += [(key, f"{key}:{kind or 'pair'}:{what}", "".join(lines[:at] + t + lines[at + 1:]))
                  for what, t in texts.items()]
    return edits


INPUT_EDITS = input_file_edits()


@pytest.mark.parametrize("key, text", [(k, t) for k, _, t in INPUT_EDITS],
                         ids=[i for _, i, _ in INPUT_EDITS])
def test_an_edge_input_file_is_rejected_or_runs(tmp_path, monkeypatch, capsys, key, text):
    # the scenario fuzz's contract, for the topology and matrix files
    monkeypatch.setenv("OBS_SIM_THREADS", "1")
    edited = tmp_path / f"edited.{key}"
    edited.write_text(text)
    shipped = parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    s = replace(shipped, loads=[0.3], seeds=[1], duration=0.1, warmup=0.025,
                **{key: str(edited)})
    rejected_or_runs(capsys, write_scn(tmp_path, scenario_text(s)), str(tmp_path / "out"))


def test_cli_runs_what_it_validates_at_a_vanishing_refresh_period(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setenv("OBS_SIM_THREADS", "1")
    path = write_scn(tmp_path, f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
                               f"matrix = {obs_gprm.data_path('us_ref.matrix')}\n"
                               "loads = 0.3\nduration = 0.4\nwarmup = 0.1\n"
                               "offset_guard = 3e-4\nrefresh_period = 5e-324\n")
    assert main(["validate", "--scenario", path]) == 0
    assert capsys.readouterr().err.splitlines() == ["scenario ok"]
    assert main(["run", "--scenario", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert "error" not in capsys.readouterr().err


def test_cli_run_small(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(
        f"topology = {obs_gprm.data_path('nsfnet.topo')}\n"
        f"matrix = {obs_gprm.data_path('uniform.matrix')}\n"
        "policies = sp\nloads = 0.2\nseeds = 4\nduration = 1.0\nwarmup = 0.2\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out-dir", str(out)]) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("flag", [["--policy", "sp"], ["--seed-override", "7"],
                                  ["--util-mode", "all"]], ids=lambda f: f[0])
def test_run_takes_every_setting_from_the_scenario(tmp_path, capsys, flag):
    # the scenario file is the one place for every run setting, so `run`
    # gets no second way to set one that `validate` would not check
    path = write_scn(tmp_path, scenario_text(small_scenario(tmp_path, duration=0.4,
                                                           warmup=0.1)))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", path, "--out-dir", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_the_retired_util_mode_key(tmp_path, capsys):
    # utilization counts delivered bursts only; a file that still picks a
    # mode must fail, not run with the other accounting
    path = write_scn(tmp_path, scenario_text(small_scenario(tmp_path)) + "util_mode = all\n")
    lines = rejected_by_both(capsys, path, tmp_path / "out")
    assert lines == [f"error: {path}:{len(fields(Scenario)) + 1}: unknown key 'util_mode'"]


def test_cli_rejects_the_retired_bucket_width_key(tmp_path, capsys):
    # the learning series has one resolution, 10 ms buckets; a file that
    # still sets another must fail, not run at that one
    path = write_scn(tmp_path, scenario_text(small_scenario(tmp_path)) + "bucket_width = 0.05\n")
    lines = rejected_by_both(capsys, path, tmp_path / "out")
    assert lines == [f"error: {path}:{len(fields(Scenario)) + 1}: unknown key 'bucket_width'"]
