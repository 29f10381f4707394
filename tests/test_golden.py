"""Golden outputs: a small cut of the shipped paper sweep must reproduce these
SHA-256 digests byte for byte.

A refactor that claims "no output change" is checked here: every result
file of a traced sweep (both policies, two loads, two seeds) is hashed, once
with a warm and once with a cold start; the warm sweep must also give its
digests whichever way `multiprocessing` starts its pool workers. A digest
may change only with a deliberate change of the model or of a file format.
"""

import hashlib
import multiprocessing
import os
from dataclasses import replace

import pytest

import obs_gprm
from conftest import nsfnet_workload
from obs_gprm import experiment
from obs_gprm.experiment import parse_scenario, run_experiment
from obs_gprm.signaling import Simulator

GOLDEN = {
    "warm": {
        "results": "9cf7932367a99c75f0c90b483130e29f"
            "2c9ad654e444c463cdd91fbd48bbe043",
        "learning": "b66ce5fbf6a6dd45c3258606a80cecab"
            "ba89ba333de555ce4741bbfadad3dfc5",
        "gains": "9f921008d37234a3d67964552a3687b4"
            "5658d32c0c1a5e18711687c7c7fbe58c",
        "traces": "c0e105c161d6ebbdea28184d5dcba92f"
            "09e8b9615d0cedf3dba12c21a9dbbb76",
    },
    "cold": {
        "results": "c34e56fcf56ce99b0f4722db95f953dd"
            "4713aea7dad78aafdd16c14bc0ec35cb",
        "learning": "95bfac32dbd12fd7370bc8ce0d9a2fba"
            "e4f9ffcd09d54384053adede5c6cd57f",
        "gains": "db9981362c13977e2bcc5c15c10ae66a"
            "1c5a702dcaae022988db107f36914cf7",
        "traces": "60036362f85d0e1b83ad044feedf1992"
            "6cdfc0f9757a5794867b4fb5c8309381",
    },
}


def _group(name):
    if name == "results.csv":
        return "results"
    if name == "gains.csv":
        return "gains"
    if name.startswith("learning_"):
        return "learning"
    if name.startswith("trace_"):
        return "traces"
    raise AssertionError(f"unexpected output file {name}")


def output_digests(out_dir):
    """One digest per output kind over its files' names and bytes, in name order."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        h = digests.setdefault(_group(name), hashlib.sha256())
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return {kind: h.hexdigest() for kind, h in digests.items()}


def small_paper_sweep(out_dir, initial_mode):
    """The digests of the traced sweep cut from the shipped scenario, run on
    two pool workers."""
    scenario = replace(parse_scenario(obs_gprm.data_path("nsfnet_paper.scn")),
                       policies=["sp", "gprm"], loads=[0.3, 0.6], seeds=[1, 2],
                       duration=1.5, warmup=0.3, initial_mode=initial_mode)
    run_experiment(scenario, out_dir=str(out_dir), trace=True, threads=2)
    return output_digests(out_dir)


@pytest.mark.parametrize("initial_mode", ["warm", "cold"])
def test_small_paper_sweep_matches_golden_digests(tmp_path, initial_mode):
    assert small_paper_sweep(tmp_path, initial_mode) == GOLDEN[initial_mode]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_golden_sweep_does_not_depend_on_the_start_method(tmp_path, monkeypatch, method):
    # a worker that started from a fresh interpreter, not a fork of this one,
    # inherits no module state, and must still write the same bytes
    monkeypatch.setattr(experiment, "Pool", multiprocessing.get_context(method).Pool)
    assert small_paper_sweep(tmp_path, "warm") == GOLDEN["warm"]


# the learned success values of every node after one short adaptive run, as
# `node key repr(value)` lines: what the routing rows are built from
LEARNED_GOLDEN = {
    "warm": "a974ba580f95f04525a8db13cb0af0b2"
        "db77fc4cca2b84cc008298c8b85e7893",
    "cold": "2044f5a0919c4083054cdd4ee26fad90"
        "12d18adc9737400e3b6162666e2f132f",
}


def learned_state_digest(sim):
    h = hashlib.sha256()
    for n in sorted(sim.nodes):
        values = sim.nodes[n].success.values
        for key in sorted(values):
            h.update(f"{n} {key} {values[key]!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("initial_mode", ["warm", "cold"])
def test_learned_state_matches_golden_digest(initial_mode):
    scenario = replace(parse_scenario(obs_gprm.data_path("nsfnet_paper.scn")),
                       duration=1.5, warmup=0.3, initial_mode=initial_mode)
    topology, _, connections = nsfnet_workload(0.4, seed=1)  # the scenario's files and burst size
    sim = Simulator(topology, connections, policy="gprm", config=scenario)
    sim.run(scenario.duration)
    assert learned_state_digest(sim) == LEARNED_GOLDEN[initial_mode]
