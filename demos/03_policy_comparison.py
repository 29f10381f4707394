#!/usr/bin/env python3
"""Adaptive (GPRM) vs shortest-path routing on NSFnet, three loads.

The shipped comparison scenario, `nsfnet_paper.scn`, cut to seed 1 at three
loads: both policies replay one workload per load, and the table shows their
steady-state loss / delay / utilization from the sweep's gains.csv. Writes a
PNG of the loss curves when matplotlib is available. It takes about 6 s on
two cores.
"""

import csv
import tempfile
from dataclasses import replace

import obs_gprm
from obs_gprm.experiment import parse_scenario, run_experiment


def main():
    scenario = replace(parse_scenario(obs_gprm.data_path("nsfnet_paper.scn")),
                       loads=[0.1, 0.3, 0.5], seeds=[1], duration=65.0)
    with tempfile.TemporaryDirectory() as out:
        with open(run_experiment(scenario, out_dir=out)["gains"]) as fh:
            # the last two rows are the sum and mean of the gains
            rows = [{k: float(v) for k, v in r.items()} for r in list(csv.DictReader(fh))[:-2]]
    print(f"{'load':>5} {'BLR sp':>9} {'BLR gprm':>9} {'reduction':>9} "
          f"{'delay diff':>11} {'util sp':>8} {'util gprm':>9}")
    for r in rows:
        print(f"{r['load']:>5.1f} {r['blr_sp']:>9.5f} {r['blr_gprm']:>9.5f} "
              f"{r['blr_gain_point']:>9.1%} "
              f"{(r['delay_gprm_s'] - r['delay_sp_s']) * 1e3:>+9.2f}ms "
              f"{r['util_sp']:>8.4f} {r['util_gprm']:>9.4f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    loads = [r["load"] for r in rows]
    plt.figure(figsize=(5, 3.5))
    plt.plot(loads, [r["blr_sp"] for r in rows], "o-", label="shortest path")
    plt.plot(loads, [r["blr_gprm"] for r in rows], "s-", label="GPRM")
    plt.xlabel("offered load")
    plt.ylabel("burst loss ratio")
    plt.legend()
    plt.tight_layout()
    plt.savefig("policy_comparison.png", dpi=120)
    print("wrote policy_comparison.png")


if __name__ == "__main__":
    main()
