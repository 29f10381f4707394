#!/usr/bin/env python3
"""Learning curve of a cold-started adaptive network.

Every node begins with uniform success probabilities (no routing tables, no
hop counts in the learner) and must discover workable routes purely from
ACK/NACK notifications. The rolling loss ratio is compared against the
steady-state level of the informed shortest-path baseline on the identical
workload. Small bursts (40 KB) keep the notification rate high enough that
the network organizes itself within a second.
"""

import obs_gprm
from obs_gprm.metrics import BUCKET_WIDTH, rolling_ratio
from obs_gprm.signaling import SimConfig, Simulator
from obs_gprm.topology import load_topology
from obs_gprm.traffic import LoadSpec, load_matrix, scale_to_load

MEAN_BURST = 3.2e5  # 40 KB
LOAD = 0.4


def main():
    topo = load_topology(obs_gprm.data_path("nsfnet.topo"))
    matrix = load_matrix(obs_gprm.data_path("us_ref.matrix"))
    caps = {n: topo.egress_capacity(n) for n in topo.nodes}
    conns = scale_to_load(matrix, LoadSpec(LOAD, caps), MEAN_BURST, master_seed=1)

    sp = Simulator(topo, conns, policy="sp",
                   config=SimConfig(warmup=2.0, offset_guard=3e-4)).run(12.0)
    print(f"shortest-path steady-state BLR: {sp.blr():.4f}")

    cfg = SimConfig(warmup=0.5, offset_guard=3e-4, initial_mode="cold",
                    alpha=0.75, refresh_period=0.01, blr_window=1.0,
                    blr_low=0.05, blr_high=0.15)
    res = Simulator(topo, conns, policy="gprm", config=cfg).run(4.0)
    times, sent, dropped = res.series.arrays()
    rolling = rolling_ratio(sent, dropped)

    print("cold-start rolling BLR (200 ms window):")
    for t in (0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        print(f"  t = {t:4.2f} s   {rolling[int(t / BUCKET_WIDTH)]:.4f}")
    threshold = 1.1 * sp.blr()
    for t, r in zip(times, rolling):
        if r <= threshold and t >= 0.2:
            print(f"within 10% of the baseline after {t:.2f} s")
            break

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    plt.figure(figsize=(5.5, 3.5))
    plt.plot(times, rolling, label="cold-start GPRM (rolling)")
    plt.axhline(sp.blr(), color="k", ls="--", label="shortest path steady state")
    plt.xlabel("simulated time (s)")
    plt.ylabel("burst loss ratio")
    plt.ylim(0, min(1.0, max(rolling) * 1.1))
    plt.legend()
    plt.tight_layout()
    plt.savefig("cold_start_learning.png", dpi=120)
    print("wrote cold_start_learning.png")


if __name__ == "__main__":
    main()
