#!/usr/bin/env python3
"""Peek inside a node's learned state after a short adaptive run.

Dumps part of one node's success table in its text format and the routing
costs of its neighbors for a hot destination, showing how notification
feedback separated the candidates.
"""

import io

import obs_gprm
from obs_gprm.signaling import SimConfig, Simulator
from obs_gprm.topology import load_topology
from obs_gprm.traffic import LoadSpec, load_matrix, scale_to_load

NODE = 5       # Houston: degree-4 hub
DEST = 11      # Ithaca


def main():
    topo = load_topology(obs_gprm.data_path("nsfnet.topo"))
    matrix = load_matrix(obs_gprm.data_path("us_ref.matrix"))
    caps = {n: topo.egress_capacity(n) for n in topo.nodes}
    conns = scale_to_load(matrix, LoadSpec(0.4, caps), 3.2e6, master_seed=1)
    cfg = SimConfig(warmup=1.0, offset_guard=3e-4, alpha=0.97, refresh_period=0.02)
    sim = Simulator(topo, conns, policy="gprm", config=cfg)
    sim.run(20.0)

    table = sim.nodes[NODE].success
    name = topo.names[NODE]
    print(f"success table of {name}: {len(table.values)} observed entries")
    buf = io.StringIO()
    table.dump(buf)
    lines = [l for l in buf.getvalue().splitlines() if l.split()[-2:-1] == [str(DEST)]]
    print(f"entries toward {topo.names[DEST]} (k o b nb d sp):")
    for line in lines[:12]:
        print(" ", line)

    hops = topo.hop_counts()
    # (offset class, loss class, hop class, destination)
    e = (hops[(NODE, DEST)] + 3, 0, hops[(NODE, DEST)], DEST)
    print(f"\nrouting row for evidence {e} (cost = 1 - success):")
    for k in topo.neighbors[NODE]:
        sp = table.epoch_success_prob(k, e)
        print(f"  via {topo.names[k]:>12}: cost {1 - sp:.4f}")


if __name__ == "__main__":
    main()
