#!/usr/bin/env python3
"""Tour of the shipped NSFnet topology and the static routing baseline.

Shows hop counts, propagation delays, the min-hop next-hop table, and how
the gravity traffic matrix concentrates demand on a few corridors.
"""

from statistics import mean

import obs_gprm
from obs_gprm.routing import shortest_path_table
from obs_gprm.signaling import SimConfig
from obs_gprm.topology import load_topology, propagation_delay
from obs_gprm.traffic import load_matrix


def main():
    topo = load_topology(obs_gprm.data_path("nsfnet.topo"))
    print(f"nodes: {len(topo.nodes)}, directed links: {len(topo.links)}")

    hops = topo.hop_counts()
    counts = [hops[(i, j)] for i in topo.nodes for j in topo.nodes if i != j]
    print(f"hop counts: mean {mean(counts):.2f}, max {max(counts)}")

    speed = SimConfig().signal_speed
    delays = [propagation_delay(l, speed) * 1e3 for l in topo.links.values()]
    print(f"one-way link delays: {min(delays):.1f}..{max(delays):.1f} ms "
          f"(mean {mean(delays):.1f} ms)")

    table = shortest_path_table(topo)
    src, dst = 1, 11  # Palo Alto -> Ithaca
    path, node = [src], src
    while node != dst:
        node = table[(node, dst)]
        path.append(node)
    names = " -> ".join(topo.names[n] for n in path)
    print(f"min-hop route {topo.names[src]} to {topo.names[dst]}: {names}")

    matrix = load_matrix(obs_gprm.data_path("us_ref.matrix"))
    top = sorted(matrix.weights.items(), key=lambda kv: -kv[1])[:5]
    print("heaviest demand pairs (gravity weights):")
    for (i, j), w in top:
        print(f"  {topo.names[i]:>12} -> {topo.names[j]:<12} {w:8.1f}")


if __name__ == "__main__":
    main()
