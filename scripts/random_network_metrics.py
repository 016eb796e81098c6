#!/usr/bin/env python3
"""Sample random cluster networks and tabulate their step-distance profile.

Reports the distribution of finite distances, the infinity rate, and
confirms the pseudo-metric laws on every sample. Useful for eyeballing how
dense the step relation must be before networks collapse to diameter <= 2.
"""

from __future__ import annotations

import argparse
import collections
import random

from thdist.network import ClusterNetwork, NetEdge, distance_matrix


def sample(rng: random.Random, nodes: int, equiv_rate: float, step_rate: float) -> ClusterNetwork:
    names = tuple(f"n{i}" for i in range(nodes))
    edges = []
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if rng.random() < equiv_rate:
                edges.append(NetEdge(names[i], names[j], 0, "equiv"))
            elif rng.random() < step_rate:
                edges.append(NetEdge(names[i], names[j], 1, "step"))
    return ClusterNetwork("sample", "symmetric", names, tuple(edges))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--nodes", type=int, default=25)
    parser.add_argument("--equiv-rate", type=float, default=0.05)
    parser.add_argument("--step-rate", type=float, default=0.08)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    histogram: collections.Counter = collections.Counter()
    for _ in range(args.samples):
        net = sample(rng, args.nodes, args.equiv_rate, args.step_rate)
        matrix = distance_matrix(net)
        dist = {}
        for a in net.nodes:
            for b in net.nodes:
                value = matrix[a][b].value
                dist[a, b] = value
                histogram[str(value)] += 1
        for (a, b), value in dist.items():
            assert value == dist[b, a], "symmetry violated"
            assert (value.to_json() == 0) <= (a == b or value.is_finite)
        for a in net.nodes:
            for b in net.nodes:
                for c in net.nodes:
                    assert dist[a, b] <= dist[a, c] + dist[c, b], "triangle violated"

    total = sum(histogram.values())
    print(f"{args.samples} networks on {args.nodes} nodes "
          f"(equiv {args.equiv_rate}, step {args.step_rate})")
    for value, count in sorted(histogram.items(), key=lambda kv: (kv[0] != "infinity", kv[0])):
        print(f"  d = {value:>9}: {count / total:6.1%}")
    print("pseudo-metric laws held on every sample")


if __name__ == "__main__":
    main()
