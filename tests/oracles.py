"""Independent reference implementations used to check the package.

Everything here is deliberately written differently from the package
code: brute-force scans, dense linear algebra, no shared helpers.
"""

from __future__ import annotations

import numpy as np

from neartag.analysis import AnalysisConfig, SynsetGraph
from neartag.lexicon import RelationType


def brute_force_knn(ids, matrix, query, k):
    """Direct float64 distances, sorted by (distance, id)."""
    diffs = matrix.astype(np.float64) - np.asarray(query, dtype=np.float64)
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))
    return [(ids[i], float(dists[i])) for i in order[: min(k, len(ids))]]


def dense_fixed_point(graph: SynsetGraph, config: AnalysisConfig) -> np.ndarray:
    """Solve the stationary distribution as a dense linear system.

    With M[u, v] the transition weight of u -> v and d the dangling
    indicator, the fixed point satisfies
        (I - (1 - alpha) (M^T + r d^T)) p = alpha r
    """
    n = len(graph.nodes)
    restart = np.array(graph.restart, dtype=float)

    out_weight = np.zeros(n)
    for src, rel, _dst in graph.edges:
        out_weight[src] += config.lambdas.get(rel, 0.0)
    m = np.zeros((n, n))
    for src, rel, dst in graph.edges:
        lam = config.lambdas.get(rel, 0.0)
        if lam > 0.0 and out_weight[src] > 0.0:
            m[src, dst] += lam / out_weight[src]
    dangling = (out_weight == 0.0).astype(float)

    a = m.T + np.outer(restart, dangling)
    system = np.eye(n) - (1.0 - config.alpha) * a
    return np.linalg.solve(system, config.alpha * restart)


def random_graph(rng: np.random.Generator, max_nodes: int = 6, connected: bool = True):
    """A random small SynsetGraph plus a matching AnalysisConfig.

    When ``connected`` the undirected skeleton is a spanning tree plus
    extra edges, so the graph is connected as criterion tests require.
    """
    n = int(rng.integers(1, max_nodes + 1))
    relations = list(RelationType)
    edges = []
    if connected and n > 1:
        order = rng.permutation(n)
        for i in range(1, n):
            a = int(order[i])
            b = int(order[int(rng.integers(0, i))])
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, relations[int(rng.integers(0, 4))], b))
    extra = int(rng.integers(0, n * 2 + 1))
    for _ in range(extra):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.append((a, relations[int(rng.integers(0, 4))], b))
    edges = list(dict.fromkeys(edges))

    raw = rng.random(n) + 1e-3
    restart = raw / raw.sum()
    nodes = tuple(f"s{i}" for i in range(n))

    lambdas = {rel: float(rng.choice([0.0, 0.5, 1.0, 2.0], p=[0.1, 0.3, 0.4, 0.2])) for rel in RelationType}
    alpha = float(rng.uniform(0.1, 1.0))
    config = AnalysisConfig(alpha=alpha, lambdas=lambdas, tol=1e-12, max_iters=2000)
    return SynsetGraph(nodes=nodes, restart=restart, edges=tuple(edges)), config
