"""The benchmark's workloads: corpus shape, index settings and run structure.

Every workload runs the engine defaults (k=70, m=5, s=7, n=100, all four
relations, expansion depth 1). Only the corpus and the index differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields other than rng_seed
    index: dict  # IndexConfig fields other than dim
    batch_queries: int  # queries per batch pass, taken in id order
    single_queries: int  # single-query calls per round, an evenly spaced fixed sample
    check_queries: int  # queries checked against the linear scan and the reference annotator
    tail_pct: float  # percentile reported as latency_tail_ms
    cli_check: bool  # also run `neartag annotate` through cli.main and compare bytes

    @property
    def dim(self) -> int:
        return self.synth["dim"]


_DESK = dict(dim=256, num_concepts=50, refs_per_concept=2000, num_queries=1000,
             cluster_noise_sigma=0.35)
_PERM = dict(mode="perm-prefix", num_pivots=64, prefix_len=8, candidate_budget=5000, rng_seed=0)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="world20k",
            synth=dict(dim=128, num_concepts=100, refs_per_concept=200, num_queries=2000),
            index={}, batch_queries=2000, single_queries=50, check_queries=100,
            tail_pct=95.0, cli_check=True,
        ),
        Workload(
            name="desk100k",
            synth=_DESK, index={}, batch_queries=1000, single_queries=80, check_queries=100,
            tail_pct=95.0, cli_check=True,
        ),
        Workload(
            name="desk100k-perm",
            synth=_DESK, index=_PERM, batch_queries=128, single_queries=25, check_queries=128,
            tail_pct=90.0, cli_check=False,
        ),
    )
}

# A tiny shape of each workload: the same phases and checks in a second or two.
_TINY_SYNTH = dict(dim=16, num_concepts=12, refs_per_concept=40, num_queries=120)
_TINY_PERM = dict(_PERM, num_pivots=16, prefix_len=4, candidate_budget=200)


def tiny(workload: Workload) -> Workload:
    perm = workload.index.get("mode") == "perm-prefix"
    return replace(
        workload, synth=_TINY_SYNTH, index=_TINY_PERM if perm else {},
        batch_queries=min(workload.batch_queries, 120), single_queries=25, check_queries=20,
        tail_pct=90.0,
    )
