"""Pretraining CPU time at several graph sizes, for the runtime-scaling checks."""

import time

from gcope.amalgam import CoordinatorSet
from gcope.graphstore import synth_dataset
from gcope.pretrain import PretrainConfig, pretrain
from gcope.projection import ProjectionConfig


def runtime_scaling_probe(sizes: list[int], m: int = 2, batch_size: int = 8,
                          d: int = 16) -> list[tuple[int, float]]:
    """CPU seconds (`time.process_time`) of one GCN pretraining epoch on `m`
    synthetic sources of N // m nodes each (one coordinator per source), at each
    N; unlike wall time, they leave out time spent preempted."""
    out = []
    for n_total in sizes:
        per = n_total // m
        sources = [synth_dataset(per, 3, d, 0.7, i) for i in range(m)]
        # 1-hop samples keep subgraph size independent of block size; a
        # 2-hop ball through a coordinator covers its whole dataset block
        # and would measure block size rather than total-node scaling.
        cfg = PretrainConfig(epochs=1, batch_size=batch_size, hops=1)
        t0 = time.process_time()
        pretrain(sources, ProjectionConfig(d_p=min(d, 16)), CoordinatorSet(), "gcn", cfg,
                 hidden=32)
        out.append((n_total, time.process_time() - t0))
    return out
