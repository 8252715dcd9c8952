"""Contrastive-plus-reconstruction pretraining over the joint graph.

Two views per batch sample: a pair of augmentations (graphcl) or a clean
pass against a weight-perturbed encoder copy (simgrace). Loss is
NT-Xent over pooled sample embeddings plus a lambda-weighted MSE feature
reconstruction term computed on the clean view's node embeddings.
"""

from __future__ import annotations

import os
from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .amalgam import CoordinatorSet, JointGraph, build_joint_graph, \
    refresh_dynamic_edges, sample_joint_batch
from .autodiff import Tensor, concat_rows, gather_rows, mse, normalize_rows, \
    softmax_cross_entropy, tape_arrays
from .graphstore import GraphDataset, binary_adjacency
from .nn import Adam, MlpDecoder, graph_readout, make_encoder
from .projection import ProjectionConfig, project_all

PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class AugmentationSpec:
    kind: str = "node_drop"    # node_drop | edge_perturb | attr_mask | subgraph
    ratio: float = 0.2

    def __post_init__(self):
        if self.kind not in ("node_drop", "edge_perturb", "attr_mask", "subgraph"):
            raise errors.InvalidArgument(f"unknown augmentation kind {self.kind!r}")
        if not (0.0 < self.ratio < 1.0):
            raise errors.InvalidArgument("augmentation ratio must lie in (0, 1)")


@dataclass
class PretrainConfig:
    objective: str = "graphcl"          # graphcl | simgrace
    temperature: float = 0.5
    lam: float = 0.2
    epochs: int = 100
    batch_size: int = 128
    hops: int = 2
    perturb_scale: float = 0.1
    learning_rate: float = 1e-4
    seed: int = 0
    augmentations: tuple = (AugmentationSpec("node_drop", 0.2),
                            AugmentationSpec("attr_mask", 0.2))

    def __post_init__(self):
        if self.objective not in ("graphcl", "simgrace"):
            raise errors.InvalidArgument(f"unknown objective {self.objective!r}")
        if self.temperature <= 0:
            raise errors.InvalidArgument("temperature must be positive")
        if self.lam < 0:
            raise errors.InvalidArgument("lambda must be nonnegative")
        if not 0.0 <= self.learning_rate < np.inf:
            raise errors.InvalidArgument("learning_rate must be finite and >= 0")
        for key, low in (("epochs", 0), ("batch_size", 2), ("hops", 1)):
            if getattr(self, key) < low:
                raise errors.InvalidArgument(f"{key} must be >= {low}")
        if len(self.augmentations) != 2:
            raise errors.InvalidArgument(
                f"need exactly 2 augmentations, got {len(self.augmentations)}")


@dataclass
class LossReport:
    epoch: int
    contrastive: float
    reconstruction: float
    total: float


@dataclass
class SampleView:
    """One (possibly augmented) induced subgraph ready for the encoder.
    Local node 0 is the sample's center, an ordinary node."""
    nodes: np.ndarray              # global joint-graph indices, center first
    adjacency: sp.csr_matrix       # local, symmetric
    feature_mask: np.ndarray = None  # optional 0/1 mask on local features


def local_adjacency(adj: sp.csr_matrix, nodes: np.ndarray) -> sp.csr_matrix:
    return adj[nodes][:, nodes].tocsr()


def make_sample(jg: JointGraph, nodes: np.ndarray) -> SampleView:
    return SampleView(nodes=nodes, adjacency=local_adjacency(jg.adjacency, nodes))


def _ceil_count(x: float) -> int:
    # vanishing ratios round to zero instead of ceil-ing up to one
    return 0 if x < 1e-6 else int(np.ceil(x))


def augment(jg: JointGraph, sample: SampleView, spec: AugmentationSpec,
            rng: np.random.Generator) -> SampleView:
    """Augmented copy. node_drop and subgraph keep a sorted subset of the local
    nodes holding the center (so it stays local node 0) and every coordinator."""
    nodes = sample.nodes
    is_coord = jg.is_coordinator(nodes)
    n_local = nodes.size

    if spec.kind == "edge_perturb":
        return SampleView(nodes=nodes,
                          adjacency=_perturb_edges(sample.adjacency, spec.ratio, rng))

    if spec.kind == "attr_mask":
        # zero a fixed count of feature entries on non-coordinator rows
        d_p = jg.base_features.shape[1]
        maskable = np.flatnonzero(~is_coord)
        total = maskable.size * d_p
        k = min(_ceil_count(spec.ratio * total), total)
        mask = np.ones((n_local, d_p), dtype=np.float32)
        flat = rng.choice(total, size=k, replace=False)
        mask[maskable[flat // d_p], flat % d_p] = 0.0
        return SampleView(nodes=nodes, adjacency=sample.adjacency, feature_mask=mask)

    keep = is_coord.copy()
    keep[0] = True
    if spec.kind == "node_drop":
        eligible = np.flatnonzero(~keep)
        k = min(_ceil_count(spec.ratio * n_local), eligible.size)
        keep[eligible] = True
        keep[rng.choice(eligible, size=k, replace=False)] = False
    else:  # subgraph: a random walk from the center
        target = max(1, int(np.floor((1.0 - spec.ratio) * n_local)))
        indptr, indices = sample.adjacency.indptr, sample.adjacency.indices
        walked, cur, stall = {0}, 0, 0
        while len(walked) < target and stall < 10 * n_local:
            nbrs = indices[indptr[cur]:indptr[cur + 1]]
            if nbrs.size == 0:
                break
            cur = int(nbrs[rng.integers(nbrs.size)])
            walked.add(cur)
            stall += 1
        keep[list(walked)] = True
    return make_sample(jg, nodes[keep])


def _perturb_edges(adj: sp.csr_matrix, ratio: float,
                   rng: np.random.Generator) -> sp.csr_matrix:
    """Drop ceil(ratio * U) of the U undirected edges, then add as many
    non-edges by rejection sampling; self loops are kept."""
    n = adj.shape[0]
    coo = adj.tocoo()
    upper = coo.row < coo.col
    und = np.unique(np.stack([coo.row[upper], coo.col[upper]], axis=1), axis=0)
    k = min(_ceil_count(ratio * len(und)), len(und))
    kept = np.ones(len(und), dtype=bool)
    kept[rng.choice(len(und), size=k, replace=False)] = False
    und = und[kept]
    existing = set(map(tuple, und.tolist()))
    added, tries = [], 0
    while len(added) < k and tries < 50 * k:
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        e = (min(u, v), max(u, v))
        if u == v or e in existing:
            continue
        existing.add(e)
        added.append(e)
    und = np.vstack([und, np.reshape(added, (-1, 2))])
    loops = coo.row[coo.row == coo.col]
    return binary_adjacency(np.concatenate([und[:, 0], und[:, 1], loops]),
                            np.concatenate([und[:, 1], und[:, 0], loops]), n)


def encode_view(encoder, features: Tensor, view: SampleView, operator) -> Tensor:
    """`view`'s embeddings; views of one adjacency share its `encoder.prepare`. The
    encoder reads an unmasked view's rows itself; a masked view's are gathered masked."""
    if view.feature_mask is None:
        return encoder.forward(features, operator, view.nodes)
    return encoder.forward(gather_rows(features, view.nodes, view.feature_mask), operator)


def nt_xent(anchors: Tensor, positives: Tensor, temperature: float) -> Tensor:
    """NT-Xent: the softmax cross-entropy of the temperature-scaled cosine
    similarities, where anchor i's label is positive i."""
    if anchors.shape[0] < 2:
        raise errors.InvalidArgument("nt_xent needs a batch of at least 2")
    if anchors.shape != positives.shape:
        raise errors.ShapeMismatch("anchor/positive shape mismatch")
    sims = (normalize_rows(anchors) @ normalize_rows(positives).T) * (1.0 / temperature)
    return softmax_cross_entropy(sims, np.arange(anchors.shape[0]))


def reconstruction_loss(decoder: MlpDecoder, embeddings: Tensor,
                        targets: Tensor, rows=None) -> Tensor:
    """The MSE of decoding `embeddings`, or with `rows` embeddings[rows]."""
    return mse(decoder.forward(embeddings, rows), targets)


def simgrace_views(encoder, features: Tensor, view: SampleView, eta: float,
                   rng: np.random.Generator):
    """Clean embeddings plus embeddings from a weight-perturbed encoder copy."""
    operator = encoder.prepare(view.adjacency)   # the perturbed copy shares it
    clean = encode_view(encoder, features, view, operator)
    perturbed = deepcopy(encoder)
    for p in perturbed.params():
        std = float(p.data.std())
        if std > 0 and eta != 0.0:
            noise = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            p.data = p.data + eta * std * noise
    noisy = encode_view(perturbed, features, view, operator)
    return clean, noisy


@dataclass
class PretrainResult:
    encoder: object
    history: list = field(default_factory=list)


def pretrain(graphs: list[GraphDataset], proj_cfg: ProjectionConfig,
             coords: CoordinatorSet, enc_kind: str, cfg: PretrainConfig,
             **architecture) -> PretrainResult:
    """Pretrain a `make_encoder(enc_kind, proj_cfg.d_p, **architecture)`
    encoder on the joint graph of `graphs`, training `coords.features` with
    it. `coords.per_dataset=0` pretrains on the sources without coordinators."""
    if not graphs:
        raise errors.EmptyDatasetList("need at least one source graph")
    projected = project_all(graphs, proj_cfg)
    jg = build_joint_graph(projected, [g.adjacency for g in graphs], coords,
                           seed=cfg.seed)
    encoder = make_encoder(enc_kind, proj_cfg.d_p, **architecture, seed=cfg.seed)
    decoder = MlpDecoder(encoder.out_dim, encoder.out_dim, proj_cfg.d_p, seed=cfg.seed)
    opt = Adam(encoder.params() + decoder.params() + [coords.features],
               lr=cfg.learning_rate)

    history: list[LossReport] = []
    for epoch in range(cfg.epochs):
        if coords.inter_mode == "dynamic":
            jg = refresh_dynamic_edges(jg, coords)
        history.append(pretrain_epoch(jg, encoder, decoder, cfg, epoch, opt))
    return PretrainResult(encoder=encoder, history=history)


def pretrain_epoch(jg: JointGraph, encoder, decoder, cfg: PretrainConfig,
                   epoch: int, opt: Adam) -> LossReport:
    features = jg.feature_tensor()
    batch = sample_joint_batch(jg, cfg.batch_size, cfg.hops, cfg.seed, epoch)
    samples = [make_sample(jg, nodes) for nodes in batch]
    z1_rows, z2_rows, recon_terms = [], [], []
    for k, sample in enumerate(samples):
        if cfg.objective == "graphcl":
            v1, v2 = (augment(jg, sample, spec,
                              np.random.default_rng([cfg.seed, epoch, k, i]))
                      for i, spec in enumerate(cfg.augmentations, 1))
            shared = encoder.prepare(sample.adjacency)   # attr_mask keeps the adjacency
            h1, h2, h_clean = (
                encode_view(encoder, features, v, shared if v.adjacency is sample.adjacency
                            else encoder.prepare(v.adjacency)) for v in (v1, v2, sample))
        else:
            rng = np.random.default_rng([cfg.seed, epoch, k, 3])
            h_clean, h2 = simgrace_views(encoder, features, sample,
                                         cfg.perturb_scale, rng)
            h1 = h_clean
        for h, rows in ((h1, z1_rows), (h2, z2_rows)):
            rows.append(graph_readout(h, [0, h.shape[0]]))
        # the center is ordinary, so every sample has reconstruction targets
        ordinary = np.flatnonzero(~jg.is_coordinator(sample.nodes))
        recon_terms.append(reconstruction_loss(
            decoder, h_clean, Tensor(jg.base_features[sample.nodes[ordinary]]), ordinary))
        if k == 0:   # sample 0's tape beyond the shared arrays, scaled to the step by nodes
            base, one = (sum(a.nbytes for a in tape_arrays([features, *opt.params, *roots]))
                         for roots in ((), (z1_rows[0], z2_rows[0], recon_terms[0])))
            tape = base + (one - base) * sum(s.nodes.size for s in samples) / sample.nodes.size
            if tape > PHYSICAL_MEMORY_BYTES:
                raise errors.InvalidArgument(
                    f"a step's forward tape needs about {tape / 2**20:.0f} MB, more than "
                    f"physical memory; lower batch_size ({cfg.batch_size}) or hops ({cfg.hops})")
    contrastive = nt_xent(concat_rows(z1_rows), concat_rows(z2_rows),
                          cfg.temperature)
    recon = concat_rows([t.reshape(1, 1) for t in recon_terms]).mean()
    total = contrastive + cfg.lam * recon
    if not np.isfinite(total.data):
        raise errors.Diverged(f"non-finite loss at epoch {epoch}")
    total.backward()
    opt.step()
    return LossReport(epoch=epoch, contrastive=float(contrastive.data),
                      reconstruction=float(recon.data), total=float(total.data))
