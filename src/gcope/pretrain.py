"""Contrastive-plus-reconstruction pretraining over the joint graph.

Two views per batch sample: a pair of augmentations (graphcl) or a clean
pass against a weight-perturbed encoder copy (simgrace). Loss is
NT-Xent over pooled sample embeddings plus a lambda-weighted MSE feature
reconstruction term computed on the clean view's node embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .amalgam import CoordinatorSet, JointGraph, build_joint_graph, \
    refresh_dynamic_edges, sample_joint_batch
from .autodiff import Tensor, concat_rows, gather_rows, logsumexp_rows, mse, \
    normalize_rows
from .graphstore import GraphDataset
from .nn import Adam, MlpDecoder, graph_readout, make_encoder
from .projection import ProjectionConfig, project_all


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
    readout: str = "mean"

    def __post_init__(self):
        if self.objective not in ("graphcl", "simgrace"):
            raise errors.InvalidArgument(f"unknown objective {self.objective!r}")
        if self.temperature <= 0:
            raise errors.InvalidArgument("temperature must be positive")
        if self.lam < 0:
            raise errors.InvalidArgument("lambda must be nonnegative")


@dataclass
class LossReport:
    epoch: int
    contrastive: float
    reconstruction: float
    total: float


@dataclass
class SampleView:
    """One (possibly augmented) induced subgraph ready for the encoder."""
    nodes: np.ndarray              # global joint-graph indices
    adjacency: sp.csr_matrix       # local, symmetric
    center_pos: int                # position of the center within `nodes`
    feature_mask: np.ndarray = None  # optional 0/1 mask on local features


def local_adjacency(adj: sp.csr_matrix, nodes: np.ndarray) -> sp.csr_matrix:
    sub = adj[nodes][:, nodes]
    return sub.tocsr()


def make_sample(jg: JointGraph, nodes: np.ndarray) -> SampleView:
    return SampleView(nodes=nodes, adjacency=local_adjacency(jg.adjacency, nodes),
                      center_pos=0)


def _ceil_count(x: float) -> int:
    # vanishing ratios round to zero instead of ceil-ing up to one
    return 0 if x < 1e-6 else int(np.ceil(x))


def augment(jg: JointGraph, sample: SampleView, spec: AugmentationSpec,
            rng: np.random.Generator) -> SampleView:
    """Augmented copy; the center node and coordinators are always kept."""
    nodes = sample.nodes
    is_coord = jg.is_coordinator(nodes)
    n_local = nodes.size

    if spec.kind == "node_drop":
        eligible = np.flatnonzero(~is_coord)
        eligible = eligible[eligible != sample.center_pos]
        k = min(_ceil_count(spec.ratio * n_local), eligible.size)
        drop = rng.choice(eligible, size=k, replace=False) if k else np.empty(0, int)
        keep = np.setdiff1d(np.arange(n_local), drop)
        new_nodes = nodes[keep]
        return SampleView(nodes=new_nodes,
                          adjacency=local_adjacency(jg.adjacency, new_nodes),
                          center_pos=int(np.flatnonzero(keep == sample.center_pos)[0]))

    if spec.kind == "subgraph":
        target = max(1, int(np.floor((1.0 - spec.ratio) * n_local)))
        indptr, indices = sample.adjacency.indptr, sample.adjacency.indices
        kept = {sample.center_pos}
        cur = sample.center_pos
        stall = 0
        while len(kept) < target and stall < 10 * n_local:
            nbrs = indices[indptr[cur]:indptr[cur + 1]]
            if nbrs.size == 0:
                break
            cur = int(nbrs[rng.integers(nbrs.size)])
            kept.add(cur)
            stall += 1
        kept |= set(np.flatnonzero(is_coord).tolist())  # coordinators retained
        keep = np.asarray(sorted(kept), dtype=np.int64)
        new_nodes = nodes[keep]
        return SampleView(nodes=new_nodes,
                          adjacency=local_adjacency(jg.adjacency, new_nodes),
                          center_pos=int(np.flatnonzero(keep == sample.center_pos)[0]))

    if spec.kind == "edge_perturb":
        adj = sample.adjacency.tocoo()
        und = {(int(r), int(c)) for r, c in zip(adj.row, adj.col) if r < c}
        und = sorted(und)
        k = min(_ceil_count(spec.ratio * len(und)), len(und))
        if k and len(und):
            drop_idx = rng.choice(len(und), size=k, replace=False)
            kept = [e for i, e in enumerate(und) if i not in set(drop_idx.tolist())]
            existing = set(kept)
            added = 0
            tries = 0
            while added < k and tries < 50 * k:
                tries += 1
                u = int(rng.integers(n_local))
                v = int(rng.integers(n_local))
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e in existing:
                    continue
                existing.add(e)
                kept.append(e)
                added += 1
            und = kept
        selfloops = [(int(r), int(c)) for r, c in zip(adj.row, adj.col) if r == c]
        rows = [e[0] for e in und] + [e[1] for e in und] + [e[0] for e in selfloops]
        cols = [e[1] for e in und] + [e[0] for e in und] + [e[1] for e in selfloops]
        new_adj = sp.coo_matrix((np.ones(len(rows), dtype=np.float32), (rows, cols)),
                                shape=(n_local, n_local)).tocsr()
        return SampleView(nodes=nodes, adjacency=new_adj, center_pos=sample.center_pos)

    # attr_mask: zero a fixed count of feature entries on non-coordinator rows
    d_p = jg.base_features.shape[1]
    maskable = np.flatnonzero(~is_coord)
    total = maskable.size * d_p
    k = min(_ceil_count(spec.ratio * total), total)
    mask = np.ones((n_local, d_p), dtype=np.float32)
    if k:
        flat = rng.choice(total, size=k, replace=False)
        mask[maskable[flat // d_p], flat % d_p] = 0.0
    return SampleView(nodes=nodes, adjacency=sample.adjacency,
                      center_pos=sample.center_pos, feature_mask=mask)


def encode_view(encoder, features: Tensor, view: SampleView) -> Tensor:
    x = gather_rows(features, view.nodes)
    if view.feature_mask is not None:
        x = x * Tensor(view.feature_mask.astype(x.dtype))
    return encoder.forward(x, view.adjacency)


def nt_xent(anchors: Tensor, positives: Tensor, temperature: float) -> Tensor:
    """Mean over anchors of -log softmax of the matching positive among
    all positives in the batch, cosine-similarity scaled by temperature."""
    if anchors.shape[0] < 2:
        raise errors.InvalidArgument("nt_xent needs a batch of at least 2")
    if anchors.shape != positives.shape:
        raise errors.ShapeMismatch("anchor/positive shape mismatch")
    za = normalize_rows(anchors)
    zp = normalize_rows(positives)
    sims = (za @ zp.T) * (1.0 / temperature)           # B x B
    diag = (sims * Tensor(np.eye(sims.shape[0], dtype=sims.data.dtype))) \
        .sum(axis=1, keepdims=True)
    return (logsumexp_rows(sims) - diag).mean()


def reconstruction_loss(decoder: MlpDecoder, embeddings: Tensor,
                        targets: Tensor) -> Tensor:
    return mse(decoder.forward(embeddings), targets)


def simgrace_views(encoder, features: Tensor, view: SampleView, eta: float,
                   rng: np.random.Generator):
    """Clean embeddings plus embeddings from a weight-perturbed encoder copy."""
    clean = encode_view(encoder, features, view)
    perturbed = encoder.copy()
    for p in perturbed.params():
        std = float(p.data.std())
        if std > 0 and eta != 0.0:
            noise = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            p.data = p.data + eta * std * noise
    noisy = encode_view(perturbed, features, view)
    return clean, noisy


@dataclass
class PretrainResult:
    encoder: object
    decoder: MlpDecoder
    coords: CoordinatorSet | None
    joint_graph: JointGraph
    history: list = field(default_factory=list)


def pretrain(graphs: list[GraphDataset], proj_cfg: ProjectionConfig,
             coords: CoordinatorSet | None, enc_kind: str, cfg: PretrainConfig,
             hidden: int = 100, num_layers: int = 2, fagcn_eps: float = 0.3,
             activation: str = "relu") -> PretrainResult:
    if not graphs:
        raise errors.EmptyDatasetList("need at least one source graph")
    projected = project_all(graphs, proj_cfg)
    jg = build_joint_graph(projected, [g.adjacency for g in graphs], coords,
                           seed=cfg.seed)
    encoder = make_encoder(enc_kind, proj_cfg.d_p, hidden=hidden,
                           num_layers=num_layers, activation=activation,
                           eps=fagcn_eps, seed=cfg.seed)
    decoder = MlpDecoder(encoder.out_dim, hidden, proj_cfg.d_p, seed=cfg.seed)
    params = encoder.params() + decoder.params()
    if coords is not None and jg.num_coordinators > 0:
        params.append(coords.features)
    opt = Adam(params, lr=cfg.learning_rate)

    history: list[LossReport] = []
    for epoch in range(cfg.epochs):
        if coords is not None and coords.inter_mode == "dynamic":
            jg = refresh_dynamic_edges(jg, coords)
        history.append(pretrain_epoch(jg, encoder, decoder, cfg, epoch, opt))
    return PretrainResult(encoder=encoder, decoder=decoder, coords=coords,
                          joint_graph=jg, history=history)


def pretrain_epoch(jg: JointGraph, encoder, decoder, cfg: PretrainConfig,
                   epoch: int, opt: Adam) -> LossReport:
    features = jg.feature_tensor()
    batch = sample_joint_batch(jg, cfg.batch_size, cfg.hops, cfg.seed, epoch)
    z1_rows, z2_rows = [], []
    recon_terms = []
    for k, nodes in enumerate(batch):
        sample = make_sample(jg, nodes)
        if cfg.objective == "graphcl":
            rng1 = np.random.default_rng([cfg.seed, epoch, k, 1])
            rng2 = np.random.default_rng([cfg.seed, epoch, k, 2])
            v1 = augment(jg, sample, cfg.augmentations[0], rng1)
            v2 = augment(jg, sample, cfg.augmentations[1], rng2)
            h1 = encode_view(encoder, features, v1)
            h2 = encode_view(encoder, features, v2)
            h_clean = encode_view(encoder, features, sample)
        else:
            rng = np.random.default_rng([cfg.seed, epoch, k, 3])
            h_clean, h2 = simgrace_views(encoder, features, sample,
                                         cfg.perturb_scale, rng)
            h1, v1, v2 = h_clean, sample, sample
        z1_rows.append(graph_readout(h1, np.arange(v1.nodes.size),
                                     cfg.readout).reshape(1, -1))
        z2_rows.append(graph_readout(h2, np.arange(v2.nodes.size),
                                     cfg.readout).reshape(1, -1))
        ordinary = np.flatnonzero(~jg.is_coordinator(sample.nodes))
        if ordinary.size:
            targets = Tensor(jg.base_features[sample.nodes[ordinary]])
            recon_terms.append(reconstruction_loss(
                decoder, gather_rows(h_clean, ordinary), targets))
    z1 = concat_rows(z1_rows)
    z2 = concat_rows(z2_rows)
    contrastive = nt_xent(z1, z2, cfg.temperature)
    if recon_terms:
        recon = concat_rows([t.reshape(1, 1) for t in recon_terms]).mean()
    else:
        recon = Tensor(np.float32(0.0))
    total = contrastive + cfg.lam * recon
    if not np.isfinite(total.data):
        raise errors.Diverged(f"non-finite loss at epoch {epoch}")
    total.backward()
    opt.step()
    return LossReport(epoch=epoch, contrastive=float(contrastive.data),
                      reconstruction=float(recon.data), total=float(total.data))
