"""Few-shot transfer: induced-subgraph tasks, finetuning, and prompting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .amalgam import bfs_ball
from .autodiff import (Param, Tensor, concat_rows, softmax_cross_entropy,
                       softmax_rows)
from .graphstore import GraphDataset
from .nn import Adam, graph_readout
from .projection import ProjectionConfig, svd_project


@dataclass
class FewShotTask:
    target: GraphDataset
    c_way: int
    k_shot: int
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray
    hops: int = 2
    split_seed: int = 0


@dataclass
class TransferConfig:
    mode: str = "finetune"        # finetune | prompt
    epochs: int = 100
    learning_rate: float = 1e-4
    patience: int = 20
    prompt_tokens: int = 10
    readout: str = "mean"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("finetune", "prompt"):
            raise errors.InvalidArgument(f"unknown transfer mode {self.mode!r}")
        if self.epochs < 1:
            raise errors.InvalidArgument("epochs must be >= 1")


@dataclass
class InducedSubgraph:
    nodes: np.ndarray
    adjacency: sp.csr_matrix
    features: np.ndarray
    center_pos: int = 0


@dataclass
class MetricReport:
    acc: float
    auc: float
    f1: float


def build_fewshot_task(g: GraphDataset, k_shot: int, hops: int = 2,
                       seed: int = 0) -> FewShotTask:
    """K train nodes per class; remaining labeled nodes split 1:9 val:test."""
    labeled = np.flatnonzero(g.labels >= 0)
    classes = np.unique(g.labels[labeled])
    rng = np.random.default_rng([seed, 0xF5])
    train = []
    for cl in classes:
        members = labeled[g.labels[labeled] == cl]
        if members.size < k_shot + 2:
            raise errors.InsufficientClassSupport(
                f"class {cl} has {members.size} labeled nodes, needs {k_shot + 2}")
        train.append(rng.choice(members, size=k_shot, replace=False))
    train = np.sort(np.concatenate(train))
    rest = np.setdiff1d(labeled, train)
    rest = rng.permutation(rest)
    n_val = int(round(rest.size / 10.0))
    n_val = max(1, min(n_val, rest.size - 1))
    val = np.sort(rest[:n_val])
    test = np.sort(rest[n_val:])
    return FewShotTask(target=g, c_way=int(classes.size), k_shot=k_shot,
                       train_ids=train, val_ids=val, test_ids=test,
                       hops=hops, split_seed=seed)


def induce_subgraph(g: GraphDataset, center: int, hops: int,
                    features: np.ndarray = None) -> InducedSubgraph:
    if not (0 <= center < g.num_nodes):
        raise errors.IndexOutOfRange(f"center {center} outside [0, {g.num_nodes})")
    nodes = bfs_ball(g.adjacency, center, hops)
    feats = g.features if features is None else features
    return InducedSubgraph(nodes=nodes,
                           adjacency=g.adjacency[nodes][:, nodes].tocsr(),
                           features=feats[nodes], center_pos=0)


@dataclass
class TrainedModel:
    encoder: object
    head_w: Param
    head_b: Param
    prompt_tokens: Param = None
    projection: object = None      # ProjectedFeatures of the target
    readout: str = "mean"
    mode: str = "finetune"
    subgraph_cache: dict = field(default_factory=dict)

    def logits_for(self, sub: InducedSubgraph) -> Tensor:
        x = Tensor(sub.features)
        if self.prompt_tokens is not None:
            x = apply_prompt(x, self.prompt_tokens)
        h = self.encoder.forward(x, sub.adjacency)
        z = graph_readout(h, np.arange(sub.nodes.size), self.readout)
        return z.reshape(1, -1) @ self.head_w + self.head_b


def apply_prompt(x: Tensor, tokens: Param) -> Tensor:
    """Additive attention-weighted prompt insertion:
    x_i <- x_i + sum_t softmax_t(p_t . x_i) p_t."""
    scores = x @ tokens.T              # n x T
    weights = softmax_rows(scores)     # n x T
    return x + weights @ tokens


def _prepare_subgraphs(task: FewShotTask, proj_cfg: ProjectionConfig):
    """Project target features to d_p and induce subgraphs for all split nodes."""
    proj = svd_project(task.target.features, proj_cfg)
    feats = proj.matrix
    subs = {}
    for ids in (task.train_ids, task.val_ids, task.test_ids):
        for node in ids:
            subs[int(node)] = induce_subgraph(task.target, int(node), task.hops,
                                              features=feats)
    return proj, subs


def _train_head_loop(model: TrainedModel, task: FewShotTask, cfg: TransferConfig,
                     trainable: list[Param], subs: dict) -> TrainedModel:
    opt = Adam(trainable, lr=cfg.learning_rate)
    train_labels = task.target.labels[task.train_ids]
    best = None
    best_val = -1.0
    since_best = 0
    for epoch in range(cfg.epochs):
        logit_rows = [model.logits_for(subs[int(n)]) for n in task.train_ids]
        logits = concat_rows(logit_rows)
        loss = softmax_cross_entropy(logits, train_labels)
        if not np.isfinite(loss.data):
            raise errors.Diverged(f"non-finite loss at epoch {epoch}")
        loss.backward()
        opt.step()
        val_acc = evaluate_model(model, task, "val", subs=subs).acc
        if val_acc > best_val:
            best_val = val_acc
            best = _snapshot(model)
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    if best is not None:
        _restore(model, best)
    model.subgraph_cache = subs
    return model


def _snapshot(model: TrainedModel) -> dict:
    snap = {"head_w": model.head_w.data.copy(), "head_b": model.head_b.data.copy(),
            "enc": [p.data.copy() for p in model.encoder.params()]}
    if model.prompt_tokens is not None:
        snap["tokens"] = model.prompt_tokens.data.copy()
    return snap


def _restore(model: TrainedModel, snap: dict):
    model.head_w.data = snap["head_w"]
    model.head_b.data = snap["head_b"]
    for p, d in zip(model.encoder.params(), snap["enc"]):
        p.data = d
    if model.prompt_tokens is not None:
        model.prompt_tokens.data = snap["tokens"]


def finetune(encoder, task: FewShotTask, cfg: TransferConfig,
             proj_cfg: ProjectionConfig) -> TrainedModel:
    """Tune the whole encoder plus a fresh zero-initialized linear head."""
    enc = encoder.copy()
    proj, subs = _prepare_subgraphs(task, proj_cfg)
    d_emb = enc.out_dim
    head_w = Param(np.zeros((d_emb, task.c_way), dtype=np.float32), name="head.w")
    head_b = Param(np.zeros(task.c_way, dtype=np.float32), name="head.b")
    model = TrainedModel(encoder=enc, head_w=head_w, head_b=head_b,
                         projection=proj, readout=cfg.readout, mode="finetune")
    trainable = enc.params() + [head_w, head_b]
    return _train_head_loop(model, task, cfg, trainable, subs)


def prompt_transfer(encoder, task: FewShotTask, cfg: TransferConfig,
                    proj_cfg: ProjectionConfig) -> TrainedModel:
    """Freeze the encoder; learn prompt tokens plus a linear head."""
    enc = encoder.copy()   # frozen copy: its params are never given to the optimizer
    proj, subs = _prepare_subgraphs(task, proj_cfg)
    d_emb = enc.out_dim
    d_p = proj_cfg.d_p
    tokens = Param(np.zeros((cfg.prompt_tokens, d_p), dtype=np.float32),
                   name="prompt.tokens")
    head_w = Param(np.zeros((d_emb, task.c_way), dtype=np.float32), name="head.w")
    head_b = Param(np.zeros(task.c_way, dtype=np.float32), name="head.b")
    model = TrainedModel(encoder=enc, head_w=head_w, head_b=head_b,
                         prompt_tokens=tokens, projection=proj,
                         readout=cfg.readout, mode="prompt")
    trainable = [tokens, head_w, head_b]
    return _train_head_loop(model, task, cfg, trainable, subs)


def trainable_param_count(model: TrainedModel) -> int:
    params = [model.head_w, model.head_b]
    if model.mode == "prompt":
        params.append(model.prompt_tokens)
    else:
        params.extend(model.encoder.params())
    return int(sum(p.data.size for p in params))


# ---- metrics ----

def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> float:
    f1s = []
    for cl in range(num_classes):
        tp = np.sum((y_pred == cl) & (y_true == cl))
        fp = np.sum((y_pred == cl) & (y_true != cl))
        fn = np.sum((y_pred != cl) & (y_true == cl))
        denom = 2 * tp + fp + fn
        if np.sum(y_true == cl) == 0 and np.sum(y_pred == cl) == 0:
            continue
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s)) if f1s else 0.0


def binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney rank AUC with tie correction."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(positives.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_ovr_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Macro one-vs-rest AUC over classes present in y_true."""
    aucs = []
    for cl in range(scores.shape[1]):
        pos = y_true == cl
        if pos.sum() == 0 or pos.sum() == y_true.size:
            continue
        aucs.append(binary_auc(scores[:, cl], pos))
    return float(np.mean(aucs)) if aucs else float("nan")


def predict_scores(model: TrainedModel, task: FewShotTask,
                   ids: np.ndarray, subs: dict = None) -> np.ndarray:
    rows = []
    for node in ids:
        node = int(node)
        if subs is not None and node in subs:
            sub = subs[node]
        else:
            sub = induce_subgraph(task.target, node, task.hops,
                                  features=model.projection.matrix)
        rows.append(model.logits_for(sub).data.reshape(-1))
    return np.vstack(rows)


def evaluate_model(model: TrainedModel, task: FewShotTask, split: str,
                   subs: dict = None) -> MetricReport:
    ids = {"val": task.val_ids, "test": task.test_ids,
           "train": task.train_ids}.get(split)
    if ids is None:
        raise errors.InvalidArgument(f"unknown split {split!r}")
    if ids.size == 0:
        raise errors.EmptySplit(f"split {split!r} is empty")
    if subs is None:
        subs = model.subgraph_cache
    scores = predict_scores(model, task, ids, subs=subs)
    y_true = task.target.labels[ids]
    y_pred = scores.argmax(axis=1)
    return MetricReport(acc=accuracy(y_true, y_pred),
                        auc=macro_ovr_auc(y_true, scores),
                        f1=macro_f1(y_true, y_pred, task.c_way))
