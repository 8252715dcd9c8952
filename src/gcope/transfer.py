"""Few-shot transfer: induced-subgraph tasks, finetuning, and prompting."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .amalgam import bfs_ball
from .autodiff import (Param, Tensor, concat_rows, dense, gather_rows, no_grad,
                       softmax_cross_entropy, softmax_rows)
from .graphstore import GraphDataset
from .nn import Adam, graph_readout
from .projection import ProjectionConfig, svd_project


@dataclass
class FewShotTask:
    target: GraphDataset
    c_way: int
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray
    hops: int = 2


@dataclass
class TransferConfig:
    mode: str = "finetune"        # finetune | prompt
    epochs: int = 100
    learning_rate: float = 1e-4
    patience: int = 20
    prompt_tokens: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("finetune", "prompt"):
            raise errors.InvalidArgument(f"unknown transfer mode {self.mode!r}")
        for key, low in (("epochs", 1), ("prompt_tokens", 1), ("patience", 0)):
            if getattr(self, key) < low:
                raise errors.InvalidArgument(f"{key} must be >= {low}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise errors.InvalidArgument("learning_rate must be finite and >= 0")


BATCH_NODES = 4096   # nodes per batch, bounding a forward's activations


@dataclass
class InducedSubgraph:
    """Ego graphs as one disjoint-union batch: graph b is rows offsets[b]:offsets[b + 1]."""
    nodes: np.ndarray              # target node of each row; each center first, then BFS order
    offsets: np.ndarray            # B + 1 row offsets
    features: np.ndarray           # the target's feature rows that `nodes` index
    adjacency: object              # block-diagonal CSR; None once `operator` replaces it
    operator: object = None        # the encoder's `prepare` of the adjacency


@dataclass
class MetricReport:
    acc: float
    auc: float
    f1: float


def build_fewshot_task(g: GraphDataset, k_shot: int, hops: int = 2,
                       seed: int = 0) -> FewShotTask:
    """K train nodes per class; remaining labeled nodes split 1:9 val:test."""
    if k_shot < 1:
        raise errors.InvalidArgument("k_shot must be >= 1")
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
    return FewShotTask(target=g, c_way=int(classes.size), train_ids=train,
                       val_ids=val, test_ids=test, hops=hops)


def induce_subgraph(g: GraphDataset, centers, hops: int) -> InducedSubgraph:
    """The ego graphs of `centers` (an array, or one center) as one batch. Its canonical CSR
    keeps the entries of the balls' rows of `g.adjacency` whose column is in the row's ball."""
    centers = np.atleast_1d(np.asarray(centers, dtype=np.int64))
    if centers.size == 0 or ((centers < 0) | (centers >= g.num_nodes)).any():
        raise errors.IndexOutOfRange(f"need centers, all in [0, {g.num_nodes})")
    balls = [bfs_ball(g.adjacency, int(c), hops) for c in centers]
    sizes = [b.size for b in balls]
    nodes, offsets = np.concatenate(balls), np.concatenate([[0], np.cumsum(sizes)])
    keys = np.repeat(np.arange(centers.size), sizes) * g.num_nodes + nodes
    by_key = np.argsort(keys)
    rows = g.adjacency[nodes]
    row = np.repeat(np.arange(nodes.size), np.diff(rows.indptr))
    edge_keys = keys[row] - nodes[row] + rows.indices
    col = by_key[np.minimum(np.searchsorted(keys, edge_keys, sorter=by_key), nodes.size - 1)]
    keep = keys[col] == edge_keys
    return InducedSubgraph(nodes, offsets, g.features, sp.csr_matrix(
        (rows.data[keep], (row[keep], col[keep])), shape=(nodes.size, nodes.size)))


@dataclass
class TrainedModel:
    encoder: object
    head_w: Param
    head_b: Param
    prompt_tokens: Param = None
    subgraph_cache: dict = field(default_factory=dict)   # split node id -> (batch, row)

    def logits_for(self, batch: InducedSubgraph) -> Tensor:
        """B x c logits of a prepared batch; the row-wise prompt goes on the
        target's rows before the batch gathers them."""
        if batch.operator is None:
            raise errors.InvalidArgument("batch has no encoder operator: a raw "
                                         "`induce_subgraph` result needs `encoder.prepare`")
        x = Tensor(batch.features)
        if self.prompt_tokens is not None:
            x = apply_prompt(x, self.prompt_tokens)
        h = self.encoder.forward(gather_rows(x, batch.nodes), batch.operator)
        return dense(graph_readout(h, batch.offsets), self.head_w, self.head_b)


def apply_prompt(x: Tensor, tokens: Param) -> Tensor:
    """Additive attention-weighted prompt insertion:
    x_i <- x_i + sum_t softmax_t(p_t . x_i) p_t."""
    scores = x @ tokens.T              # n x T
    weights = softmax_rows(scores)     # n x T
    return x + weights @ tokens


def _prepare_subgraphs(task: FewShotTask, proj_cfg: ProjectionConfig, encoder) -> dict:
    """Project target features to d_p; cut each split's ego graphs into batches of at
    most BATCH_NODES nodes (or one larger graph) and `encoder.prepare` each one."""
    feats, cache = svd_project(task.target.features, proj_cfg).matrix, {}
    for ids in (task.train_ids, task.val_ids, task.test_ids):
        split, cuts = induce_subgraph(task.target, ids, task.hops), [0]
        while cuts[-1] < ids.size:
            end = np.searchsorted(split.offsets, split.offsets[cuts[-1]] + BATCH_NODES, "right")
            cuts.append(max(cuts[-1] + 1, end - 1))
        for lo, hi in zip(cuts, cuts[1:]):
            s, e = split.offsets[lo], split.offsets[hi]
            batch = InducedSubgraph(split.nodes[s:e], split.offsets[lo:hi + 1] - s, feats,
                                    None, encoder.prepare(split.adjacency[s:e, s:e]))
            cache.update((int(v), (batch, r)) for r, v in enumerate(ids[lo:hi]))
    return cache


def _logits(model: TrainedModel, ids: np.ndarray, subs: dict) -> Tensor:
    """Logits of split nodes `ids`, in order, encoding each batch they touch once."""
    missing = [int(v) for v in ids if int(v) not in subs]
    if missing:
        raise errors.IndexOutOfRange(f"node {missing[0]} is in no split of the task")
    touched = {id(subs[int(v)][0]): subs[int(v)][0] for v in ids}   # in first-touch order
    starts = dict(zip(touched, np.cumsum([0] + [b.offsets.size - 1 for b in touched.values()])))
    rows = [starts[id(batch)] + row for batch, row in (subs[int(v)] for v in ids)]
    return gather_rows(concat_rows([model.logits_for(b) for b in touched.values()]), rows)


def _transfer(encoder, task: FewShotTask, cfg: TransferConfig, proj_cfg: ProjectionConfig,
              tokens: Param = None) -> TrainedModel:
    """Train a fresh zero-initialized linear head on a copy of `encoder`, plus
    the prompt `tokens` if given (the encoder then stays frozen) or else the
    whole encoder, and keep the values of the best validation-accuracy epoch."""
    enc = deepcopy(encoder)
    head_w = Param(np.zeros((enc.out_dim, task.c_way), dtype=np.float32), name="head.w")
    head_b = Param(np.zeros(task.c_way, dtype=np.float32), name="head.b")
    model = TrainedModel(enc, head_w, head_b, tokens, _prepare_subgraphs(task, proj_cfg, enc))
    trainable = ([tokens] if tokens is not None else enc.params()) + [head_w, head_b]
    opt = Adam(trainable, lr=cfg.learning_rate)
    best, best_val, since_best = None, -1.0, 0
    for epoch in range(cfg.epochs):
        loss = softmax_cross_entropy(_logits(model, task.train_ids, model.subgraph_cache),
                                     task.target.labels[task.train_ids])
        if not np.isfinite(loss.data):
            raise errors.Diverged(f"non-finite loss at epoch {epoch}")
        loss.backward()
        opt.step()
        val_acc = accuracy(task.target.labels[task.val_ids],
                           predict_scores(model, task, task.val_ids).argmax(axis=1))
        if val_acc > best_val:
            best_val = val_acc
            best = [p.data.copy() for p in trainable]
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    for p, data in zip(trainable, best):   # epoch 0 always sets best
        p.data = data
    return model


def finetune(encoder, task: FewShotTask, cfg: TransferConfig,
             proj_cfg: ProjectionConfig) -> TrainedModel:
    """Tune the whole encoder plus a fresh zero-initialized linear head."""
    return _transfer(encoder, task, cfg, proj_cfg)


def prompt_transfer(encoder, task: FewShotTask, cfg: TransferConfig,
                    proj_cfg: ProjectionConfig) -> TrainedModel:
    """Freeze the encoder; learn prompt tokens plus a linear head."""
    tokens = Param(np.zeros((cfg.prompt_tokens, proj_cfg.d_p), dtype=np.float32),
                   name="prompt.tokens")
    return _transfer(encoder, task, cfg, proj_cfg, tokens)


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
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a tie group at sorted positions i..j shares the 1-based rank (i + j) / 2 + 1
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    n_pos = int(positives.sum())
    n_neg = scores.size - n_pos
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


@no_grad()
def predict_scores(model: TrainedModel, task: FewShotTask,
                   ids: np.ndarray, subs: dict = None) -> np.ndarray:
    """Logits of split nodes `ids` from their prepared batches in `subs`
    (default: the model's `subgraph_cache`, built for `task`'s splits)."""
    return _logits(model, ids, model.subgraph_cache if subs is None else subs).data


def evaluate_model(model: TrainedModel, task: FewShotTask, split: str) -> MetricReport:
    ids = {"val": task.val_ids, "test": task.test_ids,
           "train": task.train_ids}.get(split)
    if ids is None:
        raise errors.InvalidArgument(f"unknown split {split!r}")
    if ids.size == 0:
        raise errors.EmptySplit(f"split {split!r} is empty")
    scores = predict_scores(model, task, ids)
    y_true = task.target.labels[ids]
    y_pred = scores.argmax(axis=1)
    return MetricReport(acc=accuracy(y_true, y_pred),
                        auc=macro_ovr_auc(y_true, scores),
                        f1=macro_f1(y_true, y_pred, task.c_way))
