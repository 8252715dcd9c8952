import importlib
from dataclasses import replace

import numpy as np
import pytest

from gcope import errors
from gcope.autodiff import Param, Tensor
from gcope.graphstore import synth_dataset
from gcope.nn import make_encoder
from gcope.projection import ProjectionConfig, svd_project
from gcope.transfer import (TrainedModel, TransferConfig, accuracy, apply_prompt,
                            binary_auc,
                            build_fewshot_task, evaluate_model, finetune,
                            induce_subgraph, macro_f1, macro_ovr_auc,
                            predict_scores, prompt_transfer)

from oracles import finite_diff_grad, floyd_warshall, rel_err

transfer_module = importlib.import_module("gcope.transfer")


def target_graph(n=60, classes=3, d=8, h=0.85, seed=0):
    return synth_dataset(n, classes, d, h, seed)


# ------------------------------------------------------------------- splitting

def test_split_partition_and_per_class_counts():
    g = target_graph()
    task = build_fewshot_task(g, k_shot=2, seed=1)
    train, val, test = task.train_ids, task.val_ids, task.test_ids
    allids = np.concatenate([train, val, test])
    assert np.array_equal(np.sort(allids), np.arange(g.num_nodes))
    assert allids.size == np.unique(allids).size
    for cl in range(task.c_way):
        assert int((g.labels[train] == cl).sum()) == 2
    rest = g.num_nodes - train.size
    assert val.size == max(1, min(round(rest / 10), rest - 1))


def test_split_deterministic_and_seed_sensitive():
    g = target_graph()
    a = build_fewshot_task(g, 2, seed=5)
    b = build_fewshot_task(g, 2, seed=5)
    c = build_fewshot_task(g, 2, seed=6)
    assert np.array_equal(a.train_ids, b.train_ids)
    assert np.array_equal(a.val_ids, b.val_ids)
    assert not np.array_equal(a.train_ids, c.train_ids) or \
        not np.array_equal(a.val_ids, c.val_ids)


def test_split_insufficient_support():
    g = target_graph(n=9, classes=3)
    with pytest.raises(errors.InsufficientClassSupport):
        build_fewshot_task(g, k_shot=2)


# ------------------------------------------------------------------- induction

def path_graph(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    from gcope.graphstore import GraphDataset
    return GraphDataset(name="path",
                        features=rng.normal(size=(n, d)).astype(np.float32),
                        edges=edges, labels=np.zeros(n, dtype=np.int64),
                        num_classes=1)


def test_induce_subgraph_path_example():
    g = path_graph(6)
    sub = induce_subgraph(g, 2, hops=2)
    # center first, then breadth-first order with index ties ascending
    assert sub.nodes.tolist() == [2, 1, 3, 0, 4]
    assert sub.offsets.tolist() == [0, 5]
    assert sub.adjacency.shape == (5, 5)
    assert sub.features is g.features   # the rows that `nodes` index


@pytest.mark.parametrize("seed", range(6))
def test_induce_subgraph_matches_floyd_warshall(seed):
    g = target_graph(n=25, seed=seed)
    dist = floyd_warshall(g.adjacency.toarray())
    for center in (0, 7, 24):
        for hops in (1, 2, 3):
            sub = induce_subgraph(g, center, hops)
            want = set(np.flatnonzero(dist[center] <= hops).tolist())
            assert set(sub.nodes.tolist()) == want


def test_induce_subgraph_center_out_of_range():
    g = target_graph(n=10)
    with pytest.raises(errors.IndexOutOfRange):
        induce_subgraph(g, 10, hops=2)
    for centers in ([0, 3, 10], [-1, 4], [9, 2, 25, 5], []):
        with pytest.raises(errors.IndexOutOfRange):
            induce_subgraph(g, np.array(centers, dtype=np.int64), hops=2)


def ball_order(dist, center, hops):
    """Nodes within `hops` of center by (distance, index): the center, then
    each BFS level in ascending index order."""
    ball = np.flatnonzero(dist[center] <= hops)
    return ball[np.lexsort((ball, dist[center, ball]))]


@pytest.mark.parametrize("seed", range(4))
def test_batch_blocks_are_the_floyd_warshall_balls_induced(seed):
    g = target_graph(n=30, seed=seed)
    dense = g.adjacency.toarray()
    dist = floyd_warshall(dense)
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, g.num_nodes, size=12)   # repeats allowed
    for hops in (1, 2, 3):
        batch = induce_subgraph(g, centers, hops)
        adj = batch.adjacency.toarray()
        assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.nodes.size == adj.shape[0]
        for b, c in enumerate(centers):
            s, e = batch.offsets[b], batch.offsets[b + 1]
            want = ball_order(dist, c, hops)
            assert batch.nodes[s:e].tolist() == want.tolist()
            assert np.array_equal(adj[s:e, s:e], dense[np.ix_(want, want)])
            assert not adj[s:e, :s].any() and not adj[s:e, e:].any()   # block-diagonal


def test_batch_csr_is_canonical():
    g = target_graph(n=60, seed=3)
    batch = induce_subgraph(g, np.arange(0, 60, 3), hops=2)
    a = batch.adjacency
    assert a.format == "csr" and a.has_canonical_format
    for r in range(a.shape[0]):
        cols = a.indices[a.indptr[r]:a.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)   # sorted, no duplicates
    assert np.all(a.data == 1.0)


# -------------------------------------------------------------------- training

def pretrained_encoder(d_p=8, hidden=8, seed=0):
    return make_encoder("gcn", d_p, hidden=hidden, activation="tanh", seed=seed)


def test_zero_learning_rate_changes_nothing():
    g = target_graph()
    task = build_fewshot_task(g, 1, seed=0)
    enc = pretrained_encoder()
    before = [p.data.copy() for p in enc.params()]
    model = finetune(enc, task, TransferConfig(epochs=3, learning_rate=0.0),
                     ProjectionConfig(d_p=8))
    for p, old in zip(model.encoder.params(), before):
        assert np.array_equal(p.data, old)
    assert np.all(model.head_w.data == 0.0)
    # the source encoder object itself is never mutated
    for p, old in zip(enc.params(), before):
        assert np.array_equal(p.data, old)


def cache_batches(model):
    """The distinct prepared batches of a model's subgraph cache."""
    return list({id(batch): batch for batch, _ in model.subgraph_cache.values()}.values())


@pytest.mark.parametrize("mode", ["finetune", "prompt"])
def test_each_ego_graph_is_normalised_once_per_call(monkeypatch, mode):
    """Once per batch, and the batches hold every split node's ego graph once."""
    nn_module = importlib.import_module("gcope.nn")
    real, normalised = nn_module.gcn_normalize, []

    def counting(adj):
        normalised.append(adj.shape[0])
        return real(adj)

    monkeypatch.setattr(nn_module, "gcn_normalize", counting)
    monkeypatch.setattr(transfer_module, "BATCH_NODES", 120)
    task = build_fewshot_task(target_graph(), 1, seed=0)
    run = finetune if mode == "finetune" else prompt_transfer
    model = run(pretrained_encoder(), task, TransferConfig(mode=mode, epochs=3),
                ProjectionConfig(d_p=8))
    batches = cache_batches(model)
    assert len(batches) > 3   # the cap cut at least one split
    assert sorted(normalised) == sorted(b.nodes.size for b in batches)
    splits = np.concatenate([task.train_ids, task.val_ids, task.test_ids])
    assert sum(b.offsets.size - 1 for b in batches) == splits.size == len(model.subgraph_cache)
    for v in splits:
        batch, row = model.subgraph_cache[int(v)]
        assert batch.nodes[batch.offsets[row]] == v   # its row holds its own ego graph


@pytest.mark.parametrize("kind", ["gcn", "fagcn"])
@pytest.mark.parametrize("mode", ["finetune", "prompt"])
def test_no_encoder_forward_sees_more_nodes_than_the_cap(monkeypatch, kind, mode):
    task = build_fewshot_task(target_graph(), 1, seed=0)
    balls = induce_subgraph(task.target, np.arange(task.target.num_nodes), task.hops)
    cap = int(np.diff(balls.offsets).max())   # the largest ego graph fits alone
    monkeypatch.setattr(transfer_module, "BATCH_NODES", cap)
    enc = make_encoder(kind, 8, hidden=8, seed=0)
    seen, forward = [], type(enc).forward

    def spy(self, x, operator):
        seen.append(x.shape[0])
        return forward(self, x, operator)

    monkeypatch.setattr(type(enc), "forward", spy)
    run = finetune if mode == "finetune" else prompt_transfer
    model = run(enc, task, TransferConfig(mode=mode, epochs=3), ProjectionConfig(d_p=8))
    predict_scores(model, task, task.test_ids)
    assert len(cache_batches(model)) > 3 and max(seen) <= cap


def test_predict_scores_encodes_each_batch_at_most_once(monkeypatch):
    monkeypatch.setattr(transfer_module, "BATCH_NODES", 60)
    task = build_fewshot_task(target_graph(), 1, seed=0)
    model = finetune(pretrained_encoder(), task, TransferConfig(epochs=1),
                     ProjectionConfig(d_p=8))
    encoded, real_logits_for = [], TrainedModel.logits_for

    def spy(self, batch):
        encoded.append(id(batch))
        return real_logits_for(self, batch)

    monkeypatch.setattr(TrainedModel, "logits_for", spy)
    ids = np.concatenate([task.test_ids[::-1], task.train_ids, task.test_ids[:5]])
    scores = predict_scores(model, task, ids)
    touched = {id(model.subgraph_cache[int(v)][0]) for v in ids}
    assert len(touched) > 2
    assert sorted(encoded) == sorted(touched)
    # the same rows as scoring one node at a time
    for i in (0, len(ids) // 2, len(ids) - 1):
        assert np.array_equal(scores[i], predict_scores(model, task, ids[i:i + 1])[0])


def test_predict_scores_reads_each_batch_s_own_features():
    """Batches prepared for another target score on that target's rows."""
    task = build_fewshot_task(target_graph(), 1, seed=0)
    model = finetune(pretrained_encoder(), task, TransferConfig(epochs=2, learning_rate=1e-2),
                     ProjectionConfig(d_p=8))
    other = build_fewshot_task(target_graph(n=50, seed=7), 1, seed=1)
    subs = transfer_module._prepare_subgraphs(other, ProjectionConfig(d_p=8), model.encoder)
    feats = svd_project(other.target.features, ProjectionConfig(d_p=8)).matrix
    for v in other.test_ids[:5]:
        one = induce_subgraph(other.target, v, other.hops)
        one = replace(one, features=feats, operator=model.encoder.prepare(one.adjacency))
        np.testing.assert_allclose(predict_scores(model, other, [v], subs=subs)[0],
                                   model.logits_for(one).data[0], rtol=1e-6, atol=1e-6)


def test_predict_scores_builds_no_tape(monkeypatch):
    g = target_graph()
    task = build_fewshot_task(g, 1, seed=0)
    model = finetune(pretrained_encoder(), task, TransferConfig(epochs=1),
                     ProjectionConfig(d_p=8))
    taped = []
    real_logits_for = TrainedModel.logits_for

    def spy(self, batch):
        out = real_logits_for(self, batch)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(TrainedModel, "logits_for", spy)
    predict_scores(model, task, task.val_ids)
    val_batches = {id(model.subgraph_cache[int(v)][0]) for v in task.val_ids}
    assert len(taped) == len(val_batches) and not any(taped)
    # recording is back on once scoring returns
    model.logits_for(model.subgraph_cache[int(task.train_ids[0])][0])
    assert taped[-1]


def batch_model(kind, prompt, seed=0):
    """A model with a random head (and random prompt tokens), so every logit
    depends on the whole ego graph."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(kind, 8, hidden=8, seed=seed)
    tokens = Param(0.5 * rng.standard_normal((3, 8)).astype(np.float32)) if prompt else None
    return TrainedModel(encoder=enc, prompt_tokens=tokens,
                        head_w=Param(rng.standard_normal((8, 3)).astype(np.float32)),
                        head_b=Param(rng.standard_normal(3).astype(np.float32)))


@pytest.mark.parametrize("kind", ["gcn", "fagcn"])
@pytest.mark.parametrize("prompt", [False, True], ids=["finetune", "prompt"])
def test_batch_logits_equal_one_graph_batches(kind, prompt):
    g = target_graph(n=60, seed=5)
    feats = svd_project(g.features, ProjectionConfig(d_p=8)).matrix
    model = batch_model(kind, prompt)
    centers = np.array([0, 17, 3, 59, 17, 42, 8, 33, 21, 50])

    def prepared(c):
        batch = induce_subgraph(g, c, 2)
        return replace(batch, features=feats, adjacency=None,
                       operator=model.encoder.prepare(batch.adjacency))

    many = model.logits_for(prepared(centers)).data
    one = np.vstack([model.logits_for(prepared(c)).data for c in centers])
    assert many.shape == (centers.size, 3)
    np.testing.assert_allclose(many, one, rtol=1e-6, atol=1e-6)
    assert np.array_equal(many.argmax(axis=1), one.argmax(axis=1))
    assert many[1].tobytes() == many[4].tobytes()   # a repeated center, same graph


def test_finetune_learns_separable_task():
    g = target_graph(n=60, h=0.9, seed=1)
    task = build_fewshot_task(g, 3, seed=0)
    enc = pretrained_encoder(seed=1)
    model = finetune(enc, task, TransferConfig(epochs=60, learning_rate=5e-3),
                     ProjectionConfig(d_p=8))
    rep = evaluate_model(model, task, "test")
    assert rep.acc > 0.6
    assert rep.auc > 0.7


def test_finetune_deterministic_across_runs():
    g = target_graph()
    task = build_fewshot_task(g, 2, seed=2)
    reports, weights = [], []
    for _ in range(2):
        enc = pretrained_encoder(seed=3)
        model = finetune(enc, task, TransferConfig(epochs=10, learning_rate=1e-3),
                         ProjectionConfig(d_p=8))
        reports.append(evaluate_model(model, task, "test"))
        weights.append(model.head_w.data.tobytes())
    assert reports[0] == reports[1]
    assert weights[0] == weights[1]


# --------------------------------------------------------------------- prompts

def test_zero_prompt_tokens_leave_features_unchanged():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    out = apply_prompt(Tensor(x.copy()), Param(np.zeros((3, 4))))
    assert np.array_equal(out.data, x)


def test_prompt_transfer_keeps_encoder_frozen():
    g = target_graph()
    task = build_fewshot_task(g, 2, seed=0)
    enc = pretrained_encoder()
    before = [p.data.tobytes() for p in enc.params()]
    model = prompt_transfer(enc, task, TransferConfig(
        mode="prompt", epochs=8, learning_rate=1e-2), ProjectionConfig(d_p=8))
    after = [p.data.tobytes() for p in model.encoder.params()]
    assert before == after


def test_prompt_trainable_param_count():
    g = target_graph(n=120, classes=5, d=16, seed=4)
    task = build_fewshot_task(g, 2, seed=0)
    enc = make_encoder("gcn", 100, hidden=100, seed=0)
    before = [p.data.tobytes() for p in enc.params()]
    model = prompt_transfer(enc, task, TransferConfig(
        mode="prompt", epochs=1, prompt_tokens=10), ProjectionConfig(d_p=100))
    # the encoder is frozen, so the tokens and the head are all that train:
    # 10 tokens x 100 dims + 100 x 5 head weights + 5 biases
    assert [p.data.tobytes() for p in model.encoder.params()] == before
    trained = (model.prompt_tokens, model.head_w, model.head_b)
    assert sum(p.data.size for p in trained) == 1505


def test_prompt_tokens_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    tokens = Param(0.1 * rng.standard_normal((2, 3)), name="tokens")

    def loss():
        return apply_prompt(Tensor(x.copy()), tokens).square().sum()

    l = loss()
    l.backward()
    got = tokens.grad.copy()
    want = finite_diff_grad(lambda: float(loss().data), tokens.data)
    assert rel_err(got, want) < 1e-5


# --------------------------------------------------------------------- metrics

def test_accuracy_and_f1_hand_confusion_matrix():
    y_true = np.array([0, 0, 1, 1, 2, 2])
    y_pred = np.array([0, 1, 1, 1, 2, 0])
    assert accuracy(y_true, y_pred) == pytest.approx(4 / 6)
    # class 0: tp=1 fp=1 fn=1 -> f1 = 2/4; class 1: tp=2 fp=1 fn=0 -> 4/5
    # class 2: tp=1 fp=0 fn=1 -> 2/3
    want = np.mean([0.5, 0.8, 2 / 3])
    assert macro_f1(y_true, y_pred, 3) == pytest.approx(want, abs=1e-12)


def brute_auc(scores, positives):
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.size * neg.size)


@pytest.mark.parametrize("seed", range(10))
def test_binary_auc_matches_pairwise_oracle_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    scores = rng.integers(0, 5, size=n).astype(float)  # many ties
    positives = rng.random(n) < 0.5
    if positives.all() or not positives.any():
        positives[0] = ~positives[0]
    assert binary_auc(scores, positives) == pytest.approx(
        brute_auc(scores, positives), abs=1e-12)


def test_perfect_and_degenerate_auc():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    positives = np.array([False, False, True, True])
    assert binary_auc(scores, positives) == 1.0
    assert binary_auc(scores[::-1], positives) == 0.0
    assert np.isnan(binary_auc(scores, np.zeros(4, bool)))


def test_macro_ovr_auc_perfect_classifier():
    y = np.array([0, 1, 2, 0, 1, 2])
    scores = np.eye(3)[y] + 0.01
    assert macro_ovr_auc(y, scores) == 1.0


def test_evaluate_unknown_split_rejected():
    g = target_graph()
    task = build_fewshot_task(g, 1, seed=0)
    enc = pretrained_encoder()
    model = finetune(enc, task, TransferConfig(epochs=1), ProjectionConfig(d_p=8))
    with pytest.raises(errors.InvalidArgument):
        evaluate_model(model, task, "dev")


def test_predict_scores_reads_only_the_split_subgraphs():
    g = target_graph()
    task = build_fewshot_task(g, 1, seed=0)
    model = finetune(pretrained_encoder(), task, TransferConfig(epochs=1),
                     ProjectionConfig(d_p=8))
    ids = np.concatenate([task.train_ids, task.val_ids, task.test_ids])
    assert predict_scores(model, task, ids).shape == (ids.size, task.c_way)
    node = int(task.test_ids[0])
    with pytest.raises(errors.IndexOutOfRange, match=f"node {node} "):
        predict_scores(model, task, task.test_ids, subs={})


def test_predict_scores_rejects_subgraphs_the_encoder_has_not_prepared():
    # a raw ego graph's adjacency is not the GCN operator: scoring it would
    # silently skip the self-loops and normalisation
    g = target_graph()
    task = build_fewshot_task(g, 1, seed=0)
    model = finetune(pretrained_encoder(), task, TransferConfig(epochs=1),
                     ProjectionConfig(d_p=8))
    raw_batch = induce_subgraph(g, task.test_ids, task.hops)
    raw = {int(v): (raw_batch, row) for row, v in enumerate(task.test_ids)}
    with pytest.raises(errors.InvalidArgument, match="operator"):
        predict_scores(model, task, task.test_ids, subs=raw)


def test_transfer_config_validation():
    with pytest.raises(errors.InvalidArgument):
        TransferConfig(mode="linearprobe")
    with pytest.raises(errors.InvalidArgument):
        TransferConfig(epochs=0)
