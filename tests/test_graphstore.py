import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcope import errors
from gcope.graphstore import (GraphDataset, compute_homophily, describe,
                              load_dataset, synth_dataset, write_dataset)


def make_graph(n, edges, labels, num_classes, d=2, name="g"):
    rng = np.random.default_rng(0)
    return GraphDataset(name=name, features=rng.normal(size=(n, d)),
                        edges=np.array(edges).reshape(-1, 2),
                        labels=np.array(labels), num_classes=num_classes)


def test_symmetrization_doubles_undirected_edges(tmp_path):
    g = make_graph(3, [(0, 1), (1, 2)], [0, 1, 0], 2)
    assert describe(g).edge_count == 4
    assert (g.adjacency != g.adjacency.T).nnz == 0


def test_duplicate_edges_deduplicated():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)], [0, 0, 0], 1)
    assert g.edges.shape[0] == 1


def test_edge_out_of_range_rejected():
    with pytest.raises(errors.IndexOutOfRange):
        make_graph(3, [(0, 5)], [0, 0, 0], 1)


def test_label_length_mismatch_rejected():
    with pytest.raises(errors.ShapeMismatch):
        make_graph(3, [(0, 1)], [0, 0], 1)


def test_nonfinite_features_rejected():
    feats = np.zeros((2, 2))
    feats[0, 0] = np.nan
    with pytest.raises(errors.NonFiniteFeature):
        GraphDataset(name="bad", features=feats, edges=[(0, 1)],
                     labels=np.array([0, 0]), num_classes=1)


def test_homophily_trivials():
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1], 2)
    assert compute_homophily(tri) == 1.0
    pair = make_graph(2, [(0, 1)], [0, 1], 2)
    assert compute_homophily(pair) == 0.0
    cyc = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 1, 1], 2)
    assert compute_homophily(cyc) == 0.5


def test_homophily_errors():
    with pytest.raises(errors.NoEdges):
        compute_homophily(make_graph(2, [], [0, 1], 2))
    with pytest.raises(errors.UnlabeledNode):
        compute_homophily(make_graph(2, [(0, 1)], [0, -1], 2))


def test_describe_reports_nan_homophily_where_undefined():
    for g in (make_graph(3, [], [0, 1, 0], 2),
              make_graph(3, [(0, 1)], [0, -1, 1], 2)):
        meta = describe(g)
        assert np.isnan(meta.homophily)
        assert (meta.node_count, meta.edge_count) == (3, 2 * g.edges.shape[0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_homophily_matches_bruteforce_scan(data):
    n = data.draw(st.integers(2, 10))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .map(lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=n * (n - 1) // 2))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    g = make_graph(n, sorted(edges), labels, 3)
    intra = sum(1 for u, v in g.edges if labels[u] == labels[v])
    assert compute_homophily(g) == pytest.approx(intra / g.edges.shape[0], abs=1e-12)


@pytest.mark.parametrize("h", [0.0, 0.5, 0.8, 1.0])
def test_synth_hits_target_homophily(h):
    g = synth_dataset(1000, 5, 16, h, 1)
    assert abs(compute_homophily(g) - h) <= 0.05
    deg = np.asarray(g.adjacency.sum(axis=1)).ravel()
    assert deg.min() >= 1


def test_synth_extremes_exact():
    assert compute_homophily(synth_dataset(6, 2, 4, 1.0, 7)) == 1.0
    assert compute_homophily(synth_dataset(6, 2, 4, 0.0, 7)) == 0.0


def test_synth_invalid_args():
    with pytest.raises(errors.InvalidArgument):
        synth_dataset(3, 5, 4, 0.5, 0)
    with pytest.raises(errors.InvalidArgument):
        synth_dataset(10, 2, 4, 1.5, 0)


def test_synth_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(synth_dataset(50, 3, 4, 0.7, 9), a)
    write_dataset(synth_dataset(50, 3, 4, 0.7, 9), b)
    for f in ("meta.tsv", "features.tsv", "edges.tsv", "labels.tsv"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_roundtrip_field_for_field(tmp_path):
    g = synth_dataset(40, 3, 5, 0.6, 4)
    write_dataset(g, tmp_path / "d")
    g2 = load_dataset(tmp_path / "d")
    assert g2.name == g.name
    assert np.array_equal(g2.features, g.features)
    assert np.array_equal(g2.edges, g.edges)
    assert np.array_equal(g2.labels, g.labels)
    assert g2.num_classes == g.num_classes


def test_load_missing_file(tmp_path):
    with pytest.raises(errors.MissingFile):
        load_dataset(tmp_path)


def test_load_bad_edge_index(tmp_path):
    g = synth_dataset(3, 2, 2, 0.5, 0)
    write_dataset(g, tmp_path / "d")
    (tmp_path / "d" / "edges.tsv").write_text("0\t5\n")
    with pytest.raises(errors.IndexOutOfRange):
        load_dataset(tmp_path / "d")


def test_describe_matches_compute_homophily():
    g = synth_dataset(100, 2, 8, 0.5, 3)
    assert describe(g).homophily == compute_homophily(g)


def small_dataset_dir(tmp_path):
    d = tmp_path / "d"
    write_dataset(synth_dataset(6, 2, 3, 0.5, 0), d)
    return d


@pytest.mark.parametrize("fname, text", [
    ("features.tsv", "1\t2\t3\n" * 5 + "1\tabc\t3\n"),
    ("features.tsv", "1\t2\t3\n" * 5 + "1\t2\n"),
    ("edges.tsv", "0\t1\n1\t2\t3\n"),
    ("edges.tsv", "0\t1\t2\n"),
    ("edges.tsv", "0\t1\n1\t2.5\n"),
    ("labels.tsv", "0\n1\n0\n1\n0\none\n"),
    ("meta.tsv", "name\tg\nnum_nodes\tsix\nnum_classes\t2\nfeature_dim\t3\n"),
    ("meta.tsv", "name\tg\nnum_nodes\t6\nnum_classes\t2\n"),
], ids=["non-numeric-feature", "ragged-feature-row", "three-field-edge-line",
        "three-field-edges", "non-integer-edge", "non-integer-label",
        "non-integer-num-nodes", "missing-meta-key"])
def test_load_malformed_file_is_io_error(tmp_path, fname, text):
    d = small_dataset_dir(tmp_path)
    (d / fname).write_text(text)
    with pytest.raises(errors.IoError, match=fname):
        load_dataset(d)


def test_load_features_disagreeing_with_meta_is_shape_mismatch(tmp_path):
    d = small_dataset_dir(tmp_path)
    (d / "features.tsv").write_text("1\t2\n" * 6)
    with pytest.raises(errors.ShapeMismatch):
        load_dataset(d)


def test_load_skips_blank_and_whitespace_only_lines(tmp_path):
    d = small_dataset_dir(tmp_path)
    g = load_dataset(d)
    for fname in ("features.tsv", "edges.tsv", "labels.tsv"):
        lines = (d / fname).read_text().splitlines()
        (d / fname).write_text(" \n" + "\n\n\t \n".join(lines) + "\n  ")
    g2 = load_dataset(d)
    for attr in ("features", "edges", "labels"):
        assert np.array_equal(getattr(g2, attr), getattr(g, attr))


def test_edgeless_partly_unlabeled_roundtrip_byte_identical(tmp_path):
    feats = np.array([[-0.0, 1e-45], [0.1, -2.5], [3.4e38, 0.0]], dtype=np.float32)
    g = GraphDataset(name="lonely", features=feats, edges=np.zeros((0, 2)),
                     labels=np.array([-1, 1, -1]), num_classes=2)
    write_dataset(g, tmp_path / "a")
    g2 = load_dataset(tmp_path / "a")
    assert g2.edges.shape == (0, 2) and g2.adjacency.nnz == 0
    assert g2.features.tobytes() == feats.tobytes()
    assert np.array_equal(g2.labels, g.labels)
    write_dataset(g2, tmp_path / "b")
    for f in ("meta.tsv", "features.tsv", "edges.tsv", "labels.tsv"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "edges.tsv").read_bytes() == b""
