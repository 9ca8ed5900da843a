import numpy as np
import pytest

from sclrec.dataset import (ParseError, build_graph, dense_norm_adj, load_ml100k,
                            split_train_test)


def write_tsv(tmp_path, rows):
    path = tmp_path / "u.data"
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))
    return path


def test_load_single_line(tmp_path):
    ds = load_ml100k(write_tsv(tmp_path, [(1, 1, 5, 0)]))
    assert ds.num_users == 1 and ds.num_items == 1
    assert ds.train == frozenset({(0, 0)})


def test_load_dedup_and_zero_basing(tmp_path):
    ds = load_ml100k(write_tsv(tmp_path, [(3, 7, 5, 0), (3, 7, 2, 1), (1, 2, 4, 2)]))
    # dense re-index: users {1,3}->{0,1}, items {2,7}->{0,1}
    assert ds.num_users == 2 and ds.num_items == 2
    assert (1, 1) in ds.train and len(ds.train) == 2


def test_load_all_ratings_kept(tmp_path):
    rows = [(u, i, r, 0) for u in (1, 2) for i, r in ((1, 1), (2, 3), (3, 5))]
    ds = load_ml100k(write_tsv(tmp_path, rows))
    assert len(ds.train) == 6  # implicit feedback: no rating threshold


def test_load_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t1\t5\t0\nbroken line\n")
    with pytest.raises(ParseError, match="line 2"):
        load_ml100k(path)


def test_load_errors_name_path_and_line(tmp_path):
    path = tmp_path / "u.data"
    for content, message in ((b"1\t1\t5\t0\n1 2 5 0\n", "expected 4 tab-separated fields"),
                             (b"1\t1\t5\t0\n2\t1\t5\t0\xff\n", "non-ASCII byte")):
        path.write_bytes(content)
        with pytest.raises(ParseError) as info:
            load_ml100k(path)
        assert str(info.value).startswith(f"{path}: line 2: {message}")


def test_load_non_integer_id_names_path_and_line(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t1\t5\t0\n2\tx7\t5\t0\n")
    with pytest.raises(ParseError) as info:
        load_ml100k(path)
    assert str(info.value) == (f"{path}: line 2: non-integer id: "
                               "invalid literal for int() with base 10: 'x7'")


def test_load_empty_file(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("")
    with pytest.raises(ParseError):
        load_ml100k(path)


def test_load_bit_exact_reload(tmp_path):
    rows = [(u, i, 3, 0) for u in range(1, 20) for i in range(1, 30) if (u * i) % 7 < 3]
    path = write_tsv(tmp_path, rows)
    a, b = load_ml100k(path), load_ml100k(path)
    assert a == b
    assert a.orig_user_ids == b.orig_user_ids and a.orig_item_ids == b.orig_item_ids


def test_split_exact_arithmetic(tmp_path):
    rows = [(1, i, 3, 0) for i in range(1, 11)]
    ds = load_ml100k(write_tsv(tmp_path, rows))
    out = split_train_test(ds, ratio=0.8, seed=1)
    assert len(out.train) == 8 and len(out.test) == 2


def test_split_floor_clamped(tmp_path):
    ds = load_ml100k(write_tsv(tmp_path, [(1, 1, 3, 0), (2, 1, 3, 0), (2, 2, 3, 0)]))
    out = split_train_test(ds, ratio=0.8, seed=1)
    # user with 1 interaction keeps it in train
    assert sum(1 for u, _ in out.train if u == 0) == 1
    assert sum(1 for u, _ in out.test if u == 0) == 0


def test_split_deterministic_and_partition(tmp_path):
    rows = [(u, i, 3, 0) for u in range(1, 15) for i in range(1, 25) if (u + i) % 3]
    ds = load_ml100k(write_tsv(tmp_path, rows))
    a = split_train_test(ds, ratio=0.8, seed=42)
    b = split_train_test(ds, ratio=0.8, seed=42)
    assert a.train == b.train and a.test == b.test
    assert a.train | a.test == ds.train
    assert not (a.train & a.test)
    # every user still trains on something
    train_users = {u for u, _ in a.train}
    assert train_users == {u for u, _ in ds.train}


def test_split_bad_ratio(tmp_path):
    ds = load_ml100k(write_tsv(tmp_path, [(1, 1, 3, 0)]))
    for ratio in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            split_train_test(ds, ratio=ratio, seed=0)


def test_build_graph_single_edge():
    g = build_graph([(0, 0)], 1, 1)
    assert g.norm_adj[0, 1] == 1.0 and g.norm_adj[1, 0] == 1.0
    assert g.norm_adj.nnz == 2


def test_build_graph_hand_value():
    # user0-{item0,item1}, user1-{item0}: (u0,i0) = 1/sqrt(2*2) = 0.5
    g = build_graph([(0, 0), (0, 1), (1, 0)], 2, 2)
    assert g.norm_adj[0, 2] == pytest.approx(0.5)


def test_build_graph_empty():
    g = build_graph([], 3, 4)
    assert g.norm_adj.nnz == 0 and g.norm_adj.shape == (7, 7)


def test_build_graph_out_of_range():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], 2, 3)


def test_norm_adj_matches_dense_reference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nu = int(rng.integers(1, 26))
        ni = int(rng.integers(1, 26))
        edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.3]
        g = build_graph(edges, nu, ni)
        ref = dense_norm_adj(edges, nu, ni)
        assert np.array_equal(g.norm_adj.toarray(), ref)  # tolerance 0


def test_norm_adj_exactly_symmetric(rng):
    from conftest import random_bipartite
    for _ in range(10):
        g = random_bipartite(rng)
        dense = g.norm_adj.toarray()
        assert np.array_equal(dense, dense.T)


def test_summary_format(tmp_path):
    ds = load_ml100k(write_tsv(tmp_path, [(1, 1, 5, 0), (1, 2, 3, 0)]))
    assert ds.summary() == "users=1 items=2 train=2 test=0 density=100.00%"
