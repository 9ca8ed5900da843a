"""The array-based loader and split against the set-based versions they
replaced, kept here as oracles with their algorithms unchanged: same keys,
same frozensets, same original ids, same random draws. Also the dataset's
key contract: range checks, read-only keys, the keys entries, and the frozenset views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrec.dataset import (InteractionDataset, ParseError, build_graph, load_ml100k,
                            split_train_test)


def load_ml100k_reference(path) -> InteractionDataset:
    pairs = set()
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.isascii():
                raise ParseError(f"{path}: line {lineno}: non-ASCII byte")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated "
                                 f"fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-integer id: {exc}") from None
            if u < 1 or i < 1:
                raise ParseError(f"{path}: line {lineno}: ids must be >= 1")
            pairs.add((u, i))
    if not pairs:
        raise ParseError(f"{path}: no interactions found")
    orig_users = sorted({u for u, _ in pairs})
    orig_items = sorted({i for _, i in pairs})
    umap = {u: k for k, u in enumerate(orig_users)}
    imap = {i: k for k, i in enumerate(orig_items)}
    train = frozenset((umap[u], imap[i]) for u, i in pairs)
    return InteractionDataset(num_users=len(orig_users), num_items=len(orig_items),
                              train=train, test=frozenset(),
                              orig_user_ids=tuple(orig_users), orig_item_ids=tuple(orig_items))


def split_train_test_reference(dataset, ratio=0.8, seed=0) -> InteractionDataset:
    by_user = {}
    for u, i in dataset.train | dataset.test:
        by_user.setdefault(u, []).append(i)
    rng = np.random.default_rng(seed)
    train, test = set(), set()
    for u in sorted(by_user):
        items = sorted(by_user[u])
        n_train = max(1, int(np.floor(ratio * len(items))))
        perm = rng.permutation(len(items))
        for k, idx in enumerate(perm):
            (train if k < n_train else test).add((u, items[idx]))
    return InteractionDataset(num_users=dataset.num_users, num_items=dataset.num_items,
                              train=frozenset(train), test=frozenset(test),
                              orig_user_ids=dataset.orig_user_ids,
                              orig_item_ids=dataset.orig_item_ids)


def random_file(path, rng):
    """Unsorted lines over sparse ids, with duplicate pairs (other ratings and
    stamps), blank lines, and users holding a single interaction."""
    nu, ni = int(rng.integers(1, 30)), int(rng.integers(1, 40))
    user_ids = rng.choice(10 ** int(rng.integers(2, 13)), size=nu, replace=False) + 1
    item_ids = rng.choice(10 ** int(rng.integers(2, 13)), size=ni, replace=False) + 1
    density = rng.uniform(0.02, 0.9)
    rows = []
    for u in user_ids:
        held = item_ids[rng.random(ni) < density]
        if held.size == 0 or rng.random() < 0.2:  # some users hold one item
            held = item_ids[[int(rng.integers(ni))]]
        rows += [(int(u), int(i)) for i in held]
    rows += [rows[int(k)] for k in rng.integers(len(rows), size=len(rows) // 3)]
    lines = [f"{u}\t{i}\t{int(rng.integers(1, 6))}\t{int(rng.integers(10 ** 9))}\n"
             for u, i in rows]
    lines += ["\n"] * int(rng.integers(3))
    rng.shuffle(lines)
    path.write_text("".join(lines))
    return path


def assert_same_dataset(got, want):
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    for name in ("train_keys", "test_keys"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == np.int64 and np.array_equal(g, w)
    assert got.train == want.train and got.test == want.test
    assert got.orig_user_ids == want.orig_user_ids
    assert got.orig_item_ids == want.orig_item_ids
    assert got == want


def test_load_and_split_match_set_based_reference(tmp_path):
    rng = np.random.default_rng(2024)
    for trial in range(30):
        path = random_file(tmp_path / f"u{trial}.data", rng)
        loaded, reference = load_ml100k(path), load_ml100k_reference(path)
        assert_same_dataset(loaded, reference)
        assert type(loaded.orig_user_ids[0]) is int
        # the same interactions on the odd users of a wider id space: users 0, 2, 4, ...
        # and the last hold none, and the split skips them without drawing
        spread = InteractionDataset(2 * loaded.num_users + 2, loaded.num_items,
                                    train=[(2 * u + 1, i) for u, i in loaded.train])
        for ratio in (0.1, 0.5, 0.8, 0.99):
            for seed in (0, 1, 17):
                for data, ref in ((loaded, reference), (spread, spread)):
                    split = split_train_test(data, ratio=ratio, seed=seed)
                    assert_same_dataset(split, split_train_test_reference(ref, ratio, seed))
                    # a split dataset splits again over train and test together
                    assert_same_dataset(split_train_test(split, ratio=0.5, seed=seed),
                                        split_train_test_reference(split, 0.5, seed))


def test_split_users_with_one_interaction_keep_it_in_train():
    ds = InteractionDataset(3, 4, train=[(0, 2), (1, 0), (1, 3), (2, 1)])
    for ratio in (0.1, 0.5, 0.99):
        out = split_train_test(ds, ratio=ratio, seed=3)
        assert_same_dataset(out, split_train_test_reference(ds, ratio, 3))
        assert {(0, 2), (2, 1)} <= out.train


@pytest.mark.parametrize("column", [0, 1])
def test_load_ids_beyond_int64_name_path_and_line(tmp_path, column):
    path = tmp_path / "u.data"
    for big in (2 ** 63, 2 ** 63 + 1):
        ids = [3, 3]
        ids[column] = big
        path.write_text(f"1\t1\t5\t0\n{ids[0]}\t{ids[1]}\t5\t0\n")
        with pytest.raises(ParseError) as info:
            load_ml100k(path)
        assert str(info.value) == f"{path}: line 2: ids must be in [1, 2**63 - 1]"


def test_load_largest_int64_id(tmp_path):
    path = tmp_path / "u.data"
    big = 2 ** 63 - 1
    path.write_text(f"{big}\t{big}\t5\t0\n{big - 1}\t{big}\t5\t0\n1\t2\t3\t0\n")
    ds = load_ml100k(path)
    assert ds.orig_user_ids == (1, big - 1, big) and ds.orig_item_ids == (2, big)
    assert_same_dataset(ds, load_ml100k_reference(path))


@pytest.mark.parametrize("side", ["train", "test"])
@pytest.mark.parametrize("pair", [(0, 5), (2, 0), (-1, 1), (1, -1)])
def test_out_of_range_pair_raises_build_graphs_message(side, pair):
    other = "test" if side == "train" else "train"
    with pytest.raises(ValueError) as want:
        build_graph([(0, 0), pair], 2, 3)
    with pytest.raises(ValueError) as got:
        InteractionDataset(2, 3, **{side: [(0, 0), pair], other: [(1, 1)]})
    assert str(got.value) == str(want.value) == f"edge ({pair[0]},{pair[1]}) out of range"


def test_overlapping_train_and_test_rejected():
    with pytest.raises(ValueError, match="overlap"):
        InteractionDataset(2, 2, train=[(0, 0), (1, 1)], test=[(1, 1)])


def test_keys_sorted_distinct_and_read_only():
    ds = InteractionDataset(3, 4, train=[(2, 1), (0, 3), (2, 1), (0, 0)], test=[(1, 2)])
    assert ds.train_keys.tolist() == [0, 3, 9] and ds.test_keys.tolist() == [6]
    graph = ds.train_graph
    for keys in (ds.train_keys, ds.test_keys):
        assert not keys.flags.writeable
        with pytest.raises(ValueError):
            keys[0] = 1
    assert ds.train_graph is graph


@st.composite
def edge_sets(draw):
    """(pairs with duplicates, num_users, num_items); trailing users and items often hold
    no edge, and the pair list may be empty."""
    nu, ni = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pair = st.tuples(st.integers(0, nu - 1), st.integers(0, ni - 1))
    pairs = draw(st.lists(pair, max_size=40))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    return pairs, nu + draw(st.integers(0, 2)), ni + draw(st.integers(0, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edge_sets())
def test_build_graph_keys_entry_matches_pairs_entry(case):
    pairs, nu, ni = case
    keys = np.array(sorted({u * ni + i for u, i in pairs}), dtype=np.int64)
    want = build_graph(pairs, nu, ni)
    got = build_graph(keys, nu, ni, as_keys=True)
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.norm_adj, name), getattr(want.norm_adj, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for graph in (got, want):
        assert graph.keys.dtype == np.int64 and np.array_equal(graph.keys, keys)
        assert not graph.keys.flags.writeable
    assert got.edges == tuple(sorted(set(pairs)))


BAD_KEYS = {  # for 2 users x 3 items, keys in [0, 6)
    "unsorted": np.array([4, 1], dtype=np.int64), "duplicated": np.array([1, 1, 4], dtype=np.int64),
    "negative": np.array([-1, 2], dtype=np.int64), "past the end": np.array([0, 6], dtype=np.int64),
    "int32": np.array([0, 1], dtype=np.int32), "2-d": np.array([[0, 1]], dtype=np.int64),
    "list": [0, 1]}


@pytest.mark.parametrize("keys", BAD_KEYS.values(), ids=BAD_KEYS.keys())
def test_keys_entries_reject_unsorted_duplicated_and_out_of_range_keys(keys):
    with pytest.raises(ValueError, match="keys must be"):
        build_graph(keys, 2, 3, as_keys=True)
    for side in ("train", "test"):
        with pytest.raises(ValueError, match="keys must be"):
            InteractionDataset(2, 3, **{side: keys}, as_keys=True)


def test_keys_entry_freezes_its_own_keys_and_rejects_overlap():
    train, test = np.array([0, 3, 5], dtype=np.int64), np.array([4], dtype=np.int64)
    ds = InteractionDataset(2, 3, train=train, test=test, as_keys=True)
    assert ds == InteractionDataset(2, 3, train=[(0, 0), (1, 0), (1, 2)], test=[(1, 1)])
    for keys in (ds.train_keys, ds.test_keys):
        with pytest.raises(ValueError):
            keys[0] = 1
    assert train.flags.writeable and test.flags.writeable  # the caller's arrays are not frozen
    assert InteractionDataset(2, 3, train=train, as_keys=True).test_keys.size == 0
    with pytest.raises(ValueError, match="overlap"):
        InteractionDataset(2, 3, train=train, test=train[1:2], as_keys=True)


def test_train_view_builds_the_training_graph():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nu, ni = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        pairs = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.4]
        ds = split_train_test(InteractionDataset(nu, ni, train=pairs), ratio=0.7, seed=1)
        # what the benchmark's node-drop probe builds
        probe, graph = build_graph(ds.train, nu, ni).norm_adj, ds.train_graph.norm_adj
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(probe, name), getattr(graph, name))


def test_datasets_compare_by_keys():
    a = InteractionDataset(2, 2, train=[(0, 0)], test=[(1, 1)], orig_user_ids=(5, 9))
    assert a == InteractionDataset(2, 2, train=np.array([[0, 0]]), test=frozenset({(1, 1)}))
    assert a != InteractionDataset(2, 2, train=[(0, 0), (1, 1)])
    assert a != InteractionDataset(2, 3, train=[(0, 0)], test=[(1, 1)])
