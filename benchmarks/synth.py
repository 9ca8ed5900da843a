"""Seeded synthetic interaction files with the MovieLens-100K shape, in `u.data` format.

The file has exactly the user, item and interaction counts of ML-100K. User
activity is lognormal above a floor of 20 and capped at ML-100K's largest user
degree. Item popularity is a shifted power law over a seeded random ranking,
and every item is held by at least one user, so the loader sees exactly these
counts. SIGMA, ALPHA and OFFSET were fitted so that the median user degree and
the largest and median item degree match ML-100K; benchmarks/README.md gives
the comparison.

    python3 benchmarks/synth.py --check     # same seed -> byte-identical files
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

# Published ML-100K figures (GroupLens README; Harper & Konstan 2015).
NUM_USERS = 943
NUM_ITEMS = 1682
NUM_INTERACTIONS = 100_000
MIN_PER_USER = 20    # "each user has rated at least 20 movies"
MAX_PER_USER = 737   # the most active user's degree
# Fitted: median user degree 65, largest item degree 583, median item degree 27.
SIGMA = 1.18         # lognormal sigma of user activity above the floor
ALPHA = 1.4          # item popularity ~ (rank + OFFSET) ** -ALPHA
OFFSET = 42


def _user_counts(rng: np.random.Generator) -> np.ndarray:
    """Integer per-user counts in [MIN_PER_USER, MAX_PER_USER] summing exactly
    to NUM_INTERACTIONS."""
    weights = rng.lognormal(0.0, SIGMA, size=NUM_USERS)
    counts = np.full(NUM_USERS, MIN_PER_USER, dtype=np.int64)
    # Hand out the remainder by weight, capping heavy users and re-spreading
    # what they could not take over the rest.
    while (left := NUM_INTERACTIONS - counts.sum()) > 0:
        open_ = counts < MAX_PER_USER
        share = np.where(open_, weights, 0.0)
        extra = np.floor(left * share / share.sum()).astype(np.int64)
        if extra.sum() == 0:  # remainder smaller than one per open user
            extra[np.flatnonzero(open_)[np.argsort(-weights[open_], kind="stable")[:left]]] = 1
        counts = np.minimum(counts + extra, MAX_PER_USER)
    return counts


def generate(seed: int) -> bytes:
    """The `u.data` bytes for one seed (1-based ids, tab-separated)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, NUM_USERS, NUM_ITEMS]))
    counts = _user_counts(rng)
    ranks = rng.permutation(NUM_ITEMS) + 1
    log_pop = -ALPHA * np.log(ranks + OFFSET)
    # Every item gets one holder first: distinct slots of the per-user quotas,
    # so no user is handed more items than its count.
    slots = np.repeat(np.arange(NUM_USERS), counts)
    owners = slots[rng.choice(slots.size, size=NUM_ITEMS, replace=False)]
    held_by = [[] for _ in range(NUM_USERS)]
    for item, user in enumerate(owners):
        held_by[user].append(item)
    users, items = [], []
    for user in range(NUM_USERS):
        forced = np.array(held_by[user], dtype=np.int64)
        # Popularity-weighted sampling without replacement (Gumbel top-k).
        keys = log_pop + rng.gumbel(size=NUM_ITEMS)
        keys[forced] = -np.inf
        rest = counts[user] - forced.size
        picked = np.argpartition(-keys, rest)[:rest] if rest else forced[:0]
        chosen = np.sort(np.concatenate([forced, picked]))
        users.append(np.full(chosen.size, user))
        items.append(chosen)
    users = np.concatenate(users)
    items = np.concatenate(items)
    order = rng.permutation(users.size)
    ratings = rng.integers(1, 6, size=users.size)
    stamps = 874_724_710 + np.sort(rng.integers(0, 20_000_000, size=users.size))
    lines = [f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in
             zip((users[order] + 1).tolist(), (items[order] + 1).tolist(),
                 ratings.tolist(), stamps.tolist())]
    return "".join(lines).encode("ascii")


def degree_stats(data: bytes) -> dict:
    """Exact counts and degree statistics of `u.data` bytes."""
    pairs = np.loadtxt(data.decode("ascii").splitlines(), dtype=np.int64, usecols=(0, 1), ndmin=2)
    pairs = np.unique(pairs, axis=0)
    user_deg = np.unique(pairs[:, 0], return_counts=True)[1]
    item_deg = np.unique(pairs[:, 1], return_counts=True)[1]
    return {"users": int(user_deg.size), "items": int(item_deg.size),
            "interactions": int(pairs.shape[0]),
            "user_min": int(user_deg.min()), "user_median": float(np.median(user_deg)),
            "user_max": int(user_deg.max()), "users_at_max": int((user_deg == user_deg.max()).sum()),
            "item_median": float(np.median(item_deg)), "item_max": int(item_deg.max()),
            "items_once": int((item_deg == 1).sum())}


def check(seeds=(0, 1)) -> None:
    """Same seed gives identical bytes, other seeds differ, counts are exact."""
    want = {"users": NUM_USERS, "items": NUM_ITEMS, "interactions": NUM_INTERACTIONS}
    digests = set()
    for seed in seeds:
        first = generate(seed)
        if generate(seed) != first:
            raise AssertionError(f"seed {seed}: regenerated bytes differ")
        stats = degree_stats(first)
        if {k: stats[k] for k in want} != want:
            raise AssertionError(f"seed {seed}: counts {stats} != {want}")
        if not MIN_PER_USER <= stats["user_min"] <= stats["user_max"] <= MAX_PER_USER:
            raise AssertionError(f"seed {seed}: user degrees outside the bounds: {stats}")
        digests.add(hashlib.sha256(first).hexdigest())
        print(f"seed {seed}: ok {stats}")
    if len(digests) != len(seeds):
        raise AssertionError("different seeds gave identical files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the determinism check")
    parser.parse_args(argv)
    check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
