import tracemalloc

import numpy as np
import pytest

from conftest import mutate_tree, random_tree
from treekeep import Leaf, Split, change_count, diff_table, structural_diff

STUMP = Split(0, 2.5, Leaf(0), Leaf(1))


def test_identical_trees():
    report = structural_diff(STUMP, STUMP)
    assert report.delta == 0
    assert report.similarity == 1.0
    assert all(e.status == "kept" for e in report.entries)


def test_shifted_threshold_partial_match():
    new = Split(0, 3.5, Leaf(0), Leaf(1))
    report = structural_diff(STUMP, new)
    assert report.delta == 3
    assert report.similarity == pytest.approx((0.5 + 1.0 + 1.0) / 3)
    assert [e.match_score for e in report.entries] == [0.5, 1.0, 1.0]
    assert all(e.status == "changed" for e in report.entries)


def test_collapse_to_leaf():
    report = structural_diff(STUMP, Leaf(0))
    assert report.delta == 1
    assert report.similarity == 0.0  # kind mismatch at root, denominator max(3, 1)


def test_one_changed_leaf_class():
    new = Split(0, 2.5, Leaf(0), Leaf(0))
    report = structural_diff(STUMP, new)
    assert report.delta == 1
    assert report.similarity == pytest.approx(2.0 / 3.0)
    statuses = {e.path: e.status for e in report.entries}
    assert statuses == {"": "kept", "L": "kept", "R": "changed"}


def test_different_root_feature_scores_zero():
    new = Split(1, 2.5, Leaf(0), Leaf(1))
    report = structural_diff(STUMP, new)
    assert report.similarity == 0.0
    assert report.delta == 3


def test_descendants_of_altered_condition_are_changed_but_scored():
    prev = Split(0, 2.5, Split(1, 1.0, Leaf(0), Leaf(1)), Leaf(1))
    new = Split(0, 3.0, Split(1, 1.0, Leaf(0), Leaf(1)), Leaf(1))
    report = structural_diff(prev, new)
    assert report.delta == 5  # root altered discards everything
    assert report.similarity == pytest.approx((0.5 + 1 + 1 + 1 + 1) / 5)


def test_similarity_denominator_uses_larger_tree():
    big = Split(0, 2.5, Split(1, 1.0, Leaf(0), Leaf(1)), Leaf(1))
    assert structural_diff(big, STUMP).similarity < 1.0
    assert structural_diff(STUMP, big).similarity < 1.0


def test_delta_matches_change_count_on_random_pairs():
    rng = np.random.default_rng(61)
    for _ in range(200):
        prev = random_tree(rng)
        new = mutate_tree(rng, prev) if rng.random() < 0.5 else random_tree(rng)
        report = structural_diff(prev, new)
        assert report.delta == change_count(prev, new)
        assert report.delta == sum(1 for e in report.entries if e.status == "changed")


def test_diff_memory_is_linear_in_depth():
    # A 10,000-deep right chain whose deepest leaf flips.  Root-to-node path
    # strings held for every entry would take about 100 MB.
    def chain(deepest):
        tree = Leaf(deepest)
        for _ in range(10000):
            tree = Split(0, 0.5, Leaf(0), tree)
        return tree

    prev, new = chain(1), chain(0)
    tracemalloc.start()
    try:
        report = structural_diff(prev, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert report.delta == 1 and len(report.entries) == 20001
    assert [e.path for e in report.entries if e.status == "changed"] == ["R" * 10000]


def test_similarity_bounds_and_identity():
    rng = np.random.default_rng(62)
    for _ in range(200):
        prev = random_tree(rng)
        new = mutate_tree(rng, prev) if rng.random() < 0.5 else random_tree(rng)
        sim = structural_diff(prev, new).similarity
        assert 0.0 <= sim <= 1.0
        assert (sim == 1.0) == (prev == new)


def test_diff_table_one_row_per_node():
    new = Split(0, 3.5, Leaf(0), Leaf(1))
    table = diff_table(structural_diff(STUMP, new))
    lines = table.strip().splitlines()
    assert lines[0] == "path\tstatus\tscore"
    assert len(lines) == 4
    assert lines[1].startswith("root\tchanged")
    assert lines[2] == "L\tchanged\t1"

