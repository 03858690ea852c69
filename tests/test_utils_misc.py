"""Unit tests for union-find, tabulate, timer, rng and validation helpers."""

import time

import numpy as np
import pytest

from repro.errors import KnowledgeError, ReproError
from repro.utils.rng import make_rng, spawn
from repro.utils.tabulate import render_table
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_fraction,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)
from tests.unionfind import UnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert not uf.connected(0, 1)
        assert len(uf.components()) == 4

    def test_union_connects(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_union_returns_whether_merged(self):
        uf = UnionFind(3)
        assert uf.union(0, 1) is True
        assert uf.union(0, 1) is False

    def test_components_partition(self):
        uf = UnionFind(6)
        uf.union(0, 3)
        uf.union(1, 4)
        components = uf.components()
        flattened = sorted(x for group in components for x in group)
        assert flattened == list(range(6))
        assert sorted(map(len, components)) == [1, 1, 2, 2]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_transitive_chain(self):
        uf = UnionFind(100)
        for i in range(99):
            uf.union(i, i + 1)
        assert uf.connected(0, 99)
        assert len(uf.components()) == 1


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 0.0001]])
        assert "a" in text and "b" in text
        assert "1" in text
        assert "2.5000" in text

    def test_title_rendered(self):
        text = render_table(["c"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_scientific_for_extremes(self):
        text = render_table(["v"], [[1e-9]])
        assert "e-09" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_columns_aligned(self):
        text = render_table(["col", "other"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        # 'y' and 'z' should start at the same offset.
        assert lines[2].index("y") == lines[3].index("z")


class TestTimer:
    def test_context_manager_measures(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.005

    def test_start_stop(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        elapsed = t.stop()
        assert elapsed > 0
        assert t.seconds == elapsed

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_independent_reproducible(self):
        children_a = spawn(make_rng(7), 3)
        children_b = spawn(make_rng(7), 3)
        for x, y in zip(children_a, children_b):
            assert np.array_equal(x.random(4), y.random(4))


class TestValidation:
    def test_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(KnowledgeError):
            check_probability(1.5)
        with pytest.raises(KnowledgeError):
            check_probability(-0.1)
        with pytest.raises(KnowledgeError):
            check_probability("not a number")

    def test_positive_int(self):
        assert check_positive_int(3) == 3
        with pytest.raises(ReproError):
            check_positive_int(0)
        with pytest.raises(ReproError):
            check_positive_int(True)  # bools are not counts
        with pytest.raises(ReproError):
            check_positive_int(2.0)

    def test_non_negative_int(self):
        assert check_non_negative_int(0) == 0
        with pytest.raises(ReproError):
            check_non_negative_int(-1)

    def test_fraction(self):
        assert check_fraction(1.0) == 1.0
        with pytest.raises(ReproError):
            check_fraction(0.0)
        with pytest.raises(ReproError):
            check_fraction(1.2)
