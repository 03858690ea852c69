"""Canonical fingerprint semantics: what must and must not change the key."""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.engine import PrivacyEngine
from repro.engine.fingerprint import (
    component_fingerprint,
    fingerprint_system,
    structure_fingerprint,
)
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace


def build_system(rows, n_vars=6, inequalities=()):
    system = ConstraintSystem(n_vars)
    for indices, coefficients, rhs in rows:
        system.add_equality(indices, coefficients, rhs, kind="qi")
    for indices, coefficients, rhs in inequalities:
        system.add_inequality(indices, coefficients, rhs, kind="bk")
    return system


ROWS = [
    ([0, 1, 2], [1.0, 1.0, 1.0], 0.5),
    ([3, 4], [1.0, 2.0], 0.25),
    ([1, 3, 5], [0.5, -1.0, 1.0], 0.1),
]


class TestCanonicalization:
    def test_row_permutation_is_invariant(self):
        base = build_system(ROWS)
        permuted = build_system([ROWS[2], ROWS[0], ROWS[1]])
        assert fingerprint_system(base) == fingerprint_system(permuted)

    def test_within_row_index_order_is_invariant(self):
        base = build_system([([0, 1, 2], [1.0, 2.0, 3.0], 0.5)])
        shuffled = build_system([([2, 0, 1], [3.0, 1.0, 2.0], 0.5)])
        assert fingerprint_system(base) == fingerprint_system(shuffled)

    def test_kind_and_label_are_ignored(self):
        a = ConstraintSystem(4)
        a.add_equality([0, 1], [1.0, 1.0], 0.5, kind="qi", label="one")
        b = ConstraintSystem(4)
        b.add_equality([0, 1], [1.0, 1.0], 0.5, kind="bk", label="two")
        assert fingerprint_system(a) == fingerprint_system(b)

    def test_family_is_not_ignored(self):
        eq = build_system([([0, 1], [1.0, 1.0], 0.5)], n_vars=4)
        ineq = build_system(
            [], n_vars=4, inequalities=[([0, 1], [1.0, 1.0], 0.5)]
        )
        assert fingerprint_system(eq) != fingerprint_system(ineq)


class TestSensitivity:
    def test_rhs_changes_the_key(self):
        base = build_system(ROWS)
        changed = build_system(
            [ROWS[0], (ROWS[1][0], ROWS[1][1], 0.26), ROWS[2]]
        )
        assert fingerprint_system(base) != fingerprint_system(changed)

    def test_coefficient_changes_the_key(self):
        base = build_system(ROWS)
        changed = build_system(
            [ROWS[0], ([3, 4], [1.0, 2.0000001], 0.25), ROWS[2]]
        )
        assert fingerprint_system(base) != fingerprint_system(changed)

    def test_mass_changes_the_key(self):
        system = build_system(ROWS)
        assert fingerprint_system(system, 1.0) != fingerprint_system(system, 0.5)

    def test_n_vars_changes_the_key(self):
        assert fingerprint_system(build_system(ROWS, 6)) != fingerprint_system(
            build_system(ROWS, 7)
        )

    def test_extra_row_changes_the_key(self):
        assert fingerprint_system(build_system(ROWS)) != fingerprint_system(
            build_system(ROWS + [([0], [1.0], 0.1)])
        )


class TestStructureFingerprint:
    def test_ignores_rhs_and_mass(self):
        base = build_system(ROWS)
        changed = build_system(
            [(i, c, rhs + 0.01) for i, c, rhs in ROWS]
        )
        assert structure_fingerprint(base) == structure_fingerprint(changed)

    def test_sensitive_to_rows(self):
        assert structure_fingerprint(build_system(ROWS)) != structure_fingerprint(
            build_system(ROWS[:2])
        )


class TestComponentFingerprint:
    def test_solve_key_separates_entries(self):
        system = build_system(ROWS)
        assert component_fingerprint(
            system, 1.0, ("lbfgs", True, 1e-6, 1000)
        ) != component_fingerprint(system, 1.0, ("gis", True, 1e-6, 1000))

    def test_deterministic_across_builds(self):
        assert component_fingerprint(
            build_system(ROWS), 1.0, ("lbfgs",)
        ) == component_fingerprint(build_system(ROWS), 1.0, ("lbfgs",))


class TestPinnedIdentity:
    """Cache identity must survive refactors of the config.

    Persisted solve-cache snapshots and the service's result cache are
    keyed by these values; if either changes, every stored entry silently
    goes cold.
    """

    def test_default_solve_key(self):
        assert MaxEntConfig().solve_key() == ("lbfgs", True, 1e-06, 1000)

    def test_paper_example_request_fingerprint(self):
        space = GroupVariableSpace(paper_published())
        system = data_constraints(space)
        system.extend(
            compile_statements(
                [
                    ConditionalProbability(
                        given={"gender": "male"}, sa_value="Flu", probability=0.3
                    )
                ],
                space,
            )
        )
        assert PrivacyEngine().request_fingerprint(system) == (
            "20996ab240ec0b930886c8b96e12e6eee549c47a9fe2166acc893491354684c5"
        )
