"""Characters, the single-register transition matrix, and the connection bound."""

import itertools
import math

import numpy as np
import pytest

from qromlab.groups import (
    GroupSpec,
    character,
    character_table,
    comp_matrix,
    connection_bound_check,
    dual_transform,
    transition_matrix,
)

SQ2 = math.sqrt(2.0)


def entrywise_transition_matrix(spec, yhat):
    """The transition matrix entry by entry from its hand-derived formula,
    kept as the reference for the Comp @ diag(yhat, 1) @ Comp definition."""
    m = spec.order
    if yhat == 0:
        return np.eye(m + 1, dtype=complex)
    ch = np.array([character(spec, yhat, y) for y in spec.elements()])
    g = np.empty((m + 1, m + 1), dtype=complex)
    s = math.sqrt(m)
    for u in range(m):
        g[u, m] = ch[u] / s
        # row BOT carries yhat(r)/sqrt(M) unconjugated; unitarity fails for
        # complex characters under the conjugated variant
        g[m, u] = ch[u] / s
        for r in range(m):
            if r == u:
                g[u, r] = (1.0 - 2.0 / m) * ch[u] + 1.0 / m
            else:
                g[u, r] = (1.0 - ch[r] - ch[u]) / m
    g[m, m] = 0.0
    return g


def unitarity_defect(g):
    g = np.asarray(g)
    return np.max(np.abs(np.conj(g.T) @ g - np.eye(g.shape[0])))


class TestGroupSpec:
    def test_rejects_tiny_and_non_power_bits(self):
        with pytest.raises(ValueError):
            GroupSpec("bits", 6)
        with pytest.raises(ValueError):
            GroupSpec("cyclic", 1)

    def test_bit_group_addition_is_xor(self):
        spec = GroupSpec.bits(3)
        assert spec.add(0b101, 0b011) == 0b110
        assert spec.neg(5) == 5

    def test_cyclic_addition(self):
        spec = GroupSpec.cyclic(5)
        assert spec.add(3, 4) == 2
        assert spec.neg(2) == 3


class TestCharacter:
    def test_neutral_character_is_one(self):
        for spec in (GroupSpec.bits(2), GroupSpec.cyclic(5)):
            for y in spec.elements():
                assert character(spec, 0, y) == 1

    def test_bit_group_sign(self):
        spec = GroupSpec.bits(1)
        assert character(spec, 1, 1) == -1
        assert character(spec, 1, 0) == 1

    def test_cyclic_fourth_root(self):
        spec = GroupSpec.cyclic(4)
        assert character(spec, 1, 1) == pytest.approx(1j)

    def test_multiplicative(self):
        for spec in (GroupSpec.bits(2), GroupSpec.cyclic(6)):
            for yhat, a, b in itertools.product(spec.elements(), repeat=3):
                lhs = character(spec, yhat, spec.add(a, b))
                rhs = character(spec, yhat, a) * character(spec, yhat, b)
                assert lhs == pytest.approx(rhs)

    def test_conjugate_is_character_at_inverse(self):
        spec = GroupSpec.cyclic(5)
        for yhat, y in itertools.product(spec.elements(), repeat=2):
            assert np.conj(character(spec, yhat, y)) == pytest.approx(
                character(spec, yhat, spec.neg(y))
            )

    @pytest.mark.parametrize("spec", [GroupSpec.bits(m) for m in range(1, 6)]
                             + [GroupSpec.cyclic(m) for m in range(2, 18)],
                             ids=lambda s: f"{s.kind}{s.order}")
    def test_table_matches_pairing(self, spec):
        m = spec.order
        for yhat, y in itertools.product(spec.elements(), repeat=2):
            if spec.kind == "bits":
                expected = -1.0 if bin(yhat & y).count("1") & 1 else 1.0
            else:
                expected = complex(np.exp(2j * math.pi * (yhat * y % m) / m))
            assert character_table(spec)[yhat, y] == expected
            assert character(spec, yhat, y) == expected

    def test_out_of_range_rejected(self):
        spec = GroupSpec.bits(1)
        with pytest.raises(ValueError):
            character(spec, 2, 0)
        with pytest.raises(ValueError):
            character(spec, 0, -1)


class TestTransitionMatrix:
    def test_identity_at_neutral(self):
        for spec in (GroupSpec.bits(2), GroupSpec.cyclic(4)):
            g = transition_matrix(spec, 0)
            assert np.array_equal(g, np.eye(spec.order + 1))

    def test_hand_derived_three_by_three(self):
        # Displayed in (bot, 0, 1) order; canonical storage has bot last.
        g = transition_matrix(GroupSpec.bits(1), 1)
        displayed = np.array(
            [
                [0.0, 1 / SQ2, -1 / SQ2],
                [1 / SQ2, 0.5, 0.5],
                [-1 / SQ2, 0.5, 0.5],
            ]
        )
        perm = [2, 0, 1]  # displayed index -> canonical index
        for i, j in itertools.product(range(3), repeat=2):
            assert g[perm[i], perm[j]] == pytest.approx(displayed[i, j], abs=1e-12)

    @pytest.mark.parametrize("kind,order", [("bits", 2), ("bits", 4), ("bits", 8), ("bits", 16),
                                            ("cyclic", 3), ("cyclic", 4), ("cyclic", 8),
                                            ("cyclic", 16)])
    def test_unitary_for_all_duals(self, kind, order):
        spec = GroupSpec(kind, order)
        for yhat in spec.elements():
            assert unitarity_defect(transition_matrix(spec, yhat)) <= 1e-9

    def test_bit_group_matrix_is_symmetric(self):
        for m in (1, 2, 3):
            spec = GroupSpec.bits(m)
            for yhat in spec.elements():
                g = np.asarray(transition_matrix(spec, yhat))
                assert np.max(np.abs(g - g.T)) <= 1e-12

    def test_matches_conjugated_standard_oracle(self):
        # The matrix must equal Comp o O_yhat o Comp applied in the
        # computational basis; this pins the row-bot convention.
        for spec in (GroupSpec.bits(2), GroupSpec.cyclic(4), GroupSpec.cyclic(5)):
            m = spec.order
            w = dual_transform(spec)
            f = np.zeros((m + 1, m + 1), dtype=complex)
            f[:m, :m] = np.conj(w.T)  # columns are the dual basis vectors
            f[m, m] = 1.0
            cm = comp_matrix(spec)
            for yhat in spec.elements():
                perm = np.zeros((m + 1, m + 1))
                for h in spec.elements():
                    perm[spec.add(h, spec.neg(yhat)), h] = 1.0
                perm[m, m] = 1.0
                o_mat = f @ perm @ np.conj(f.T)
                expected = cm @ o_mat @ np.conj(cm.T)
                assert np.max(np.abs(transition_matrix(spec, yhat) - expected)) <= 1e-9

    @pytest.mark.parametrize("kind,order", [("bits", 2), ("bits", 4), ("bits", 8), ("bits", 16),
                                            ("bits", 32)] + [("cyclic", m) for m in range(2, 33)])
    def test_matches_entrywise_formula(self, kind, order):
        spec = GroupSpec(kind, order)
        for yhat in spec.elements():
            diff = np.max(np.abs(transition_matrix(spec, yhat) - entrywise_transition_matrix(spec, yhat)))
            assert diff <= 1e-14

    def test_composition_law(self):
        for spec in (GroupSpec.bits(2), GroupSpec.cyclic(4)):
            for a, b in itertools.product(spec.elements(), repeat=2):
                lhs = np.asarray(transition_matrix(spec, a)) @ transition_matrix(spec, b)
                rhs = transition_matrix(spec, spec.add(a, b))
                assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_cached_matrix_is_readonly(self):
        g = transition_matrix(GroupSpec.bits(1), 1)
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


class TestConnectionBound:
    def test_empty_set(self):
        rec = connection_bound_check(GroupSpec.bits(1), set(), 1)
        assert rec["lhs"] == 0.0 and rec["rhs"] == 0.0 and rec["holds"]

    def test_hand_value_m2(self):
        rec = connection_bound_check(GroupSpec.bits(1), {0}, 1)
        assert rec["lhs"] == pytest.approx(0.75)
        assert rec["rhs"] == pytest.approx(5.0)
        assert rec["holds"]

    def test_bot_rejected(self):
        spec = GroupSpec.bits(1)
        with pytest.raises(ValueError):
            connection_bound_check(spec, {spec.bot}, 1)

    @pytest.mark.parametrize("kind,order", [("bits", 2), ("bits", 4), ("bits", 8),
                                            ("cyclic", 4), ("cyclic", 8)])
    def test_exhaustive_sweep(self, kind, order):
        spec = GroupSpec(kind, order)
        elements = list(spec.elements())
        for size in range(order + 1):
            for subset in itertools.combinations(elements, size):
                for yhat in spec.elements():
                    assert connection_bound_check(spec, set(subset), yhat)["holds"]
