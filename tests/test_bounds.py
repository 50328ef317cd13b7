"""Closed-form bound evaluators: hand-checked specializations, monotonicity,
and the asymptotic-envelope consistency sweep."""

import itertools
import math

import pytest

from qromlab.bounds import (
    E,
    chain_bound,
    collision_bound,
    gencol_bound,
    posw_asymptotic_envelope,
    posw_bound,
    preimage_bound,
)


def compare_report(empirical_p: float, bound_value: float, context: str) -> dict:
    """Record comparing a measured success probability against its bound."""
    return {
        "empirical": empirical_p,
        "bound": bound_value,
        "holds": empirical_p <= bound_value + 1e-9,
        "context": context,
    }


class TestHandValues:
    def test_preimage_at_zero_queries(self):
        assert preimage_bound(0, 1, 4) == pytest.approx(0.25, abs=1e-12)

    def test_preimage_reference_point(self):
        value = preimage_bound(16, 4, 1 << 20)
        direct = (16 * math.sqrt(40 / 2 ** 20) + 2 ** -10) ** 2
        assert value == pytest.approx(direct, abs=1e-15)
        assert value == pytest.approx(0.009966, abs=1e-5)

    def test_preimage_clamps(self):
        assert preimage_bound(10 ** 6, 1, 4) == 1.0
        assert preimage_bound(10 ** 6, 1, 4, clamp=False) > 1.0

    def test_collision_at_zero_queries(self):
        m = 1 << 20
        value = collision_bound(0, 1, m)
        direct = (2 * E * math.sqrt(10 / m) + math.sqrt(2 / m)) ** 2
        assert value == pytest.approx(direct, abs=1e-15)
        assert value == pytest.approx(3.30e-4, abs=2e-6)

    def test_collision_vanishes_for_large_range(self):
        assert collision_bound(4, 2, 1 << 200) == pytest.approx(0.0, abs=1e-50)

    def test_gencol_at_zero_queries(self):
        m = 1 << 20
        value = gencol_bound(0, 1, m, 2)
        direct = (2 * E * math.sqrt(20 / m) + 2 / math.sqrt(m)) ** 2
        assert value == pytest.approx(direct, abs=1e-15)

    def test_gencol_dominated_by_collision_relation(self):
        # at Gamma=1 the leading terms coincide; the additive terms differ
        # (2/sqrt(M) versus sqrt(2/M)), making gencol the larger of the two
        for q, k in [(0, 1), (3, 2)]:
            assert gencol_bound(q, k, 1 << 20, 1) >= collision_bound(q, k, 1 << 20)

    def test_gencol_full_fanin_clamps(self):
        assert gencol_bound(1, 1, 4, 4) == 1.0

    def test_chain_at_zero_queries(self):
        for m, t in [(1 << 10, 1), (1 << 20, 3)]:
            value = chain_bound(0, 1, m, t)
            direct = (2 * E * math.sqrt(20 * t / m) + math.sqrt(2 / m)) ** 2
            assert value == pytest.approx(direct, abs=1e-15)

    def test_chain_reference_point(self):
        value = chain_bound(8, 1, 1 << 20, 1)
        direct = (
            8 * E * math.sqrt(80 / 2 ** 20)
            + 10 * E * math.sqrt(100 / 2 ** 20)
            + math.sqrt(10 / 2 ** 20)
        ) ** 2
        assert value == pytest.approx(direct, abs=1e-12)

    def test_posw_at_zero_queries(self):
        value = posw_bound(0, 1, 64, 4, 2)
        assert value == pytest.approx((2 * 5 + 1) / 2 ** 64, rel=1e-12)

    def test_posw_reference_point(self):
        q, k, w, n, t = 1 << 19, 4, 256, 20, 10
        value = posw_bound(q, k, w, n, t, clamp=False)
        mw = 2.0 ** w
        root = q * (
            4 * E * k * math.sqrt(10 * (q + 1) / mw)
            + 3 * E * k * math.sqrt(10 * k * q * n / mw)
            + E * k * math.sqrt(10 * ((q + 2) / 2 ** (n + 1)) ** t)
        ) + math.sqrt((t * (n + 1) + 1) / mw)
        assert value == pytest.approx(root * root, rel=1e-12)
        # the challenge term dominates at these parameters
        challenge_only = (q * E * k * math.sqrt(10 * ((q + 2) / 2 ** (n + 1)) ** t)) ** 2
        assert challenge_only / value > 0.98

    def test_posw_requires_wide_labels(self):
        with pytest.raises(ValueError):
            posw_bound(4, 1, 16, 8, 4)  # w < t*n

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            preimage_bound(-1, 1, 4)
        with pytest.raises(ValueError):
            collision_bound(1, 0, 4)


class TestMonotonicity:
    QS = [0, 1, 2, 8, 32]
    KS = [1, 2, 8]

    def test_nondecreasing_in_q_and_k(self):
        m = 1 << 24
        for evaluator in (
            lambda q, k: preimage_bound(q, k, m),
            lambda q, k: collision_bound(q, k, m),
            lambda q, k: gencol_bound(q, k, m, 2),
            lambda q, k: chain_bound(q, k, m, 2),
            lambda q, k: posw_bound(q, k, 256, 16, 4),
        ):
            for k in self.KS:
                values = [evaluator(q, k) for q in self.QS]
                assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            for q in self.QS:
                values = [evaluator(q, k) for k in self.KS]
                assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_range_size(self):
        for bits in ((10, 16), (16, 24), (24, 40)):
            assert preimage_bound(8, 2, 1 << bits[1]) <= preimage_bound(8, 2, 1 << bits[0])
            assert collision_bound(8, 2, 1 << bits[1]) <= collision_bound(8, 2, 1 << bits[0])
            assert chain_bound(8, 2, 1 << bits[1], 2) <= chain_bound(8, 2, 1 << bits[0], 2)

    def test_posw_nonincreasing_in_w_and_n(self):
        assert posw_bound(64, 2, 256, 16, 4) <= posw_bound(64, 2, 128, 16, 4)
        assert posw_bound(64, 2, 256, 24, 4) <= posw_bound(64, 2, 256, 16, 4)


class TestAsymptoticEnvelope:
    def test_hundred_point_grid(self):
        qs = [1, 4, 16, 64, 256]
        ks = [1, 2, 4, 8]
        cfgs = [(4, 1, 64), (8, 2, 64), (16, 4, 128), (32, 4, 256), (64, 4, 256)]
        points = 0
        for q, k, (n, t, w) in itertools.product(qs, ks, cfgs):
            bound = posw_bound(q, k, w, n, t)
            envelope = posw_asymptotic_envelope(q, k, w, n, t)
            assert bound <= envelope + 1e-12, (q, k, n, t, w)
            points += 1
        assert points == 100


class TestCompareReport:
    def test_zero_empirical_always_holds(self):
        rec = compare_report(0.0, 0.123, "smoke")
        assert rec["holds"] and rec["context"] == "smoke"

    def test_violation_detected(self):
        assert not compare_report(0.5, 0.1, "x")["holds"]


class TestClassicalMonteCarloAttackers:
    """Lazy-sampled classical attackers stay below the quantum bounds, within
    three standard errors of their own success rates."""

    M_BITS = 20

    def lazy_oracle(self, rng):
        table = {}

        def query(x):
            if x not in table:
                table[x] = rng.getrandbits(self.M_BITS)
            return table[x]

        return query

    def test_preimage_guessing_attack(self):
        import random

        rng = random.Random(2024)
        m = 1 << self.M_BITS
        q, k, trials = 16, 4, 5000
        wins = 0
        for _ in range(trials):
            oracle = self.lazy_oracle(rng)
            seen = [oracle(rng.getrandbits(40)) for _ in range(q * k)]
            wins += 0 in seen or oracle(rng.getrandbits(40)) == 0
        bound = preimage_bound(q, k, m)
        rate = wins / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        rec = compare_report(max(rate - 3 * sigma, 0.0), bound, "preimage MC")
        assert rec["holds"], rec

    def test_chain_following_attack(self):
        import random

        rng = random.Random(777)
        m = 1 << self.M_BITS
        q, trials = 8, 5000
        wins = 0
        for _ in range(trials):
            oracle = self.lazy_oracle(rng)
            x = rng.getrandbits(self.M_BITS)
            for _ in range(q):
                x = oracle(x)  # greedy chain following: q genuine links
            # one more link must be guessed without a query
            wins += oracle(x) == rng.getrandbits(self.M_BITS)
        bound = chain_bound(q, 1, m, 1)
        assert bound < 1.0  # the comparison is not vacuous at these parameters
        rate = wins / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        rec = compare_report(max(rate - 3 * sigma, 0.0), bound, "chain MC")
        assert rec["holds"], rec
