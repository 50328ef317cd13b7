"""Purified and compressed oracle simulation: queries, compression, the
purification equivalence, and the measured-database link."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qromlab.groups import GroupSpec
from qromlab.oracle import (
    AdversaryCircuit,
    BudgetExceeded,
    Database,
    GateStep,
    NamedGateStep,
    OracleDomain,
    PhaseFlipStep,
    QueryStep,
    apply_parallel_query,
    comp,
    comp_dagger,
    grover_preimage_circuit,
    initial_compressed_state,
    initial_purified_state,
    named_gate_matrix,
    relation_probabilities,
    run_adversary,
    sparse_decode,
    sparse_encode,
    zhandry_gap_check,
)


def bit_domain(n, m=1, kind="bits"):
    spec = GroupSpec.bits(m) if kind == "bits" else GroupSpec.cyclic(1 << m)
    return OracleDomain.of_bit_inputs(n, spec)


def randomize(state, rng):
    v = rng.normal(size=state.vec.shape) + 1j * rng.normal(size=state.vec.shape)
    state.vec = v / np.linalg.norm(v)
    return state


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDatabase:
    def test_empty_database(self):
        dom = bit_domain(2)
        db = Database.empty(dom)
        assert db.support() == () and db.support_size() == 0

    def test_update_and_entries(self):
        dom = bit_domain(2)
        db = Database.empty(dom).update(("00", "11"), (1, 0))
        assert db.entries() == {"00": 1, "11": 0}
        redefined = db.update(("00",), (dom.spec.bot,))
        assert redefined.support() == ("11",)

    def test_sparse_encode_examples(self):
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(1))
        assert sparse_encode(Database.empty(dom)) == []
        db = Database.from_entries(dom, {"a": 1, "c": 0})
        assert sparse_encode(db) == [("a", 1), ("c", 0)]

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3))
    def test_sparse_round_trip(self, values):
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(2))
        db = Database(dom, tuple(values))
        assert sparse_decode(dom, sparse_encode(db)) == db


class TestInitialStates:
    def test_initial_compressed_is_point_mass(self):
        dom = bit_domain(1)
        st0 = initial_compressed_state(dom, (2,))
        dist = st0.database_distribution()
        assert dist == {Database.empty(dom): pytest.approx(1.0)}
        assert st0.norm() == pytest.approx(1.0)
        assert st0.max_support_size() == 0

    def test_budget_guard(self):
        spec = GroupSpec.bits(8)
        dom = OracleDomain(tuple(range(4)), spec)
        with pytest.raises(BudgetExceeded):
            initial_compressed_state(dom, (1 << 16,))

    def test_budget_override(self, monkeypatch):
        monkeypatch.setenv("QROMLAB_BUDGET", "8")
        dom = bit_domain(1)
        with pytest.raises(BudgetExceeded):
            initial_compressed_state(dom, (2,))


class TestComp:
    def test_comp_of_uniform_is_all_bot(self):
        dom = bit_domain(2)
        state = comp(initial_purified_state(dom, (3,)))
        ref = initial_compressed_state(dom, (3,))
        assert np.max(np.abs(state.vec - ref.vec)) <= 1e-12

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(11)
        dom = bit_domain(2)
        for _ in range(5):
            ps = randomize(initial_purified_state(dom, (2,)), rng)
            back = comp_dagger(comp(ps))
            assert np.max(np.abs(back.vec - ps.vec)) <= 1e-9

    def test_single_register_fourier_database(self):
        # |X|=1, M=2: comp of the Fourier state H-hat = 1 is the same vector,
        # seen as the dual-basis database with that single nonzero component.
        dom = OracleDomain(("x",), GroupSpec.bits(1))
        ps = initial_purified_state(dom, (1,))
        ps.vec[:, 0] = [1 / math.sqrt(2), -1 / math.sqrt(2)]
        cs = comp(ps)
        assert cs.vec[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert cs.vec[1, 0] == pytest.approx(-1 / math.sqrt(2))
        assert cs.vec[2, 0] == pytest.approx(0.0)


class TestStandardQuery:
    def test_zero_branch_unchanged(self):
        dom = bit_domain(1)
        ps = initial_purified_state(dom, (2,))
        ps.vec[:] = 0
        ps.vec[(0, 0) + (0,)] = 1.0  # H == 0 everywhere, response register 0
        out = apply_parallel_query(ps, ("0",), (0,))
        assert np.max(np.abs(out.vec - ps.vec)) <= 1e-12

    def test_xor_semantics_per_branch(self):
        dom = bit_domain(1)
        ps = initial_purified_state(dom, (2,))
        ps.vec[:] = 0
        ps.vec[(1, 0) + (1,)] = 1.0  # H('0')=1, H('1')=0, response register 1
        out = apply_parallel_query(ps, ("0",), (0,))
        assert out.vec[(1, 0) + (0,)] == pytest.approx(1.0)

    def test_commuting_diagram(self):
        rng = np.random.default_rng(5)
        for kind in ("bits", "cyclic"):
            dom = bit_domain(2, m=1) if kind == "bits" else OracleDomain(
                ("00", "01", "10", "11")[:3], GroupSpec.cyclic(3))
            for _ in range(3):
                ps = randomize(initial_purified_state(dom, (dom.spec.order,)), rng)
                left = comp(apply_parallel_query(ps, (dom.inputs[0],), (0,)))
                right = apply_parallel_query(comp(ps), (dom.inputs[0],), (0,))
                assert np.max(np.abs(left.vec - right.vec)) <= 1e-8

    @pytest.mark.parametrize("xs, out_regs", [(("0", "1"), (0,)), (("0",), (0, 1))])
    def test_response_register_count_checked(self, xs, out_regs):
        ps = initial_purified_state(bit_domain(1), (2, 2))
        with pytest.raises(ValueError, match="one response register"):
            apply_parallel_query(ps, xs, out_regs)


class TestMalformedQuerySteps:
    @pytest.mark.parametrize("step", [
        QueryStep(out_regs=(0, 1), xs=("00",)),
        QueryStep(out_regs=(0,), xs=("00", "01")),
        QueryStep(out_regs=(1,), in_regs=(0, 0)),
        QueryStep(out_regs=(1, 1), in_regs=(0,)),
        QueryStep(out_regs=(1,), xs=("00",), in_regs=(0,)),
        QueryStep(out_regs=(1,)),
        QueryStep(out_regs=(1,), in_regs=(1,)),
    ])
    def test_rejected(self, step):
        with pytest.raises(ValueError, match="query step"):
            AdversaryCircuit(domain=bit_domain(2), reg_dims=(4, 2), steps=(step,))

    @pytest.mark.parametrize("steps, output_regs", [
        ((QueryStep(out_regs=(2,), xs=("00",)),), ()),
        ((QueryStep(out_regs=(1,), in_regs=(-2,)),), ()),
        ((GateStep(np.eye(2), (-1,)),), ()),
        ((NamedGateStep("reflect_mean", (0, 2)),), ()),
        ((), (2,)),
    ])
    def test_register_out_of_range(self, steps, output_regs):
        with pytest.raises(ValueError, match="outside its reg_dims"):
            AdversaryCircuit(domain=bit_domain(2), reg_dims=(4, 2), steps=steps,
                             output_regs=output_regs)


class TestParallelQuery:
    def test_duplicate_inputs_rejected(self):
        dom = bit_domain(2)
        state = initial_compressed_state(dom, (2, 2))
        with pytest.raises(ValueError):
            apply_parallel_query(state, ("00", "00"), (0, 1))

    def test_neutral_component_leaves_database_unchanged(self):
        # prepare the response register in the neutral dual state so that only
        # the identity branch of the query acts
        dom = bit_domain(1)
        state = initial_compressed_state(dom, (2,))
        state.apply_register_unitary(named_gate_matrix("prepare_dual", (2,), dom.spec, 0), (0,))
        out = apply_parallel_query(state, ("0",), (0,))
        assert np.max(np.abs(out.vec - state.vec)) <= 1e-12

    def test_first_query_spreads_by_character_column(self):
        dom = bit_domain(1)
        state = initial_compressed_state(dom, (2,))
        state.apply_register_unitary(named_gate_matrix("prepare_dual", (2,), dom.spec, 1), (0,))
        out = apply_parallel_query(state, ("0",), (0,))
        dist = out.database_distribution()
        expected = {
            Database.from_entries(dom, {"0": 0}): 0.5,
            Database.from_entries(dom, {"0": 1}): 0.5,
        }
        assert set(dist) == set(expected)
        for db, p in expected.items():
            assert dist[db] == pytest.approx(p)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        dom = bit_domain(2)
        state = randomize(initial_compressed_state(dom, (2, 2)), rng)
        out = apply_parallel_query(state, ("00", "11"), (0, 1))
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_singleton_queries_commute(self):
        rng = np.random.default_rng(4)
        dom = bit_domain(2)
        state = randomize(initial_compressed_state(dom, (2, 2)), rng)
        one = apply_parallel_query(apply_parallel_query(state, ("00",), (0,)), ("01",), (1,))
        two = apply_parallel_query(apply_parallel_query(state, ("01",), (1,)), ("00",), (0,))
        assert np.max(np.abs(one.vec - two.vec)) <= 1e-9

    def test_support_growth_is_exact(self):
        dom = bit_domain(2)
        circuit = _random_circuit(np.random.default_rng(9), dom, rounds=2, k=2)
        state = run_adversary(circuit, "compressed")
        assert state.max_support_size() <= 2 * 2


def _random_circuit(rng, dom, rounds, k, with_outputs=False):
    m = dom.spec.order
    reg_dims = tuple([dom.size] * k + [m] * k + [2])
    in_regs = tuple(range(k))
    out_regs = tuple(range(k, 2 * k))
    steps = []
    total = int(np.prod(reg_dims))
    for _ in range(rounds):
        steps.append(GateStep(random_unitary(total, rng), tuple(range(len(reg_dims)))))
        steps.append(QueryStep(out_regs=out_regs, in_regs=in_regs))
    steps.append(GateStep(random_unitary(total, rng), tuple(range(len(reg_dims)))))
    return AdversaryCircuit(
        domain=dom, reg_dims=reg_dims, steps=tuple(steps),
        output_regs=in_regs if with_outputs else (),
    )


class TestPurificationEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_match(self, seed):
        rng = np.random.default_rng(seed)
        dom = bit_domain(1) if seed % 2 else bit_domain(2)
        circuit = _random_circuit(rng, dom, rounds=2, k=1 + seed % 2)
        std = run_adversary(circuit, "standard")
        cmp_state = run_adversary(circuit, "compressed")
        tv = 0.5 * np.abs(std.adversary_marginal() - cmp_state.adversary_marginal()).sum()
        assert tv <= 1e-8

    def test_empty_circuit_gives_initial_distribution(self):
        dom = bit_domain(1)
        circuit = AdversaryCircuit(domain=dom, reg_dims=(2,), steps=())
        std = run_adversary(circuit, "standard")
        assert std.adversary_marginal()[0] == pytest.approx(1.0)


class TestGapCheck:
    def test_trivial_cases(self):
        assert zhandry_gap_check(0.0, 0.0, 1, 4)
        assert zhandry_gap_check(0.25, 0.0, 1, 4)  # equality case
        with pytest.raises(ValueError):
            zhandry_gap_check(1.5, 0.0, 1, 4)

    def test_preimage_adversaries_satisfy_gap(self):
        rng = np.random.default_rng(21)
        for m, seed in [(1, 0), (2, 1)]:
            dom = bit_domain(2, m=m)
            circuit = _random_circuit(rng, dom, rounds=2, k=1, with_outputs=True)
            p, p_prime = relation_probabilities(
                circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
                claimed=lambda xs: (0,) * len(xs))
            assert zhandry_gap_check(p, p_prime, len(circuit.output_regs), dom.spec.order)


class TestGroverAgainstDenseOracle:
    """Cross-check run_adversary against a hand-rolled dense simulation that
    never touches the oracle machinery: one explicit unitary per function H."""

    @staticmethod
    def dense_grover_success(n_inputs, rounds, target=0):
        m = 2
        dim = n_inputs * m
        prep_in = named_gate_matrix("prepare_uniform", (n_inputs,), GroupSpec.bits(1))
        prep_out = np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2)  # |-> from |0>
        reflect = 2.0 * np.full((n_inputs, n_inputs), 1.0 / n_inputs) - np.eye(n_inputs)
        total = 0.0
        for h in itertools.product(range(m), repeat=n_inputs):
            psi = np.zeros(dim, dtype=complex)
            psi[0] = 1.0
            psi = np.kron(prep_in, prep_out) @ psi
            for _ in range(rounds):
                query = np.zeros((dim, dim), dtype=complex)
                for x in range(n_inputs):
                    for y in range(m):
                        query[x * m + (y ^ h[x]), x * m + y] = 1.0
                psi = np.kron(reflect, np.eye(m)) @ query @ psi
            probs = np.abs(psi.reshape(n_inputs, m)) ** 2
            total += sum(probs[x].sum() for x in range(n_inputs) if h[x] == target)
        return total / m ** n_inputs

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_matches_independent_dense_simulation(self, rounds):
        dom = bit_domain(2, m=1)
        circuit = grover_preimage_circuit(dom, rounds)
        p, _ = relation_probabilities(
            circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
            claimed=lambda xs: (0,) * len(xs))
        # The kickback marks character -1, i.e. range value 1; by the global
        # phase symmetry the output distribution equals the target-0 search.
        expected = self.dense_grover_success(dom.size, rounds, target=0)
        assert p == pytest.approx(expected, abs=1e-8)


class TestSampledMode:
    def test_fixed_function_run_is_deterministic_per_branch(self):
        dom = bit_domain(1)
        circuit = grover_preimage_circuit(dom, 1)
        table = {"0": 0, "1": 1}
        from qromlab.oracle import run_adversary_fixed_function

        state = run_adversary_fixed_function(circuit, table)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    def test_sampled_estimate_matches_exact(self):
        from qromlab.oracle import sampled_relation_probability

        dom = bit_domain(2, m=1)
        circuit = grover_preimage_circuit(dom, 1)
        relation = lambda xs, ys: all(y == 0 for y in ys)
        claimed = lambda xs: (0,) * len(xs)
        p_exact, _ = relation_probabilities(circuit, relation, claimed)
        sampled = sampled_relation_probability(circuit, relation, claimed,
                                               shots=3000, seed=3)
        sigma = math.sqrt(p_exact * (1 - p_exact) / sampled["shots"])
        assert abs(sampled["estimate"] - p_exact) <= 4 * sigma + 1e-9


class TestNamedGates:
    def test_prepare_uniform_and_reflect_are_unitary(self):
        for name, dims in [("prepare_uniform", (4,)), ("reflect_mean", (4,)),
                           ("fourier", (2,)), ("prepare_dual", (2,))]:
            g = named_gate_matrix(name, dims, GroupSpec.bits(1), param=1)
            assert np.max(np.abs(np.conj(g.T) @ g - np.eye(g.shape[0]))) <= 1e-9

    def test_phase_flip_step(self):
        dom = bit_domain(1)
        circuit = AdversaryCircuit(
            domain=dom, reg_dims=(2,),
            steps=(
                NamedGateStep("prepare_uniform", (0,)),
                PhaseFlipStep((0,), lambda v: v == 1),
                NamedGateStep("prepare_uniform", (0,)),
            ),
        )
        state = run_adversary(circuit, "compressed")
        # flipping |1> then undoing the preparation moves weight off |0>
        assert state.adversary_marginal()[0] < 1.0
