"""Cross-module pipelines: the simulator's measured statistics against the
exact capacity machinery, end to end."""

import itertools
import math

import numpy as np
import pytest

from qromlab.capacity import multi_step_bound, quantum_capacity_exact
from qromlab.groups import GroupSpec
from qromlab.oracle import (
    AdversaryCircuit,
    GateStep,
    OracleDomain,
    QueryStep,
    grover_preimage_circuit,
    relation_probabilities,
    run_adversary,
)
from qromlab.properties import ChainRelation, chn, cl, prmg
from reference import database_distribution

EQ = ChainRelation("equality")


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, dom, rounds, k):
    reg_dims = tuple([dom.size] * k + [dom.spec.order] * k + [2])
    total = int(np.prod(reg_dims))
    steps = []
    for _ in range(rounds):
        steps.append(GateStep(random_unitary(total, rng), tuple(range(len(reg_dims)))))
        steps.append(QueryStep(out_regs=tuple(range(k, 2 * k)), in_regs=tuple(range(k))))
    return AdversaryCircuit(domain=dom, reg_dims=reg_dims, steps=tuple(steps),
                            output_regs=tuple(range(k)))


class TestMultiRoundAmplitudeBound:
    """The probability that the measured database lands in a property after q
    rounds is at most the squared sum of the exact per-round capacities."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_respect_capacity_sums(self, seed):
        rng = np.random.default_rng(seed)
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(1))
        k = 1 + seed % 2
        rounds = 1 + seed % 3
        circuit = random_circuit(rng, dom, rounds, k)
        state = run_adversary(circuit, "compressed")
        dist = database_distribution(state)
        for target in (prmg(), cl(), chn(1, EQ)):
            mass = sum(prob for db, prob in dist.items() if target.holds(db))
            step = quantum_capacity_exact(~target, target, k, dom).value
            budget = multi_step_bound([step] * rounds)
            assert math.sqrt(mass) <= budget + 1e-9

    def test_chain_growth_per_round(self):
        # reaching an s-chain in fewer than s rounds of 1-parallel queries is
        # impossible only classically; quantumly the capacity sum still caps it
        rng = np.random.default_rng(11)
        dom = OracleDomain(("a", "b"), GroupSpec.bits(1))
        circuit = random_circuit(rng, dom, rounds=2, k=1)
        dist = database_distribution(run_adversary(circuit, "compressed"))
        mass = sum(prob for db, prob in dist.items() if chn(2, EQ).holds(db))
        steps = [quantum_capacity_exact(~chn(s, EQ), chn(s + 1, EQ), 1, dom).value
                 for s in (1, 2)]
        first = quantum_capacity_exact(~chn(1, EQ), chn(1, EQ), 1, dom).value
        assert math.sqrt(mass) <= first + steps[0] + 1e-9


class TestEndToEndSuccessPipeline:
    """sqrt(p) <= sum of per-round capacities + sqrt(ell/M), with p measured
    against the standard oracle and the capacities computed exactly."""

    @pytest.mark.parametrize("n_inputs,rounds", [(4, 1), (4, 2), (8, 1)])
    def test_grover_against_exact_capacity_budget(self, n_inputs, rounds):
        dom = OracleDomain(tuple(range(n_inputs)), GroupSpec.bits(1))
        circuit = grover_preimage_circuit(dom, rounds)
        p, _ = relation_probabilities(
            circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
            claimed=lambda xs: (0,) * len(xs))
        step = quantum_capacity_exact(~prmg(), prmg(), 1, dom).value
        budget = multi_step_bound([step] * rounds) + math.sqrt(1 / dom.spec.order)
        assert math.sqrt(p) <= budget + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_random_adversaries_against_exact_capacity_budget(self, seed):
        rng = np.random.default_rng(100 + seed)
        dom = OracleDomain(tuple(range(3)), GroupSpec.bits(1))
        rounds, k = 1 + seed % 2, 1
        circuit = random_circuit(rng, dom, rounds, k)
        p, _ = relation_probabilities(
            circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
            claimed=lambda xs: (0,) * len(xs))
        step = quantum_capacity_exact(~prmg(), prmg(), k, dom).value
        budget = rounds * step + math.sqrt(1 / dom.spec.order)
        assert math.sqrt(p) <= budget + 1e-9
