"""Differential test for the readout fold behind relation_probabilities.

The reference below is the original readout: a Python loop over every
amplitude of the final joint state, scoring each basis branch on its own.  The
fold under test reads both p and p' off one compressed run instead; both must
give the same p and p' on every circuit shape, including explicit response
registers and outputs that name one input twice.  p must also match the
purified oracle's own readout, which the fold no longer runs.

The second reference is the first one-run readout: for every group of
columns, np.unique over the row keys with the pinned inputs blanked and
np.add.at of the weighted rows, with indicator weights for p'.  The sorted
fold behind p and the masked norm behind p' must match it on every state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import oracle
from qromlab.groups import GroupSpec, comp_matrix
from qromlab.oracle import (
    AdversaryCircuit,
    CompressedState,
    GateStep,
    OracleDomain,
    QueryStep,
    grover_preimage_circuit,
    relation_probabilities,
    run_adversary,
)
from reference import success_probability

TOL = 1e-12


def reference_success(state, circuit, relation, claimed) -> float:
    """Per-amplitude loop: add |amp|^2 for every branch whose oracle values at
    the output inputs equal the output responses and whose outputs satisfy
    the relation."""
    vec = state.vec  # each read of .vec builds a fresh tensor
    total = 0.0
    for index in np.ndindex(vec.shape):
        amp = vec[index]
        if amp == 0.0:
            continue
        values = index[state.n_oracle:]
        xs = tuple(values[r] for r in circuit.output_regs)
        labels = tuple(circuit.domain.inputs[x] for x in xs)
        if circuit.y_output_regs is not None:
            ys = tuple(values[r] for r in circuit.y_output_regs)
        else:
            ys = tuple(claimed(labels))
        if all(index[x] == y for x, y in zip(xs, ys)) and relation(labels, ys):
            total += abs(amp) ** 2
    return total


def reference_fold(state, columns, weights) -> float:
    """Per-group fold: weight every stored row by weights[y, its value at x]
    over the group's pins, add up the weighted rows that agree off the pinned
    inputs (np.unique, np.add.at), and sum the squared magnitudes over the
    group's columns."""
    keys, block = state.keys, state.block
    amps = block.reshape(len(keys), int(np.prod(state.reg_dims)))
    digits = state._row_digits(keys)
    strides = state.oracle_dim ** np.arange(state.n_oracle - 1, -1, -1)
    total = 0.0
    for pinned, js in columns.items():
        xs = [x for x, _ in pinned]
        w = np.ones(len(keys))
        for x, y in pinned:
            w = w * weights[y, digits[:, x]]
        live = np.flatnonzero(w)
        rest = keys[live] - digits[live][:, xs] @ strides[xs]
        heads, groups = np.unique(rest, return_inverse=True)
        folded = np.zeros((len(heads), len(js)), dtype=complex)
        np.add.at(folded, groups, w[live, None] * amps[np.ix_(live, js)])
        total += float(np.sum(np.abs(folded) ** 2))
    return total


def indicator(state):
    """Weights comparing a pinned response y with the oracle value itself; a
    bot digit matches no response."""
    return np.eye(state.domain.spec.order, state.oracle_dim)


def reference_probabilities(circuit, relation, claimed=None):
    return (reference_success(run_adversary(circuit, "standard"), circuit, relation, claimed),
            reference_success(run_adversary(circuit, "compressed"), circuit, relation, claimed))


def assert_fold_matches(circuit, relation, claimed=None):
    p, p_prime = relation_probabilities(circuit, relation, claimed)
    ref_p, ref_p_prime = reference_probabilities(circuit, relation, claimed)
    assert abs(p - ref_p) <= TOL and abs(p_prime - ref_p_prime) <= TOL
    return p, p_prime


def domain(size, spec):
    return OracleDomain(tuple(format(i, "03b") for i in range(size)), spec)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(seed, dom, k, rounds=2, y_outputs=False):
    """k superposed query inputs with group-valued responses and a dense random
    gate between rounds, so every register basis state is reached."""
    rng = np.random.default_rng(seed)
    reg_dims = (dom.size,) * k + (dom.spec.order,) * k
    inputs, responses = tuple(range(k)), tuple(range(k, 2 * k))
    everything = tuple(range(2 * k))
    dim = int(np.prod(reg_dims))
    steps = [GateStep(random_unitary(dim, rng), everything)]
    for _ in range(rounds):
        steps.append(QueryStep(out_regs=responses, in_regs=inputs))
        steps.append(GateStep(random_unitary(dim, rng), everything))
    return AdversaryCircuit(domain=dom, reg_dims=reg_dims, steps=tuple(steps),
                            output_regs=inputs,
                            y_output_regs=responses if y_outputs else None)


def preimage(labels, ys):
    return all(y == 0 for y in ys)


def claimed_zero(labels):
    return (0,) * len(labels)


def first_label_matters(labels, ys):
    return labels[0] != "000" or ys[0] == 0


SPECS = [GroupSpec.bits(1), GroupSpec.cyclic(3), GroupSpec.bits(2)]


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_circuits_with_claimed_responses(spec, k, seed):
    dom = domain(3 if k == 1 else 2, spec)
    circuit = random_circuit(seed, dom, k)
    assert_fold_matches(circuit, preimage, claimed_zero)
    assert_fold_matches(circuit, first_label_matters,
                        lambda labels: tuple(len(x) % spec.order for x in labels))


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("size", [2, 4])
def test_grover(rounds, size):
    circuit = grover_preimage_circuit(domain(size, GroupSpec.bits(1)), rounds)
    p, _ = assert_fold_matches(circuit, preimage, claimed_zero)
    assert p > 0.0


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [2, 3])
def test_explicit_response_registers(spec, k, seed):
    # with k = 2 the two input registers also name the same input with two
    # different responses; the reference scores those branches 0
    dom = domain(3 if k == 1 else 2, spec)
    circuit = random_circuit(seed, dom, k, y_outputs=True)
    p, p_prime = assert_fold_matches(circuit, lambda labels, ys: True)
    assert p > 0.0 and p_prime > 0.0
    assert_fold_matches(circuit, first_label_matters)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_repeated_input_with_conflicting_claims(spec):
    # both output registers range over the domain, so half the mass names one
    # input twice; the claim gives the two copies different responses
    dom = domain(2, spec)
    circuit = random_circuit(4, dom, k=2)
    p, p_prime = assert_fold_matches(circuit, lambda labels, ys: True, lambda labels: (0, 1))
    assert 0.0 < p < 1.0 and 0.0 < p_prime < 1.0


@pytest.mark.parametrize("bad", [-1, 2])
def test_claimed_response_outside_group_raises(bad):
    circuit = grover_preimage_circuit(domain(2, GroupSpec.bits(1)), 1)
    with pytest.raises(ValueError):
        relation_probabilities(circuit, preimage, lambda labels: (bad,) * len(labels))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), spec=st.sampled_from(SPECS), k=st.integers(1, 2),
       rounds=st.integers(1, 2), y_outputs=st.booleans(), scoring=st.integers(0, 2))
def test_compressed_p_matches_purified_readout(seed, spec, k, rounds, y_outputs, scoring):
    """p read off the compressed run equals the purified oracle's success
    probability; with k = 2 some outputs name one input twice."""
    dom = domain(3 if k == 1 else 2, spec)
    circuit = random_circuit(seed, dom, k, rounds, y_outputs=y_outputs)
    relation, claimed = [
        (preimage, claimed_zero),
        (first_label_matters, lambda labels: tuple(len(x) % spec.order for x in labels)),
        (lambda labels, ys: True, lambda labels: tuple(range(len(labels)))),
    ][scoring]
    p, _ = relation_probabilities(circuit, relation, None if y_outputs else claimed)
    standard = run_adversary(circuit, "standard")
    expected = success_probability(standard, circuit, relation, None if y_outputs else claimed)
    assert abs(p - expected) <= TOL


SCORINGS = [
    (preimage, claimed_zero),
    (first_label_matters, lambda labels: tuple(len(x) % 2 for x in labels)),
    (lambda labels, ys: True, lambda labels: tuple(range(len(labels)))),
]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), spec=st.sampled_from(SPECS + [GroupSpec.cyclic(4)]),
       k=st.integers(1, 2), rounds=st.integers(1, 2), y_outputs=st.booleans(),
       scoring=st.integers(0, 2))
def test_readout_matches_the_per_group_fold(seed, spec, k, rounds, y_outputs, scoring):
    """p and p' of one compressed run, and the masked norm on the standard
    run, equal the per-group fold; with k = 2 some outputs name one input
    twice."""
    dom = domain(3 if k == 1 else 2, spec)
    circuit = random_circuit(seed, dom, k, rounds, y_outputs=y_outputs)
    relation, claimed = SCORINGS[scoring]
    claimed = None if y_outputs else claimed
    p, p_prime = relation_probabilities(circuit, relation, claimed)
    for picture in ("compressed", "standard"):
        state = run_adversary(circuit, picture)
        columns = oracle._output_columns(state, circuit, relation, claimed)
        mass = reference_fold(state, columns, indicator(state))
        assert abs(oracle._matching_mass(state, columns) - mass) <= TOL
        if picture == "compressed":
            folded = reference_fold(state, columns, comp_matrix(spec)[: spec.order])
            assert abs(oracle._fold(state, columns) - folded) <= TOL
            assert abs(p - folded) <= TOL and abs(p_prime - mass) <= TOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), spec=st.sampled_from(SPECS), zero_rows=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_fold_on_sparse_states(seed, spec, zero_rows):
    """On a random compressed state whose stored rows are a random subset,
    possibly none, the fold and the masked norm equal the per-group fold with
    comp_matrix and indicator weights for random pins of one or two inputs;
    a group that no stored row matches adds 0 to the masked norm."""
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    reg_dims = (2, 3)
    size = (spec.order + 1) ** dom.size
    keys = np.flatnonzero(rng.random(size) >= zero_rows)
    block = rng.normal(size=(len(keys),) + reg_dims) + 1j * rng.normal(size=(len(keys),) + reg_dims)
    state = CompressedState(dom, reg_dims, keys, block / max(np.linalg.norm(block), 1.0))
    columns = {}
    for _ in range(4):
        xs = rng.permutation(dom.size)[: rng.integers(1, 3)]
        pinned = tuple((int(x), int(rng.integers(spec.order))) for x in sorted(xs))
        columns[pinned] = np.sort(rng.choice(6, size=rng.integers(1, 7), replace=False))
    folded = reference_fold(state, columns, comp_matrix(spec)[: spec.order])
    assert abs(oracle._fold(state, columns) - folded) <= TOL
    assert abs(oracle._matching_mass(state, columns) - reference_fold(state, columns, indicator(state))) <= TOL
    if len(keys) == 0:
        assert oracle._fold(state, columns) == oracle._matching_mass(state, columns) == 0.0


def test_one_compressed_run(monkeypatch):
    """relation_probabilities runs the adversary once, on the compressed oracle."""
    oracles = []
    run = oracle.run_adversary
    monkeypatch.setattr(oracle, "run_adversary",
                        lambda circuit, picture="compressed": oracles.append(picture) or run(circuit, picture))
    relation_probabilities(grover_preimage_circuit(domain(4, GroupSpec.bits(1)), 1), preimage, claimed_zero)
    assert oracles == ["compressed"]
