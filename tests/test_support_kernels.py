"""Differential tests for the row-store kernels of both oracle pictures.

The references below are the original dense kernels: every gate, query
coordinate, prune and readout sweeps the whole M^|X| or (M+1)^|X| x registers
tensor.  The kernels under test store and touch only the oracle rows that hold
amplitude; on every state (random dense ones, ones with planted all-zero rows,
circuit outputs, a state built from a dense tensor between queries) both must
agree to 1e-12.  Each reference is a function on a dense joint tensor (oracle
axes first, one axis per register after them); from_dense turns such a tensor
into a state.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import oracle
from qromlab.groups import GroupSpec, dual_transform, transition_matrix
from qromlab.oracle import (
    PRUNE_TOL,
    AdversaryCircuit,
    CompressedState,
    Database,
    GateStep,
    NamedGateStep,
    OracleDomain,
    PhaseFlipStep,
    PurifiedState,
    QueryStep,
    apply_parallel_query,
    grover_preimage_circuit,
    initial_compressed_state,
    initial_purified_state,
    named_gate_matrix,
    run_adversary,
    run_adversary_fixed_function,
)
from reference import database_distribution, max_support_size, success_probability, support_size

TOL = 1e-12
SPECS = (GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4))
SLOW = settings(max_examples=25, deadline=None)


# Dense reference kernels


def reg_axis(state, reg):
    return state.n_oracle + reg


def ref_apply_axis(vec, mat, axis):
    return np.moveaxis(np.tensordot(mat, vec, axes=([1], [axis])), 0, axis)


def ref_register_unitary(dom, vec, mat, regs):
    axes = [dom.size + r for r in regs]
    ends = range(vec.ndim - len(axes), vec.ndim)
    moved = np.moveaxis(vec, axes, ends)
    shape = moved.shape
    flat = moved.reshape(shape[: vec.ndim - len(axes)] + (mat.shape[0],))
    flat = np.tensordot(flat, mat.T, axes=([flat.ndim - 1], [0]))
    return np.moveaxis(flat.reshape(shape), ends, axes)


def ref_query_coord(dom, vec, out_reg, x_label=None, in_reg=None):
    spec = dom.spec
    out_axis = dom.size + out_reg
    if in_reg is None:
        targets = [(dom.index(x_label), {})]
    else:
        targets = [(xv, {dom.size + in_reg: xv}) for xv in range(dom.size)]
    w = dual_transform(spec)
    vec = ref_apply_axis(vec, w, out_axis)
    for oracle_axis, pinned in targets:
        for yhat in range(1, spec.order):
            fixed = {out_axis: yhat, **pinned}
            idx = tuple(fixed.get(a, slice(None)) for a in range(vec.ndim))
            local = oracle_axis - sum(1 for a in fixed if a < oracle_axis)
            vec[idx] = ref_apply_axis(vec[idx], transition_matrix(spec, yhat), local)
    return ref_apply_axis(vec, np.conj(w.T), out_axis)


def ref_standard_query_coord(dom, vec, out_reg, x_label=None, in_reg=None):
    """The dense standard query: on every slice of the whole M^|X| x registers
    tensor where the oracle holds h at x, shift the response axis by h."""
    spec = dom.spec
    vec = np.array(vec)
    out_axis = dom.size + out_reg
    if in_reg is None:
        targets = [(dom.index(x_label), {})]
    else:
        targets = [(xv, {dom.size + in_reg: xv}) for xv in range(dom.size)]
    for oracle_axis, pinned in targets:
        for h in range(spec.order):
            fixed = {oracle_axis: h, **pinned}
            idx = tuple(fixed.get(a, slice(None)) for a in range(vec.ndim))
            local = out_axis - sum(1 for a in fixed if a < out_axis)
            src = [spec.add(y, spec.neg(h)) for y in range(spec.order)]
            vec[idx] = np.take(vec[idx], src, axis=local)
    return vec


def ref_phase_flip(dom, vec, reg_dims, regs, predicate):
    vec = np.array(vec)
    dims = [reg_dims[r] for r in regs]
    for values in itertools.product(*(range(d) for d in dims)):
        if predicate(*values):
            fixed = {dom.size + r: v for r, v in zip(regs, values)}
            vec[tuple(fixed.get(a, slice(None)) for a in range(vec.ndim))] *= -1.0
    return vec


def ref_prune(vec):
    vec = np.array(vec)
    vec[np.abs(vec) < PRUNE_TOL] = 0.0
    return vec


def ref_run(circuit, vec=None, query=ref_query_coord):
    """The dense tensor after the run of the circuit through the dense
    kernels from vec, by default the compressed run from the initial
    compressed state; query is the dense query kernel for vec's picture."""
    dom = circuit.domain
    if vec is None:
        vec = initial_compressed_state(dom, circuit.reg_dims).vec
    for step in circuit.steps:
        if isinstance(step, GateStep):
            vec = ref_register_unitary(dom, vec, np.asarray(step.matrix, dtype=complex), step.regs)
        elif isinstance(step, QueryStep):
            if step.xs is not None:
                for x, out_reg in zip(step.xs, step.out_regs):
                    vec = query(dom, vec, out_reg, x_label=x)
            else:
                for in_reg, out_reg in zip(step.in_regs, step.out_regs):
                    vec = query(dom, vec, out_reg, in_reg=in_reg)
            vec = ref_prune(vec)
        elif isinstance(step, PhaseFlipStep):
            vec = ref_phase_flip(dom, vec, circuit.reg_dims, step.regs, step.predicate)
        else:
            dims = tuple(circuit.reg_dims[r] for r in step.regs)
            vec = ref_register_unitary(dom, vec, named_gate_matrix(step.name, dims, dom.spec, step.param),
                                       step.regs)
    return vec


def ref_marginal(dom, vec):
    return (np.abs(vec) ** 2).sum(axis=tuple(range(dom.size))).ravel()


def ref_database_distribution(dom, vec):
    probs = np.abs(vec) ** 2
    marg = probs.reshape(probs.shape[: dom.size] + (-1,)).sum(axis=-1)
    out = {}
    for values in np.ndindex(marg.shape):
        p = float(marg[values])
        if p > 0.0:
            out[Database(dom, values)] = p
    return out


def ref_success(vec, circuit, relation, claimed):
    """Slice sum per reachable adversary basis state over the whole tensor."""
    n_oracle = circuit.domain.size
    probs = np.abs(vec) ** 2
    reached = probs.sum(axis=tuple(range(n_oracle)))
    total = 0.0
    for values in np.ndindex(circuit.reg_dims):
        if reached[values] == 0.0:
            continue
        xs = tuple(values[r] for r in circuit.output_regs)
        labels = tuple(circuit.domain.inputs[x] for x in xs)
        if circuit.y_output_regs is not None:
            ys = tuple(values[r] for r in circuit.y_output_regs)
        else:
            ys = tuple(claimed(labels))
        pinned = {}
        if all(pinned.setdefault(x, y) == y for x, y in zip(xs, ys)) and relation(labels, ys):
            idx = tuple(pinned.get(a, slice(None)) for a in range(n_oracle))
            total += float(probs[idx + values].sum())
    return total


def support(vec, n_oracle):
    flat = vec.reshape(int(np.prod(vec.shape[:n_oracle])), -1)
    return set(np.flatnonzero(np.abs(flat).max(axis=1) > 0.0).tolist())


# Random states and circuits


def domain(size, spec):
    return OracleDomain(tuple(format(i, "02b") for i in range(size)), spec)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dom, reg_dims, zero_rows=0.0, make=initial_compressed_state):
    """A normalised random state, compressed unless make says otherwise; each
    oracle row is all-zero with probability zero_rows (one row always stays
    live)."""
    state = make(dom, reg_dims)
    shape = state.dims
    vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = vec.reshape(-1, int(np.prod(reg_dims)))
    dead = rng.random(len(flat)) < zero_rows
    dead[rng.integers(len(flat))] = False
    flat[dead] = 0.0
    return type(state).from_dense(dom, reg_dims, vec / np.linalg.norm(vec))


def random_circuit(seed, spec, size, k, rounds, superposed):
    """k input registers over X and k group-valued response registers, random
    gates between rounds; classical rounds query fresh distinct inputs."""
    rng = np.random.default_rng(seed)
    dom = domain(size, spec)
    m = spec.order
    inputs, responses = tuple(range(k)), tuple(range(k, 2 * k))
    steps = []
    for j in range(k):
        steps.append(GateStep(random_unitary(rng, size), (inputs[j],)))
        steps.append(GateStep(random_unitary(rng, m), (responses[j],)))
    for _ in range(rounds):
        if superposed:
            steps.append(QueryStep(out_regs=responses, in_regs=inputs))
        else:
            xs = tuple(dom.inputs[i] for i in rng.permutation(size)[:k])
            steps.append(QueryStep(out_regs=responses, xs=xs))
        for j in range(k):
            steps.append(GateStep(random_unitary(rng, size * m), (inputs[j], responses[j])))
    return AdversaryCircuit(domain=dom, reg_dims=(size,) * k + (m,) * k, steps=tuple(steps),
                            output_regs=inputs, y_output_regs=responses if seed % 2 else None)


def close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= TOL


circuits = st.builds(
    random_circuit,
    seed=st.integers(0, 2**16),
    spec=st.sampled_from(SPECS),
    size=st.integers(2, 3),
    k=st.integers(1, 2),
    rounds=st.integers(1, 3),
    superposed=st.booleans(),
)


def preimage(xs, ys):
    return all(y == 0 for y in ys)


def claimed_zero(xs):
    return (0,) * len(xs)


# Circuit outputs


@SLOW
@given(circuits)
def test_circuit_run_matches_dense(circuit):
    state = run_adversary(circuit, "compressed")
    ref = ref_run(circuit)
    assert close(state.vec, ref)
    assert close(state.adversary_marginal(), ref_marginal(circuit.domain, ref))
    assert close(success_probability(state, circuit, preimage, claimed_zero),
                 ref_success(ref, circuit, preimage, claimed_zero))


@SLOW
@given(circuits)
def test_readout_on_circuit_outputs(circuit):
    for picture in ("compressed", "standard"):
        state = run_adversary(circuit, picture)
        assert close(success_probability(state, circuit, preimage, claimed_zero),
                     ref_success(state.vec, circuit, preimage, claimed_zero))
        assert close(state.adversary_marginal(), ref_marginal(circuit.domain, state.vec))
    compressed = run_adversary(circuit, "compressed")
    dist = database_distribution(compressed)
    assert dist == ref_database_distribution(circuit.domain, compressed.vec)
    assert max_support_size(compressed) == max(support_size(db) for db in dist)


@pytest.mark.parametrize("size", [3, 5])
def test_grover_matches_dense(size):
    circuit = grover_preimage_circuit(domain(size, GroupSpec.bits(1)), rounds=2)
    state = run_adversary(circuit, "compressed")
    ref = ref_run(circuit)
    assert close(state.vec, ref)
    assert database_distribution(state) == ref_database_distribution(circuit.domain, state.vec)
    assert max_support_size(state) <= 2


def with_phase_flips(circuit, seed):
    """The circuit with a phase flip on a random register set after every
    step; the flipped branches are a random subset of register values."""
    rng = np.random.default_rng(seed)
    steps = []
    for step in circuit.steps:
        steps.append(step)
        regs = tuple(int(r) for r in rng.permutation(len(circuit.reg_dims))[: rng.integers(1, 3)])
        flipped = {tuple(int(v) for v in values)
                   for values in itertools.product(*(range(circuit.reg_dims[r]) for r in regs))
                   if rng.random() < 0.5}
        steps.append(PhaseFlipStep(regs, lambda *values, flipped=flipped: values in flipped))
    return AdversaryCircuit(domain=circuit.domain, reg_dims=circuit.reg_dims, steps=tuple(steps),
                            output_regs=circuit.output_regs, y_output_regs=circuit.y_output_regs)


@SLOW
@given(circuits, st.integers(0, 2**16))
def test_phase_flips_match_dense_and_standard(circuit, seed):
    circuit = with_phase_flips(circuit, seed)
    state = run_adversary(circuit, "compressed")
    standard = run_adversary(circuit, "standard")
    assert close(state.adversary_marginal(), standard.adversary_marginal())
    assert close(state.vec, ref_run(circuit))


def test_grover_never_materialises(monkeypatch):
    """A compressed Grover run at |X| = 10 stays on its row keys: it never
    builds the dense tensor and ends on at most the 1 + 2|X| databases one
    query can reach, each of them carrying amplitude."""
    def refuse(state):
        raise AssertionError("the dense tensor was materialised")

    monkeypatch.setattr(CompressedState, "vec", property(refuse))
    circuit = grover_preimage_circuit(domain(10, GroupSpec.bits(1)), rounds=1)
    state = run_adversary(circuit, "compressed")
    success_probability(state, circuit, preimage, claimed_zero)
    assert len(state.keys) == len(database_distribution(state)) <= 21


def test_all_zero_state():
    """A state built from an all-zero tensor stores no row, every kernel
    runs on it, and every readout is zero."""
    dom = domain(3, GroupSpec.bits(1))
    state = CompressedState.from_dense(dom, (dom.size, 2), np.zeros((3,) * dom.size + (dom.size, 2)))
    state = apply_parallel_query(state, (dom.inputs[0],), (1,))
    oracle._compressed_query_coord(state, 1, in_reg=0)
    state.apply_phase_flip((0,), lambda v: v == 1)
    circuit = AdversaryCircuit(domain=dom, reg_dims=(dom.size, 2), steps=(),
                               output_regs=(0,), y_output_regs=(1,))
    assert len(state.keys) == 0
    assert state.norm() == 0.0 and not state.adversary_marginal().any()
    assert database_distribution(state) == {} and max_support_size(state) == 0
    assert success_probability(state, circuit, preimage, None) == 0.0
    assert not state.vec.any()


@pytest.mark.parametrize("make", [initial_compressed_state, initial_purified_state])
def test_vec_is_a_read_only_copy(make):
    """.vec is a fresh dense copy: writing into it or assigning it raises, and
    reading it leaves the row store as it was."""
    dom = domain(2, GroupSpec.bits(1))
    state = random_state(np.random.default_rng(0), dom, (2, 3), 0.5, make)
    keys, block = state.keys, state.block
    before = keys.copy(), block.copy()
    dense = state.vec
    with pytest.raises(ValueError, match="read-only"):
        dense[(0,) * dense.ndim] = 1.0
    with pytest.raises(AttributeError):
        state.vec = np.zeros_like(dense)
    assert state.vec is not dense
    assert state.keys is keys and state.block is block
    assert np.array_equal(keys, before[0]) and np.array_equal(block, before[1])
    assert block.flags.c_contiguous and block.flags.writeable


# Random dense and planted states


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.integers(1, 2), st.sampled_from([0.0, 0.6, 0.95]))
def test_parallel_query_matches_dense(seed, spec, k, zero_rows):
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    state = random_state(rng, dom, (spec.order,) * k + (2,), zero_rows)
    xs = tuple(dom.inputs[i] for i in rng.permutation(dom.size)[:k])
    out = apply_parallel_query(state, xs, range(k))
    ref = state.vec
    for x, reg in zip(xs, range(k)):
        ref = ref_query_coord(dom, ref, reg, x_label=x)
    assert close(out.vec, ref_prune(ref))
    assert out.vec.shape == state.vec.shape and out.vec.flags.c_contiguous


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.sampled_from([0.0, 0.6, 0.95]))
def test_superposed_coordinate_matches_dense(seed, spec, zero_rows):
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    state = random_state(rng, dom, (2, dom.size, spec.order), zero_rows)
    ref = ref_query_coord(dom, state.vec, 2, in_reg=1)
    oracle._compressed_query_coord(state, 2, in_reg=1)
    assert close(state.vec, ref)


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.sampled_from([0.0, 0.6, 0.95]),
       st.sampled_from([(0,), (2,), (1, 0), (0, 2)]))
def test_gate_matches_dense(seed, spec, zero_rows, regs):
    rng = np.random.default_rng(seed)
    dims = (3, spec.order, 2)
    dom = domain(2, spec)
    state = random_state(rng, dom, dims, zero_rows)
    mat = random_unitary(rng, int(np.prod([dims[r] for r in regs])))
    ref = ref_register_unitary(dom, state.vec, mat, regs)
    state.apply_register_unitary(mat, regs)
    assert close(state.vec, ref)
    purified = PurifiedState.from_dense(dom, dims, ref[(slice(0, spec.order),) * 2])
    expected = ref_register_unitary(dom, purified.vec, mat, regs)
    purified.apply_register_unitary(mat, regs)
    assert close(purified.vec, expected)


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.sampled_from([0.0, 0.6, 0.95]))
def test_readout_on_random_states(seed, spec, zero_rows):
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    state = random_state(rng, dom, (dom.size, spec.order), zero_rows)
    dist = database_distribution(state)
    assert dist == ref_database_distribution(dom, state.vec)
    assert max_support_size(state) == max(support_size(db) for db in dist)
    assert close(state.adversary_marginal(), ref_marginal(dom, state.vec))
    circuit = AdversaryCircuit(domain=dom, reg_dims=(dom.size, spec.order), steps=(),
                               output_regs=(0,), y_output_regs=(1,))
    assert close(success_probability(state, circuit, preimage, None),
                 ref_success(state.vec, circuit, preimage, None))


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.booleans())
def test_dense_state_between_queries(seed, spec, fortran):
    """A run whose state is replaced, between two queries, by one from_dense
    builds from a C- or Fortran-ordered tensor with planted all-zero rows."""
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    state = initial_compressed_state(dom, (spec.order,))
    state = apply_parallel_query(state, (dom.inputs[0],), (0,))
    planted = random_state(rng, dom, (spec.order,), 0.8).vec
    state = CompressedState.from_dense(dom, state.reg_dims, np.asfortranarray(planted) if fortran else planted)
    out = apply_parallel_query(state, (dom.inputs[1],), (0,))
    ref = ref_query_coord(dom, planted, 0, x_label=dom.inputs[1])
    assert close(out.vec, ref_prune(ref))


# The standard query on stored rows


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.sampled_from([0.0, 0.6, 0.95]),
       st.sampled_from(["classical", "input first", "input last"]))
def test_standard_query_matches_dense(seed, spec, zero_rows, layout):
    """The standard query coordinate on the stored rows of a random purified
    state equals the dense kernel, and keeps exactly the rows live before."""
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    m = spec.order
    dims, out_reg, in_reg = {"classical": ((2, m), 1, None),
                             "input first": ((dom.size, 2, m), 2, 0),
                             "input last": ((m, 2, dom.size), 0, 2)}[layout]
    x = dom.inputs[rng.integers(dom.size)] if in_reg is None else None
    state = random_state(rng, dom, dims, zero_rows, initial_purified_state)
    before = support(state.vec, dom.size)
    ref = ref_standard_query_coord(dom, state.vec, out_reg, x_label=x, in_reg=in_reg)
    oracle._standard_query_coord(state, out_reg, x_label=x, in_reg=in_reg)
    assert set(state.keys.tolist()) == before
    assert close(state.vec, ref)


@pytest.mark.parametrize("target", [0, 7])
def test_fixed_function_run_keeps_one_row(target):
    """A Grover run against a fixed function at |X| = 10 stays on its one
    oracle row through every gate and standard query, and matches the dense
    run from that function's basis state."""
    dom = domain(10, GroupSpec.bits(1))
    circuit = grover_preimage_circuit(dom, rounds=2)
    table = {x: int(i != target) for i, x in enumerate(dom.inputs)}
    state = run_adversary_fixed_function(circuit, table)
    assert len(state.keys) == 1
    start = np.zeros(initial_purified_state(dom, circuit.reg_dims).dims, dtype=complex)
    start[tuple(table[x] for x in dom.inputs) + (0, 0)] = 1.0
    ref = ref_run(circuit, start, ref_standard_query_coord)
    assert close(state.vec, ref)


# The query-free prefix


def reshaped(circuit, form):
    """The circuit with named gates before its first step ("prefix"), with
    every step before its first query dropped ("query first"), or with its
    queries dropped ("no query")."""
    steps = circuit.steps
    k = circuit.k
    if form == "prefix":
        steps = (NamedGateStep("prepare_uniform", (0,)),
                 NamedGateStep("prepare_dual", (k,), param=1)) + steps
    elif form == "query first":
        steps = steps[next(i for i, s in enumerate(steps) if isinstance(s, QueryStep)):]
    else:
        steps = tuple(s for s in steps if not isinstance(s, QueryStep))
    return AdversaryCircuit(domain=circuit.domain, reg_dims=circuit.reg_dims, steps=steps,
                            output_regs=circuit.output_regs, y_output_regs=circuit.y_output_regs)


@SLOW
@given(circuits, st.integers(0, 2**16), st.sampled_from(["prefix", "query first", "no query"]))
def test_standard_run_matches_dense(circuit, seed, form):
    """The standard run, whose steps before the first query act on one
    function row, equals the dense run over all M^|X| function tables."""
    circuit = with_phase_flips(reshaped(circuit, form), seed)
    state = run_adversary(circuit, "standard")
    start = initial_purified_state(circuit.domain, circuit.reg_dims).vec
    ref = ref_run(circuit, start, ref_standard_query_coord)
    assert close(state.vec, ref)
    assert close(run_adversary(circuit, "compressed").vec, ref_run(circuit))


@pytest.mark.parametrize("picture, rows", [("standard", 4 ** 5), ("compressed", None)])
def test_prefix_gates_touch_one_row(monkeypatch, picture, rows):
    """At |X| = 5, M = 4, k = 2, every gate before the first query touches
    one stored row; the standard run's gates after it touch all 4^5 function
    tables."""
    circuit = random_circuit(3, GroupSpec.bits(2), 5, 2, 1, True)
    first = next(i for i, s in enumerate(circuit.steps) if isinstance(s, QueryStep))
    calls = gate_rows(monkeypatch)
    run_adversary(circuit, picture)
    assert first == 4
    assert all(len(keys) == 1 for keys in calls[:first])
    if rows is not None:
        assert all(len(keys) == rows for keys in calls[first:])


# The support the query kernel carries


def gate_rows(monkeypatch):
    """Record the oracle rows every gate-kernel call touches: the state's row
    keys, which are the dense tensor's row numbers."""
    calls = []
    apply_gate = oracle._apply_gate

    def recording(state, mat, regs):
        calls.append(set(state.keys.tolist()))
        apply_gate(state, mat, regs)

    monkeypatch.setattr(oracle, "_apply_gate", recording)
    return calls


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("level", [0, 2])
def test_query_support_is_exact(monkeypatch, spec, level):
    """A superposed query with the input register on one level: only the
    groups along that input gain amplitude, and W-dagger touches exactly the
    rows live before or after the query."""
    rng = np.random.default_rng(level)
    dom = domain(3, spec)
    state = random_state(rng, dom, (dom.size, spec.order), 0.9)
    vec = state.vec.copy()
    pin = [slice(None)] * vec.ndim
    for other in range(dom.size):
        if other != level:
            pin[reg_axis(state, 0)] = other
            vec[tuple(pin)] = 0.0
    state = CompressedState.from_dense(dom, state.reg_dims, vec)
    before = support(vec, dom.size)
    ref = ref_query_coord(dom, vec, 1, in_reg=0)
    calls = gate_rows(monkeypatch)
    oracle._compressed_query_coord(state, 1, in_reg=0)
    after = support(state.vec, dom.size)
    assert close(state.vec, ref)
    assert calls[0] == before
    assert after <= calls[-1] <= before | after
    assert len(after) < (spec.order + 1) ** dom.size


@SLOW
@given(st.integers(0, 2**16), st.sampled_from(SPECS), st.sampled_from([0.0, 0.6, 0.95]))
def test_superposed_query_keeps_no_new_zero_row(seed, spec, zero_rows):
    """A superposed coordinate with every input level live, each stored row
    live on a random subset of them: it matches the dense kernel, and the
    rows stored after it are exactly those live before or after, so no row
    it added is all zero."""
    rng = np.random.default_rng(seed)
    dom = domain(3, spec)
    state = random_state(rng, dom, (dom.size, spec.order), zero_rows)
    vec = state.vec.copy()
    flat = vec.reshape(-1, dom.size, spec.order)
    cut = rng.random(flat.shape[:2]) < 0.5
    cut[:, rng.integers(dom.size)] = False
    cut[rng.choice(np.flatnonzero(np.abs(flat).max(axis=(1, 2))))] = False
    flat[cut] = 0.0
    state = CompressedState.from_dense(dom, state.reg_dims, vec)
    before = support(vec, dom.size)
    ref = ref_query_coord(dom, vec, 1, in_reg=0)
    oracle._compressed_query_coord(state, 1, in_reg=0)
    stored = set(state.keys.tolist())
    assert close(state.vec, ref)
    assert stored == before | support(state.vec, dom.size)


@pytest.mark.parametrize("size", [4, 5])
def test_two_register_query_with_uneven_groups(size):
    """k = 2 at |X| = 4 and 5 with the cyclic M = 4 range: a classical query
    defines two inputs first, so the group sets of the next query's input
    levels differ in size; that in-register query and a last classical one
    match the dense kernels."""
    spec = GroupSpec.cyclic(4)
    rng = np.random.default_rng(size)
    dom = domain(size, spec)
    reg_dims = (size, size, 4, 4)

    def gates():
        return [GateStep(random_unitary(rng, size * 4), (0, 2)), GateStep(random_unitary(rng, size * 4), (1, 3))]

    prefix = [GateStep(random_unitary(rng, size), (0,)), GateStep(random_unitary(rng, size), (1,)),
              GateStep(random_unitary(rng, 4), (2,)), GateStep(random_unitary(rng, 4), (3,)),
              QueryStep(out_regs=(2, 3), xs=(dom.inputs[0], dom.inputs[2])), *gates()]
    rest = [QueryStep(out_regs=(2, 3), in_regs=(0, 1)), *gates(),
            QueryStep(out_regs=(3, 2), xs=(dom.inputs[size - 1], dom.inputs[0])), *gates()]
    before = run_adversary(AdversaryCircuit(dom, reg_dims, tuple(prefix)), "compressed")
    strides = 5 ** np.arange(size - 1, -1, -1)
    groups = [len(np.unique(before.keys - before.keys // stride % 5 * stride)) for stride in strides]
    assert len(set(groups)) > 1
    circuit = AdversaryCircuit(dom, reg_dims, tuple(prefix + rest))
    assert close(run_adversary(circuit, "compressed").vec, ref_run(circuit))


@pytest.mark.parametrize("spec", SPECS)
def test_query_support_from_empty_database(monkeypatch, spec):
    dom = domain(3, spec)
    state = initial_compressed_state(dom, (spec.order,))
    state.apply_register_unitary(random_unitary(np.random.default_rng(1), spec.order), (0,))
    calls = gate_rows(monkeypatch)
    out = apply_parallel_query(state, (dom.inputs[1],), (0,))
    # the empty database and the M databases defining input 1
    assert calls[-1] == support(out.vec, dom.size)
    assert len(calls[-1]) == spec.order + 1


# Pruned mass


@pytest.mark.parametrize("make", [initial_compressed_state, initial_purified_state])
def test_prune_counts_planted_mass(make):
    dom = domain(2, GroupSpec.bits(1))
    start = make(dom, (2,))
    vec = start.vec.copy()
    planted = (0,) * dom.size + (1,)
    vec[planted] = 1e-15
    state = type(start).from_dense(dom, (2,), vec)
    assert state.pruned_mass == 0.0
    state.prune()
    assert state.vec[planted] == 0.0
    assert close(state.vec, ref_prune(vec))
    assert state.pruned_mass == pytest.approx(1e-30, rel=1e-12)
    state.prune()
    assert state.pruned_mass == pytest.approx(1e-30, rel=1e-12)
    assert state.copy().pruned_mass == state.pruned_mass


def ref_prune_rows(keys, block):
    """Two-pass prune of a row store: zero the amplitudes below PRUNE_TOL,
    then drop the rows left all zero.  The new keys, block and pruned mass."""
    block = block.copy()
    small = (np.abs(block) < PRUNE_TOL) & (block != 0.0)
    mass = float(np.sum(np.abs(block[small]) ** 2))
    block[small] = 0.0
    live = np.array([row.any() for row in block], dtype=bool)
    return keys[live], block[live], mass


EDGE_AMPLITUDES = (0.0, PRUNE_TOL, np.nextafter(PRUNE_TOL, 0.0), 1e-15, -1e-15j, 0.5)


@SLOW
@given(st.integers(0, 2**16), st.sampled_from([initial_compressed_state, initial_purified_state]),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))
def test_prune_matches_two_pass_reference(seed, make, live_share, edge_share):
    """prune on row stores whose amplitudes mix random values with ones at,
    just under and well under PRUNE_TOL, and exact zeros: the same keys,
    block and pruned mass as the two-pass reference, including stores with
    no row and stores whose rows are all zero."""
    rng = np.random.default_rng(seed)
    dom = domain(2, GroupSpec.cyclic(3))
    reg_dims = (2, 3)
    start = make(dom, reg_dims)
    keys = np.flatnonzero(rng.random(start.oracle_dim ** dom.size) < live_share)
    shape = (len(keys),) + reg_dims
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    edge = rng.random(shape) < edge_share
    block[edge] = rng.choice(EDGE_AMPLITUDES, size=int(edge.sum()))
    state = type(start)(dom, reg_dims, keys, block.copy())
    ref_keys, ref_block, ref_mass = ref_prune_rows(keys, block)
    state.prune()
    assert np.array_equal(state.keys, ref_keys) and np.array_equal(state.block, ref_block)
    assert state.pruned_mass == pytest.approx(ref_mass, rel=1e-15, abs=0.0)
    assert state.block.shape == (len(state.keys),) + reg_dims


@pytest.mark.parametrize("rows", [0, 3])
def test_prune_of_an_all_zero_store(rows):
    """A store of all-zero rows, or of no row, ends with no row and adds no
    pruned mass."""
    dom = domain(2, GroupSpec.bits(1))
    state = CompressedState(dom, (2, 3), np.arange(rows), np.zeros((rows, 2, 3), dtype=complex))
    state.prune()
    assert len(state.keys) == 0 and state.block.shape == (0, 2, 3)
    assert state.pruned_mass == 0.0


@pytest.mark.parametrize("value", [0.0, PRUNE_TOL / 2, np.nan])
def test_prune_of_a_row_with_one_entry(value):
    """A row whose one entry is zero or below PRUNE_TOL is dropped; a NaN is
    not below it and keeps its row, as in the two-pass reference."""
    dom = domain(2, GroupSpec.bits(1))
    keys = np.array([0, 5])
    block = np.zeros((2, 2), dtype=complex)
    block[0, 1] = 1.0
    block[1, 0] = value
    state = CompressedState(dom, (2,), keys, block.copy())
    state.prune()
    ref_keys, ref_block, ref_mass = ref_prune_rows(keys, block)
    assert np.array_equal(state.keys, ref_keys)
    assert np.array_equal(state.block, ref_block, equal_nan=True)
    assert state.pruned_mass == ref_mass
    assert len(state.keys) == (2 if np.isnan(value) else 1)


def test_query_carries_pruned_mass():
    dom = domain(2, GroupSpec.bits(1))
    vec = initial_compressed_state(dom, (2, 2)).vec.copy()
    vec[(0, 0, 0, 1)] = 3e-15
    state = CompressedState.from_dense(dom, (2, 2), vec)
    out = apply_parallel_query(state, (dom.inputs[0],), (0,))
    assert out.pruned_mass > 0.0 and state.pruned_mass == 0.0
    assert out.pruned_mass == pytest.approx(9e-30, rel=1e-6)
