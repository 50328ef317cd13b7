"""Exact state-vector simulation of the purified and the compressed random oracle.

The joint state of oracle and adversary is a complex tensor with one axis per
oracle input (dimension M for the purified oracle, M+1 for the compressed one,
index M encoding "not yet defined") followed by one axis per adversary
register.  Everything is exact linear algebra at desk scale; queries are the
unitaries built from the single-register transition matrix.  Both pictures
keep one row store: only the oracle rows (function tables or databases) that
carry amplitude are stored, and the dense tensor is built only when .vec is
read.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, character_row, comp_matrix, dual_transform, transition_matrix

DEFAULT_BUDGET = 1 << 24
PRUNE_TOL = 1e-14


def amplitude_budget() -> int:
    """Maximum joint-state size, overridable via QROMLAB_BUDGET."""
    return int(os.environ.get("QROMLAB_BUDGET", DEFAULT_BUDGET))


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleDomain:
    """Finite ordered input set X together with the range group."""

    inputs: tuple
    spec: GroupSpec

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise ValueError("oracle domain must contain at least one input")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("oracle domain inputs must be distinct")

    @classmethod
    def of_bit_inputs(cls, n: int, spec: GroupSpec) -> "OracleDomain":
        """Domain whose inputs are the 2^n bit strings of length n."""
        return cls(tuple(format(i, f"0{n}b") for i in range(1 << n)), spec)

    @property
    def size(self) -> int:
        return len(self.inputs)

    def index(self, x) -> int:
        try:
            return self.inputs.index(x)
        except ValueError:
            raise KeyError(f"input {x!r} not in oracle domain") from None


@dataclass(frozen=True)
class Database:
    """Partial function X -> Y, with index M = spec.bot marking undefined."""

    domain: OracleDomain
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.domain.size:
            raise ValueError("database values must cover the whole domain")
        spec = self.domain.spec
        if min(self.values) < 0 or max(self.values) > spec.bot:
            for v in self.values:
                spec.check_extended(v)

    @classmethod
    def empty(cls, domain: OracleDomain) -> "Database":
        return cls(domain, (domain.spec.bot,) * domain.size)

    @classmethod
    def from_entries(cls, domain: OracleDomain, entries: dict) -> "Database":
        values = [domain.spec.bot] * domain.size
        for x, y in entries.items():
            values[domain.index(x)] = y
        return cls(domain, tuple(values))

    def value(self, x):
        return self.values[self.domain.index(x)]

    def defined(self, x) -> bool:
        return self.value(x) != self.domain.spec.bot

    def support(self) -> tuple:
        bot = self.domain.spec.bot
        return tuple(x for x, v in zip(self.domain.inputs, self.values) if v != bot)

    def support_size(self) -> int:
        bot = self.domain.spec.bot
        return sum(1 for v in self.values if v != bot)

    def entries(self) -> dict:
        bot = self.domain.spec.bot
        return {x: v for x, v in zip(self.domain.inputs, self.values) if v != bot}

    def update(self, xs, rs) -> "Database":
        """D[xs -> rs]; redefining an already-set point is allowed."""
        values = list(self.values)
        for x, r in zip(xs, rs):
            self.domain.spec.check_extended(r)
            values[self.domain.index(x)] = r
        return Database(self.domain, tuple(values))


def sparse_encode(db: Database) -> list:
    """Defined entries as (x, y) pairs in domain order."""
    return sorted(db.entries().items(), key=lambda kv: db.domain.index(kv[0]))


def sparse_decode(domain: OracleDomain, pairs) -> Database:
    return Database.from_entries(domain, dict(pairs))


def _check_budget(dims) -> None:
    budget = amplitude_budget()
    total = 1
    for d in dims:
        total *= d
    if total > budget:
        raise BudgetExceeded(f"state of {total} amplitudes exceeds budget {budget}")


def _apply_axis(vec: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, vec, axes=([1], [axis])), 0, axis)


def _fixed_index(ndim: int, fixed: dict):
    return tuple(fixed.get(a, slice(None)) for a in range(ndim))


def _inverse(perm: list) -> list:
    return sorted(range(len(perm)), key=perm.__getitem__)


def _apply_gate(state: "_JointState", mat: np.ndarray, regs) -> None:
    """Apply mat to the joint space of the registers regs on every stored
    oracle row of the state, in place."""
    _, block = state._rows()
    axes = [1 + r for r in regs]
    perm = [a for a in range(block.ndim) if a not in axes] + axes
    moved = block.transpose(perm)
    out = moved.reshape(-1, mat.shape[0]) @ mat.T
    block[...] = out.reshape(moved.shape).transpose(_inverse(perm))


def _nonzero_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of a C-contiguous (rows, *reg_dims) block hold any nonzero
    amplitude."""
    return block.reshape(len(block), math.prod(block.shape[1:])).view(np.float64).any(axis=1)


class _JointState:
    """The joint state of oracle and adversary; the two oracle pictures differ
    only in oracle_dim, the levels of one oracle axis.

    The state stores only the oracle rows that hold amplitude: sorted int64
    keys (the mixed-radix oracle index, one digit per input) and a
    (rows, *reg_dims) complex block, on which every kernel works.  Reading
    .vec materialises the dense tensor and makes it authoritative, so writes
    through it count; assigning .vec replaces the state; the next kernel
    re-derives the keys from it once.  pruned_mass accumulates the squared
    norm prune drops."""

    def __init__(self, domain: OracleDomain, reg_dims, vec: np.ndarray = None, keys=None, block=None):
        self.domain = domain
        self.reg_dims = tuple(reg_dims)
        self.vec = vec
        if vec is None:
            self._keys, self._block = keys, block
        self.pruned_mass = 0.0

    @property
    def n_oracle(self) -> int:
        return self.domain.size

    @property
    def oracle_dim(self) -> int:
        """Levels of one oracle axis."""
        raise NotImplementedError

    @property
    def dims(self) -> tuple:
        """Shape of the dense joint tensor."""
        return (self.oracle_dim,) * self.n_oracle + self.reg_dims

    def reg_axis(self, reg: int) -> int:
        return self.n_oracle + reg

    @property
    def vec(self) -> np.ndarray:
        if self._dense is None:
            dense = np.zeros((self.oracle_dim ** self.n_oracle,) + self.reg_dims, dtype=complex)
            dense[self._keys] = self._block
            self._dense = dense.reshape(self.dims)
            self._keys = self._block = None
        return self._dense

    @vec.setter
    def vec(self, value: np.ndarray) -> None:
        self._dense = value
        self._keys = self._block = None

    def _rows(self):
        """The stored rows' keys and block."""
        if self._dense is not None:
            flat = np.ascontiguousarray(self._dense, dtype=complex).reshape((-1,) + self.reg_dims)
            self._keys = np.flatnonzero(_nonzero_rows(flat))
            self._block = flat[self._keys]
            self._dense = None
        return self._keys, self._block

    def _set_rows(self, keys: np.ndarray, block: np.ndarray) -> None:
        self._keys, self._block = keys, block

    def copy(self):
        if self._dense is not None:
            new = type(self)(self.domain, self.reg_dims, self._dense.copy())
        else:
            new = type(self)(self.domain, self.reg_dims, keys=self._keys.copy(), block=self._block.copy())
        new.pruned_mass = self.pruned_mass
        return new

    def norm(self) -> float:
        return float(np.linalg.norm(self._rows()[1].ravel()))

    def _row_digits(self, keys) -> np.ndarray:
        """The oracle value of each of the given rows, shape (rows, |X|)."""
        return np.stack(np.unravel_index(keys, self.dims[: self.n_oracle]), axis=1)

    def prune(self) -> None:
        """Zero every amplitude below PRUNE_TOL, adding its squared norm to
        pruned_mass, and stop storing the rows left all zero."""
        keys, block = self._rows()
        small = (np.abs(block) < PRUNE_TOL) & (block != 0.0)
        if small.any():
            self.pruned_mass += float(np.sum(np.abs(block[small]) ** 2))
            block[small] = 0.0
        live = _nonzero_rows(block)
        if not live.all():
            self._set_rows(keys[live], block[live])

    def apply_register_unitary(self, mat: np.ndarray, regs) -> None:
        """Apply a unitary to the joint space of the given adversary registers."""
        regs = tuple(regs)
        dim = 1
        for r in regs:
            dim *= self.reg_dims[r]
        if mat.shape != (dim, dim):
            raise ValueError(f"gate of shape {mat.shape} does not fit registers {regs}")
        _apply_gate(self, mat, regs)

    def apply_phase_flip(self, regs, predicate) -> None:
        """Multiply by -1 every basis branch whose register values satisfy predicate."""
        regs = tuple(regs)
        dims = [self.reg_dims[r] for r in regs]
        sign = np.ones(self.reg_dims)
        for values in itertools.product(*(range(d) for d in dims)):
            if predicate(*values):
                sign[_fixed_index(sign.ndim, dict(zip(regs, values)))] *= -1.0
        _, block = self._rows()
        block *= sign

    def adversary_marginal(self) -> np.ndarray:
        """Probability over joint adversary basis states (oracle traced out)."""
        return (np.abs(self._rows()[1]) ** 2).sum(axis=0).ravel()


class PurifiedState(_JointState):
    """Joint state over full function tables H: X -> Y plus adversary registers."""

    @property
    def oracle_dim(self) -> int:
        return self.domain.spec.order


class CompressedState(_JointState):
    """Joint state over databases X -> Y u {bot} plus adversary registers, bot
    as oracle digit M.  After q rounds of k parallel queries only databases
    with at most qk defined entries carry amplitude, so few rows are stored."""

    @property
    def oracle_dim(self) -> int:
        return self.domain.spec.order + 1

    def _database_marginal(self):
        """(oracle values, probability) of each stored row."""
        keys, block = self._rows()
        probs = (np.abs(block) ** 2).sum(axis=tuple(range(1, block.ndim)))
        return self._row_digits(keys), probs

    def database_distribution(self) -> dict:
        digits, probs = self._database_marginal()
        return {Database(self.domain, tuple(values)): float(p)
                for values, p in zip(digits.tolist(), probs) if p > 0.0}

    def max_support_size(self) -> int:
        digits, probs = self._database_marginal()
        defined = (digits != self.domain.spec.bot).sum(axis=1)
        return int(defined[probs > 0.0].max(initial=0))


def _basis_state(cls, domain: OracleDomain, reg_dims: tuple, keys, amplitude: float) -> _JointState:
    """The state whose oracle rows keys each hold amplitude, with the
    adversary at basis state 0."""
    block = np.zeros((len(keys),) + reg_dims, dtype=complex)
    block[(slice(None),) + (0,) * len(reg_dims)] = amplitude
    return cls(domain, reg_dims, keys=np.asarray(keys, dtype=np.int64), block=block)


def initial_compressed_state(domain: OracleDomain, reg_dims=(1,)) -> CompressedState:
    """All-bot database joint with adversary basis state 0."""
    reg_dims = (reg_dims,) if isinstance(reg_dims, int) else tuple(reg_dims)
    m = domain.spec.order
    _check_budget((m + 1,) * domain.size + reg_dims)
    return _basis_state(CompressedState, domain, reg_dims, [(m + 1) ** domain.size - 1], 1.0)


def initial_purified_state(domain: OracleDomain, reg_dims=(1,)) -> PurifiedState:
    """Uniform superposition over all functions H, adversary at basis state 0."""
    reg_dims = (reg_dims,) if isinstance(reg_dims, int) else tuple(reg_dims)
    m = domain.spec.order
    _check_budget((m,) * domain.size + reg_dims)
    return _basis_state(PurifiedState, domain, reg_dims, np.arange(m ** domain.size),
                        m ** (-domain.size / 2.0))


def comp(state: PurifiedState) -> CompressedState:
    """Compression isometry: embed into the database space and swap the
    neutral Fourier component with bot on every register."""
    m = state.domain.spec.order
    dims = (m + 1,) * state.n_oracle + state.reg_dims
    _check_budget(dims)
    vec = np.zeros(dims, dtype=complex)
    vec[(slice(0, m),) * state.n_oracle] = state.vec
    cm = comp_matrix(state.domain.spec)
    for axis in range(state.n_oracle):
        vec = _apply_axis(vec, cm, axis)
    return CompressedState(state.domain, state.reg_dims, vec)


def comp_dagger(state: CompressedState) -> PurifiedState:
    """Adjoint of the compression isometry (projects off any residual bot)."""
    cm = comp_matrix(state.domain.spec)
    vec = state.vec
    for axis in range(state.n_oracle):
        vec = _apply_axis(vec, cm, axis)
    m = state.domain.spec.order
    vec = vec[(slice(0, m),) * state.n_oracle]
    return PurifiedState(state.domain, state.reg_dims, np.ascontiguousarray(vec))


def _query_targets(state: _JointState, out_reg: int, x_label, in_reg):
    """Shape checks shared by both query kernels.

    Returns the response register's position among the registers left once
    the input register is pinned, and one (oracle axis, pin) pair per queried
    input, where pin indexes the registers with the input register fixed to
    that input's level (all free for a classical input)."""
    if state.reg_dims[out_reg] != state.domain.spec.order:
        raise ValueError("response register must be group-valued")
    free = (slice(None),) * len(state.reg_dims)
    if in_reg is None:
        return out_reg, [(state.domain.index(x_label), free)]
    if state.reg_dims[in_reg] != state.domain.size:
        raise ValueError("query input register must have one level per domain input")
    pins = [free[:in_reg] + (xv,) + free[in_reg + 1:] for xv in range(state.domain.size)]
    return out_reg - (in_reg < out_reg), list(enumerate(pins))


def _compressed_query_coord(state: CompressedState, out_reg: int, x_label=None, in_reg=None) -> None:
    """One coordinate of a parallel query against the compressed oracle.

    W and W-dagger act on the response register of the stored rows only.  For
    each queried input x (and pinned input level), the stored rows are grouped
    by their key with x blanked; each group's M+1 rows are gathered by
    searchsorted (an absent row reads as zero), the transition for every
    non-neutral yhat is applied on the pinned slice and scattered back, and
    the absent group rows that came out nonzero join the stored rows."""
    spec = state.domain.spec
    m = spec.order
    out_pos, targets = _query_targets(state, out_reg, x_label, in_reg)
    w = dual_transform(spec)
    _apply_gate(state, w, (out_reg,))
    ts = np.stack([transition_matrix(spec, yhat) for yhat in range(1, m)])
    levels = np.arange(m + 1)
    # A gathered block is (group, level, registers left once the input
    # register is pinned); perm brings it to (response, level, group, rest).
    ndim = 2 + len(state.reg_dims) - (in_reg is not None)
    perm = [2 + out_pos, 1] + [a for a in range(ndim) if a not in (2 + out_pos, 1)]
    inverse = _inverse(perm)
    for oracle_axis, pin in targets:
        keys, block = state._rows()
        stride = (m + 1) ** (state.n_oracle - 1 - oracle_axis)
        group = np.unique(keys - keys // stride % (m + 1) * stride)[:, None] + stride * levels
        pos = np.searchsorted(keys, group)
        present = keys[np.minimum(pos, len(keys) - 1)] == group
        rest = tuple(d for d, i in zip(state.reg_dims, pin) if isinstance(i, slice))
        gathered = np.zeros(group.shape + rest, dtype=complex)
        gathered[present] = block[(pos[present],) + pin]
        gathered = np.ascontiguousarray(gathered.transpose(perm))
        shape = gathered.shape
        gathered = gathered.reshape(m, m + 1, -1)
        gathered[1:] = ts @ gathered[1:]
        gathered = gathered.reshape(shape).transpose(inverse)
        block[(pos[present],) + pin] = gathered[present]
        fresh = (gathered != 0.0).any(axis=tuple(range(2, gathered.ndim))) & ~present
        if fresh.any():
            rows = np.zeros((int(fresh.sum()),) + state.reg_dims, dtype=complex)
            rows[(slice(None),) + pin] = gathered[fresh]
            keys = np.concatenate([keys, group[fresh]])
            order = np.argsort(keys, kind="stable")
            state._set_rows(keys[order], np.concatenate([block, rows])[order])
    _apply_gate(state, np.conj(w.T), (out_reg,))


def _standard_query_coord(state: PurifiedState, out_reg: int, x_label=None, in_reg=None) -> None:
    """One coordinate of a parallel query against the purified standard oracle.

    For each queried input x (and pinned input level), the response register
    of every stored row whose value at x is h is shifted by h.  No row is
    added, so the stored rows stay those of the state before."""
    spec = state.domain.spec
    m = spec.order
    out_pos, targets = _query_targets(state, out_reg, x_label, in_reg)
    keys, block = state._rows()
    for oracle_axis, pin in targets:
        digits = keys // m ** (state.n_oracle - 1 - oracle_axis) % m
        for h in range(1, m):
            rows = (np.flatnonzero(digits == h),) + pin
            src = [spec.add(y, spec.neg(h)) for y in range(m)]
            block[rows] = np.take(block[rows], src, axis=1 + out_pos)


def _check_distinct(xs) -> None:
    if len(set(xs)) != len(xs):
        raise ValueError("parallel query inputs must be pairwise distinct")


def apply_parallel_query(state: _JointState, xs, out_regs) -> _JointState:
    """Apply the oracle of the state's picture, cO on a CompressedState or the
    standard oracle O on a PurifiedState, to the k pairwise-distinct inputs
    xs, with responses in the given group-valued registers; a new state."""
    xs, out_regs = tuple(xs), tuple(out_regs)
    _check_distinct(xs)
    if len(xs) != len(out_regs):
        raise ValueError("one response register per queried input is required")
    new = state.copy()
    _query(new, out_regs, xs, (None,) * len(xs))
    return new


def _query(state: _JointState, out_regs, xs, in_regs) -> None:
    """One parallel query in place: each coordinate (a classical input or an
    input register) with the kernel of the state's picture, then a prune."""
    coord = _compressed_query_coord if isinstance(state, CompressedState) else _standard_query_coord
    for out_reg, x, in_reg in zip(out_regs, xs, in_regs):
        coord(state, out_reg, x_label=x, in_reg=in_reg)
    state.prune()


# Adversary circuits


@dataclass(frozen=True)
class GateStep:
    matrix: np.ndarray
    regs: tuple


@dataclass(frozen=True)
class NamedGateStep:
    name: str  # fourier | prepare_uniform | prepare_dual | reflect_mean
    regs: tuple
    param: int = 0


@dataclass(frozen=True)
class PhaseFlipStep:
    regs: tuple
    predicate: object


@dataclass(frozen=True)
class QueryStep:
    out_regs: tuple
    xs: tuple | None = None      # classical query vector, or
    in_regs: tuple | None = None  # registers holding the query inputs


@dataclass(frozen=True)
class AdversaryCircuit:
    """A fixed-arity parallel-query oracle circuit.

    reg_dims lists the adversary registers; query steps must all have the same
    arity k.  output_regs name the registers measured as the final x-output.
    Each query step gives either classical inputs xs or input registers
    in_regs, one per response register; a malformed step or a register index
    outside reg_dims raises ValueError.
    """

    domain: OracleDomain
    reg_dims: tuple
    steps: tuple
    output_regs: tuple = ()
    y_output_regs: tuple | None = None

    def __post_init__(self):
        queries = [s for s in self.steps if isinstance(s, QueryStep)]
        if len({len(s.out_regs) for s in queries}) > 1:
            raise ValueError("query arity k must be constant across rounds")
        for s in queries:
            if (s.xs is None) == (s.in_regs is None):
                raise ValueError("a query step takes exactly one of xs and in_regs")
            if len(s.xs if s.xs is not None else s.in_regs) != len(s.out_regs):
                raise ValueError("a query step needs one input per response register")
            if set(s.in_regs or ()) & set(s.out_regs):
                raise ValueError("a query step's input and response registers must differ")
            if s.xs is not None:
                _check_distinct(s.xs)
        named = [self.output_regs, self.y_output_regs or ()]
        named += [(*s.out_regs, *(s.in_regs or ())) if isinstance(s, QueryStep) else getattr(s, "regs", ())
                  for s in self.steps]
        if not all(0 <= r < len(self.reg_dims) for regs in named for r in regs):
            raise ValueError("circuit names a register outside its reg_dims")

    @property
    def k(self) -> int:
        for s in self.steps:
            if isinstance(s, QueryStep):
                return len(s.out_regs)
        return 0

    @property
    def rounds(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, QueryStep))


def unitary_with_first_column(col: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion of a unit column vector."""
    dim = len(col)
    basis = [np.asarray(col, dtype=complex)]
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for b in basis:
            v = v - np.vdot(b, v) * b
        n = np.linalg.norm(v)
        if n > 1e-9:
            basis.append(v / n)
        if len(basis) == dim:
            break
    return np.stack(basis, axis=1)


def named_gate_matrix(name: str, dims, spec: GroupSpec, param: int = 0) -> np.ndarray:
    dim = 1
    for d in dims:
        dim *= d
    if name == "fourier":
        if dims != (spec.order,):
            raise ValueError("fourier gate acts on a single group register")
        return dual_transform(spec)
    if name == "prepare_uniform":
        return unitary_with_first_column(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))
    if name == "prepare_dual":
        if dims != (spec.order,):
            raise ValueError("prepare_dual acts on a single group register")
        col = np.conj(character_row(spec, param)) / math.sqrt(spec.order)
        return unitary_with_first_column(col)
    if name == "reflect_mean":
        u = np.full((dim, dim), 2.0 / dim, dtype=complex)
        return u - np.eye(dim)
    raise ValueError(f"unknown named gate {name!r}")


def _run_steps(state: _JointState, circuit: AdversaryCircuit) -> _JointState:
    for step in circuit.steps:
        if isinstance(step, GateStep):
            state.apply_register_unitary(np.asarray(step.matrix, dtype=complex), step.regs)
        elif isinstance(step, NamedGateStep):
            dims = tuple(circuit.reg_dims[r] for r in step.regs)
            state.apply_register_unitary(named_gate_matrix(step.name, dims, circuit.domain.spec, step.param), step.regs)
        elif isinstance(step, PhaseFlipStep):
            state.apply_phase_flip(step.regs, step.predicate)
        elif isinstance(step, QueryStep):
            unset = (None,) * len(step.out_regs)
            _query(state, step.out_regs, step.xs or unset, step.in_regs or unset)
        else:
            raise TypeError(f"unknown circuit step {step!r}")
    return state


def run_adversary(circuit: AdversaryCircuit, oracle: str = "compressed"):
    """Run the circuit against the chosen oracle and return the final state."""
    if oracle == "compressed":
        state: _JointState = initial_compressed_state(circuit.domain, circuit.reg_dims)
    elif oracle == "standard":
        state = initial_purified_state(circuit.domain, circuit.reg_dims)
    else:
        raise ValueError("oracle must be 'compressed' or 'standard'")
    return _run_steps(state, circuit)


def zhandry_gap_check(p: float, p_prime: float, ell: int, m: int) -> bool:
    """sqrt(p) <= sqrt(p') + sqrt(ell/M), with a 1e-12 slack."""
    if not (0.0 <= p <= 1.0 and 0.0 <= p_prime <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return math.sqrt(p) <= math.sqrt(p_prime) + math.sqrt(ell / m) + 1e-12


def relation_probabilities(circuit: AdversaryCircuit, relation, claimed=None):
    """Exact (p, p') for the gap statement of the compressed-oracle link.

    The adversary outputs the inputs x read from circuit.output_regs, plus
    either explicit response outputs (y_output_regs) or a claimed response
    vector computed from x.  p is the probability, against the purified
    standard oracle, that the true hashes match the output responses and the
    relation holds; p' is the same against the compressed oracle with the
    responses compared to the measured database.  A response outside the
    range group raises ValueError.

    Both come from one compressed run.  The compressed state is comp of the
    purified one and comp_matrix is an involution, so p scores each output
    input's value through comp_matrix; every other input keeps its compressed
    values, which carry the same probability because comp_matrix is unitary.
    """
    if not circuit.output_regs:
        raise ValueError("circuit must designate x output registers")
    if claimed is None and circuit.y_output_regs is None:
        raise ValueError("either claimed responses or y output registers are required")
    state = run_adversary(circuit, "compressed")
    columns = _output_columns(state, circuit, relation, claimed)
    spec = circuit.domain.spec
    p = _fold(state, columns, comp_matrix(spec)[: spec.order])
    p_prime = _fold(state, columns, _indicator(state))
    return p, p_prime


def _adversary_outputs(circuit: AdversaryCircuit, values, claimed):
    """The adversary's output (xs, labels, ys) in the register basis state
    values: x indices, their domain labels, and the responses, read from
    y_output_regs or computed by claimed(labels) and checked against the group."""
    xs = tuple(int(values[r]) for r in circuit.output_regs)
    labels = tuple(circuit.domain.inputs[x] for x in xs)
    if circuit.y_output_regs is not None:
        ys = tuple(int(values[r]) for r in circuit.y_output_regs)
    else:
        ys = tuple(claimed(labels))
    for y in ys:
        circuit.domain.spec.check_element(y)
    return xs, labels, ys


def _output_columns(state: _JointState, circuit: AdversaryCircuit, relation, claimed) -> dict:
    """The reached adversary basis states (flat indices) whose output
    satisfies the relation, grouped by the (input, response) pairs they pin.
    A basis state naming one input with two different responses pins none."""
    reached = state.adversary_marginal()
    columns = {}
    for j, values in enumerate(np.ndindex(state.reg_dims)):
        if reached[j] == 0.0:
            continue
        xs, labels, ys = _adversary_outputs(circuit, values, claimed)
        pinned = {}
        if all(pinned.setdefault(x, y) == y for x, y in zip(xs, ys)) and relation(labels, ys):
            columns.setdefault(tuple(pinned.items()), []).append(j)
    return columns


def _indicator(state: _JointState) -> np.ndarray:
    """Weights comparing a pinned response y with the oracle value directly."""
    return np.eye(state.domain.spec.order, state.oracle_dim)


def _fold(state: _JointState, columns: dict, weights: np.ndarray) -> float:
    """Success probability of the columns under per-row weights.

    For each group of columns pinning the same (x, y) pairs, every stored row
    is weighted by the product of weights[y, its value at x] over the pairs,
    the weighted rows that agree off the pinned inputs are added up, and the
    squared magnitudes are summed over the group's columns.  Indicator
    weights give the probability that the oracle holds y at every pinned x;
    comp_matrix rows give it for the purified oracle behind a compressed
    state."""
    keys, block = state._rows()
    amps = block.reshape(len(keys), math.prod(state.reg_dims))
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


def _success_probability(state: _JointState, circuit: AdversaryCircuit, relation, claimed) -> float:
    """Probability that the state's oracle maps each output input to its
    output response and the relation holds."""
    return _fold(state, _output_columns(state, circuit, relation, claimed), _indicator(state))


def run_adversary_fixed_function(circuit: AdversaryCircuit, table) -> PurifiedState:
    """Run the circuit against a fixed (classical) oracle function.

    table maps each domain input to a range value; the oracle register starts
    in the corresponding basis state instead of the uniform superposition."""
    m = circuit.domain.spec.order
    _check_budget((m,) * circuit.domain.size + circuit.reg_dims)
    oracle_index = tuple(circuit.domain.spec.check_element(table[x]) for x in circuit.domain.inputs)
    key = np.ravel_multi_index(oracle_index, (m,) * circuit.domain.size)
    return _run_steps(_basis_state(PurifiedState, circuit.domain, circuit.reg_dims, [key], 1.0), circuit)


def sampled_relation_probability(circuit: AdversaryCircuit, relation, claimed,
                                 shots: int, seed: int = 0) -> dict:
    """Monte-Carlo counterpart of the exact standard-oracle success: draw a
    fresh uniform function per shot, run the adversary against it, sample one
    output, and score the relation against the true hashes."""
    if not circuit.output_regs:
        raise ValueError("circuit must designate x output registers")
    rng = np.random.default_rng(seed)
    spec = circuit.domain.spec
    successes = 0
    for _ in range(shots):
        table = {x: int(rng.integers(spec.order)) for x in circuit.domain.inputs}
        state = run_adversary_fixed_function(circuit, table)
        marginal = state.adversary_marginal()
        drawn = int(rng.choice(len(marginal), p=marginal / marginal.sum()))
        _, labels, ys = _adversary_outputs(circuit, np.unravel_index(drawn, state.reg_dims), claimed)
        if all(table[x] == y for x, y in zip(labels, ys)) and relation(labels, ys):
            successes += 1
    return {"shots": shots, "successes": successes, "estimate": successes / shots}


def grover_preimage_circuit(domain: OracleDomain, rounds: int) -> AdversaryCircuit:
    """Amplitude-amplification adversary for the preimage-finding relation.

    Registers: one input register over X and one group-valued response
    register prepared in a non-neutral dual state for phase kickback.  For the
    bit group the kickback marks range values with character -1; marking a set
    and marking its complement differ only by a global phase, so the same
    circuit serves any single-target preimage relation.
    """
    spec = domain.spec
    kick = 1  # any non-neutral dual index works; 1 is the canonical choice
    steps = [
        NamedGateStep("prepare_uniform", (0,)),
        NamedGateStep("prepare_dual", (1,), param=kick),
    ]
    for _ in range(rounds):
        steps.append(QueryStep(out_regs=(1,), in_regs=(0,)))
        steps.append(NamedGateStep("reflect_mean", (0,)))
    return AdversaryCircuit(
        domain=domain,
        reg_dims=(domain.size, spec.order),
        steps=tuple(steps),
        output_regs=(0,),
    )
