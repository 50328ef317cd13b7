"""Finite abelian range groups, their dual characters, and the compressed-oracle
single-register transition matrix.

The range of the oracle is a finite abelian group Y of order M, extended by a
distinguished "undefined" symbol BOT.  Two group kinds are supported: the bit
group Z_2^m (real characters, the common case) and the cyclic group Z_M
(complex characters).  All matrices and vectors over Y-bar use the canonical
basis order (0, 1, ..., M-1, BOT), i.e. BOT is always the last index, M.

Every character value comes from one table per group, character_table, and
the single-register query is built from its definition: the standard oracle's
phase yhat seen through compression, T_yhat = Comp @ diag(yhat, 1) @ Comp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

BITS = "bits"
CYCLIC = "cyclic"


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Y with |Y| = order, addressed by indices 0..order-1."""

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in (BITS, CYCLIC):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.order < 2:
            raise ValueError("group order must be at least 2")
        if self.kind == BITS and self.order & (self.order - 1):
            raise ValueError("bit group order must be a power of two")

    @classmethod
    def bits(cls, m: int) -> "GroupSpec":
        return cls(BITS, 1 << m)

    @classmethod
    def cyclic(cls, order: int) -> "GroupSpec":
        return cls(CYCLIC, order)

    @property
    def bot(self) -> int:
        """Index encoding the undefined symbol; always last in basis order."""
        return self.order

    @property
    def nbits(self) -> int:
        return (self.order - 1).bit_length()

    def elements(self) -> range:
        return range(self.order)

    def extended(self) -> range:
        """Y-bar: group elements followed by BOT."""
        return range(self.order + 1)

    def add(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        if self.kind == BITS:
            return a ^ b
        return (a + b) % self.order

    def neg(self, a: int) -> int:
        self.check_element(a)
        if self.kind == BITS:
            return a
        return (-a) % self.order

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for order {self.order}")
        return a

    def check_extended(self, a: int) -> int:
        if not 0 <= a <= self.order:
            raise ValueError(f"extended index {a} out of range for order {self.order}")
        return a


@lru_cache(maxsize=None)
def character_table(spec: GroupSpec) -> np.ndarray:
    """The M x M dual characters, entry [yhat, y] = yhat(y), row 0 neutral:
    (-1)^popcount(yhat & y) for the bit group (the Sylvester-order Kronecker
    power of [[1, 1], [1, -1]]), exp(2*pi*i*yhat*y/M) for the cyclic group.
    Cached per spec; the returned array is read-only."""
    if spec.kind == BITS:
        sylvester = np.array([[1.0, 1.0], [1.0, -1.0]])
        table = reduce(np.kron, [sylvester] * spec.nbits, np.ones((1, 1))).astype(complex)
    else:
        # a real phase: dividing a complex array by M rounds its last bit differently
        y = np.arange(spec.order)
        table = np.exp(1j * (2 * math.pi * (np.outer(y, y) % spec.order) / spec.order))
    table.setflags(write=False)
    return table


def character(spec: GroupSpec, yhat: int, y: int) -> complex:
    """Evaluate the dual character yhat at the group element y."""
    spec.check_element(yhat)
    spec.check_element(y)
    return complex(character_table(spec)[yhat, y])


def character_row(spec: GroupSpec, yhat: int) -> np.ndarray:
    """Vector of yhat(y) over all y in Y (read-only)."""
    spec.check_element(yhat)
    return character_table(spec)[yhat]


@lru_cache(maxsize=None)
def transition_matrix(spec: GroupSpec, yhat: int) -> np.ndarray:
    """The (M+1)x(M+1) unitary of one compressed-oracle query at a single
    database register for response Fourier component yhat:
    Comp @ diag(yhat, 1) @ Comp.  Entry [u, r] is the amplitude from value r
    to value u; exactly the identity at the neutral character.  Cached; the
    returned array is read-only."""
    spec.check_element(yhat)
    if yhat == 0:
        out = np.eye(spec.order + 1, dtype=complex)
    else:
        c = comp_matrix(spec)
        out = (c * np.append(character_table(spec)[yhat], 1.0)) @ c
    out.setflags(write=False)
    return out


def comp_matrix(spec: GroupSpec) -> np.ndarray:
    """Single-register compression unitary in the computational basis.

    Swaps the neutral Fourier vector with BOT and fixes every other Fourier
    vector; real, symmetric, and an involution for every finite abelian group.
    """
    m = spec.order
    c = np.full((m + 1, m + 1), -1.0 / m)
    np.fill_diagonal(c, 1.0 - 1.0 / m)
    c[m, :] = 1.0 / math.sqrt(m)
    c[:, m] = 1.0 / math.sqrt(m)
    c[m, m] = 0.0
    return c


def dual_transform(spec: GroupSpec) -> np.ndarray:
    """M x M unitary taking computational-basis amplitudes to dual-basis ones.

    W[yhat, y] = yhat(y)/sqrt(M), so psi_hat = W @ psi.
    """
    return character_table(spec) / math.sqrt(spec.order)


def tilde_prob(spec: GroupSpec, r: int, yhat: int, subset) -> float:
    """P-tilde[U in S | r, yhat]: squared transition amplitudes into S from r."""
    spec.check_extended(r)
    g = transition_matrix(spec, yhat)
    total = 0.0
    for u in subset:
        spec.check_extended(u)
        total += abs(g[u, r]) ** 2
    return total


def connection_bound_check(spec: GroupSpec, subset, yhat: int) -> dict:
    """Check sum_r P-tilde[r != U in L | r, yhat] <= 10 |L| / M for L inside Y.

    Returns a record with both sides of the inequality; BOT may not be in L.
    """
    members = sorted(subset)
    for u in members:
        if u == spec.bot:
            raise ValueError("connection bound is defined for subsets of Y only")
        spec.check_element(u)
    g = transition_matrix(spec, yhat)
    lhs = 0.0
    for r in spec.extended():
        lhs += sum(abs(g[u, r]) ** 2 for u in members if u != r)
    rhs = 10.0 * len(members) / spec.order
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def format_matrix(matrix: np.ndarray, digits: int = 4) -> str:
    """Aligned decimal table of a small complex matrix, for docs and tests."""
    def fmt(z: complex) -> str:
        if abs(z.imag) < 1e-12:
            return f"{z.real:+.{digits}f}"
        return f"{z.real:+.{digits}f}{z.imag:+.{digits}f}i"

    rows = [" ".join(fmt(z) for z in row) for row in np.asarray(matrix)]
    return "\n".join(rows)
