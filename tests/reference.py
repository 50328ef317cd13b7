"""Reference helpers that several test modules share and no command runs.

Each is a direct, per-database, per-window or axis-moving form of something
the package computes another way, kept here to check that way against:
window views by moved axes against the flat window index, restrictions and
projectors per Database, the compressed state's database readout, and the
recognizability bound over one family per (window, exterior) pair.
"""

import itertools

import numpy as np

from qromlab import capacity
from qromlab.groups import GroupSpec
from qromlab.oracle import CompressedState, Database, OracleDomain, _JointState, _matching_mass, _output_columns
from qromlab.properties import (
    WINDOW_DIM_BUDGET,
    DatabaseProperty,
    _around_window,
    _distinct_window,
    _window_sides,
    chain_local_family,
    collision_local_family,
    digit_rows,
    prmg_local_family,
    value_dtype,
)


def window_view(table: np.ndarray, domain: OracleDomain, xs) -> np.ndarray:
    """A table over the databases, shape (M+1,)*|X|, read as one row per
    exterior of the window xs and one column per window tuple.

    Rows come in exterior_values order and columns in window_tuples order:
    entry [i, j] of the view of truth_table(p) decides exterior i with the
    window set to tuple j, the restriction p|_{D|xs} at that exterior.
    """
    xs = _distinct_window(xs)
    ext, k = domain.spec.order + 1, len(xs)
    moved = np.moveaxis(table, [domain.index(x) for x in xs], range(table.ndim - k, table.ndim))
    return moved.reshape(ext ** (table.ndim - k), ext ** k)


def exterior_values(domain: OracleDomain, xs) -> np.ndarray:
    """The values of all databases undefined on the window xs, one row per
    exterior, in canonical value order on the remaining inputs: the rows of
    window_view."""
    ext, width = domain.spec.order + 1, domain.size - len(_distinct_window(xs))
    return _around_window(domain, xs, digit_rows(np.arange(ext ** width), ext, width, value_dtype(domain.spec)))


def restrict(p: DatabaseProperty, db: Database, xs) -> frozenset:
    """The restriction of p to the query window xs at exterior db, as the set of
    response tuples r with db[xs -> r] in p."""
    _, window, (mask,) = _window_sides(db, xs, p)
    return frozenset(itertools.compress(window, mask))


def projector(restricted: frozenset, k: int, spec: GroupSpec) -> np.ndarray:
    """Diagonal 0/1 projector on the (M+1)^k-dimensional window space, in the
    canonical mixed-radix basis order with the undefined index last."""
    ext = spec.order + 1
    if ext ** k > WINDOW_DIM_BUDGET:
        raise ValueError("projector dimension exceeds the dense-space budget")
    diag = np.zeros(ext ** k)
    if restricted:
        # rejects, as check_extended does, any value outside 0..M
        diag[np.ravel_multi_index(np.array(list(restricted)).T, (ext,) * k)] = 1.0
    return np.diag(diag)


def support_size(db: Database) -> int:
    bot = db.domain.spec.bot
    return sum(1 for v in db.values if v != bot)


def _database_marginal(state: CompressedState):
    """(oracle values, probability) of each stored row."""
    probs = (np.abs(state.block) ** 2).sum(axis=tuple(range(1, state.block.ndim)))
    return state._row_digits(state.keys), probs


def database_distribution(state: CompressedState) -> dict:
    digits, probs = _database_marginal(state)
    return {Database(state.domain, tuple(values)): float(p)
            for values, p in zip(digits.tolist(), probs) if p > 0.0}


def max_support_size(state: CompressedState) -> int:
    digits, probs = _database_marginal(state)
    defined = (digits != state.domain.spec.bot).sum(axis=1)
    return int(defined[probs > 0.0].max(initial=0))


def success_probability(state: _JointState, circuit, relation, claimed) -> float:
    """Probability that the state's oracle maps each output input to its
    output response and the relation holds."""
    return _matching_mass(state, _output_columns(state, circuit, relation, claimed))


def per_exterior_families(pprime: DatabaseProperty, domain: OracleDomain, xs) -> list:
    """One canonical family of the bare PRMG, CL or CHN target pprime per
    exterior of the window xs."""
    kind, arg = pprime.atom
    families = []
    for values in capacity.window_exteriors(domain, xs):
        db = Database(domain, values)
        if kind == "PRMG":
            families.append(prmg_local_family(xs, domain.spec, arg))
        elif kind == "CHN":
            families.append(chain_local_family(db, xs, arg))
        else:
            families.append(collision_local_family(db, xs))
    return families


def per_pair_bound(theorem: str, pprime: DatabaseProperty, k: int, domain: OracleDomain,
                   x_restrict=None) -> float:
    """The recognizability bound over one canonical family per (window,
    exterior) pair, every query window of the pool read."""
    families = [fam for xs in capacity.query_windows(domain, k, x_restrict)
                for fam in per_exterior_families(pprime, domain, xs)]
    evaluate = (capacity.bound_thm_simple, capacity.bound_thm_tricky, capacity.bound_thm_general)
    return evaluate[capacity.BOUND_THEOREMS.index(theorem)](families)
