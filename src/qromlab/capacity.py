"""Exact classical and quantum transition capacities on micro instances, the
multi-step bound, the recognizability bound evaluators, and numerical
verification of the capacity calculus.

The quantum capacity of a transition P -> P' at parallelism k is the maximum,
over query windows xs, dual response vectors yhats, and window exteriors D, of
the operator norm of (P'|_{D|xs}) Gamma(yhat_1) x ... x Gamma(yhat_k)
(P|_{D|xs}) on the (M+1)^k window space.  The classical capacity and the
recognizability bounds range over the same windows (query_windows).
Everything here is enumerated exhaustively; no sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, transition_matrix
from .oracle import Database, OracleDomain, check_product, sparse_encode
from .properties import (
    MASK_ROWS,
    WINDOW_DIM_BUDGET,
    DatabaseProperty,
    _around_window,
    canonical_family,
    truth_table,
    unique_rows,
    window_offsets,
    window_tuples,
)

E = math.e
ENUMERATION_BUDGET = 1 << 22
BOUND_THEOREMS = ("thm5.7", "thm5.9", "thm5.12")


@dataclass
class CapacityReport:
    """Exact capacity value with its first maximizing witness and an optional
    closed-form comparison bound."""

    value: float
    witness: dict | None = None
    bound: float | None = None
    bound_source: str | None = None
    kind: str = "quantum"

    @property
    def holds(self) -> bool | None:
        if self.bound is None:
            return None
        return self.value <= self.bound + 1e-9

    def as_record(self) -> dict:
        rec = {"kind": self.kind, "value": self.value}
        if self.witness is not None:
            rec["witness"] = self.witness
        if self.bound is not None:
            rec["bound"] = self.bound
            rec["bound_clamped"] = min(self.bound, 1.0)
            rec["bound_source"] = self.bound_source
            rec["holds"] = self.holds
        return rec


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value via the smaller Gram matrix: a^H a for a tall
    block, a a^H for a wide one."""
    if a.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T)
    return math.sqrt(max(float(eigs[-1]), 0.0))


def query_windows(domain: OracleDomain, k: int, x_restrict=None) -> list:
    """Every k-parallel query window, as the k-permutations of window_pool in
    itertools order."""
    return list(itertools.permutations(window_pool(domain, k, x_restrict), k))


def window_pool(domain: OracleDomain, k: int, x_restrict=None) -> tuple:
    """The inputs the k-parallel query windows are drawn from: x_restrict,
    all inputs by default.

    Raises KeyError for a pool input outside the domain.  Raises ValueError
    when the pool names an input twice, when k is outside 1..|pool|, and
    when the windows alone exceed the enumeration budget.
    """
    if x_restrict is None:
        pool = domain.inputs  # distinct inputs of the domain, by construction
    else:
        pool = tuple(x_restrict)
        for x in pool:
            domain.index(x)
        if len(set(pool)) != len(pool):
            raise ValueError("the window pool names an input twice")
    if not 1 <= k <= len(pool):
        raise ValueError("parallelism must satisfy 1 <= k <= |X_restrict|")
    _check_budget([math.perm(len(pool), k)])
    return pool


def _check_budget(factors) -> None:
    check_product(factors, ENUMERATION_BUDGET, ValueError("capacity enumeration exceeds the budget"))


def check_enumeration(pool: int, k: int, order: int, exterior: int) -> None:
    """Refuse a job that enumerates more than the budget: perm(pool, k)
    windows, each with order^k yhat tuples and (order + 1)^exterior
    exteriors.

    Only sizes are read, so a domain can be refused before it is built.  The
    product is refused at its first partial product above the budget
    (oracle.check_product), so (M+1)^|X| is never formed.  The exterior
    factors come first, so a pool too small for k (a zero factor, which
    window_pool refuses) cannot hide a domain over the budget."""
    # cap factors of 2 or more exceed the budget, so no run is taken longer
    cap = ENUMERATION_BUDGET.bit_length()
    _check_budget(itertools.chain(itertools.repeat(order + 1, min(exterior, cap)),
                                  itertools.repeat(order, min(k, cap)),
                                  range(pool, pool - min(k, cap), -1)))


def window_exteriors(domain: OracleDomain, xs: tuple):
    """The values of all databases undefined on the window xs, one value
    tuple per exterior, in canonical value order on the remaining inputs:
    the exteriors of properties.window_offsets."""
    # every value tuple of the other inputs, in canonical order
    rows = window_tuples(domain.spec, domain.size - len(xs))
    return map(tuple, map(np.ndarray.tolist, _around_window(domain, xs, rows)))


def permutation_invariant(*tables: np.ndarray) -> bool:
    """Whether every truth table is unchanged by every permutation of X,
    that is of its axes.  The transposition of the first two axes and the
    cycle through all of them generate Sym(X), so the two suffice.

    When both of a transition's tables pass, the permutation of X that maps
    one window onto another, and the other inputs in domain order onto each
    other, maps each (exterior, window tuple) cell of the one onto the same
    cell of the other: every window holds the first window's codes."""
    return all(t.ndim < 2 or (np.array_equal(t, t.swapaxes(0, 1))
                              and np.array_equal(t, np.moveaxis(t, 0, -1)))
               for t in tables)


def window_blocks(spec: GroupSpec, k: int, in_mask: np.ndarray, out_mask: np.ndarray):
    """The blocks [out_mask, in_mask] of Gamma(yhat_1) x ... x Gamma(yhat_k),
    yielded one per yhat tuple in itertools.product order.

    Entry [(o_1..o_k), (i_1..i_k)] of the Kronecker product is the product of
    the factors' [o_j, i_j] entries, so each block is gathered from its
    factors and multiplied left to right, in the order np.kron multiplies.
    The (M+1)^k x (M+1)^k product is never formed, and only the partial
    products of the current yhat tuple are kept.
    """
    shape = (spec.order + 1,) * k
    ins = np.unravel_index(np.flatnonzero(in_mask), shape)
    outs = np.unravel_index(np.flatnonzero(out_mask), shape)
    factors = [transition_matrix(spec, yh) for yh in range(spec.order)]

    def blocks(j, prefix):
        # prefix: the product of the first j gathered factors, None for j = 0
        for t in factors:
            gathered = t[np.ix_(outs[j], ins[j])]
            block = gathered if prefix is None else prefix * gathered
            if j + 1 == k:
                yield block
            else:
                yield from blocks(j + 1, block)
    return blocks(0, None)


def quantum_capacity_exact(p: DatabaseProperty, pprime: DatabaseProperty, k: int,
                           domain: OracleDomain, x_restrict=None) -> CapacityReport:
    """Exact one-round quantum transition capacity by full enumeration.

    Returns the maximum operator norm together with the lexicographically first
    witness (xs, yhats, exterior database) attaining it.  The block of an
    exterior depends on it only through its two window masks, so the masks of
    every (window, exterior) row are gathered from the two truth tables through
    one index (properties.window_offsets), about MASK_ROWS mask entries per
    batch, and each distinct mask pair is normed once per yhat.  Each batch is
    folded into the running maximum as soon as it is normed.  When both
    tables are invariant under permutations of X (permutation_invariant),
    every window has the first window's events, so only the pool's first
    window is decided; otherwise every window is.
    """
    spec = domain.spec
    pool = window_pool(domain, k, x_restrict)
    if (spec.order + 1) ** k > WINDOW_DIM_BUDGET:
        raise ValueError("window dimension exceeds the exact-computation budget")
    # refused from the pool size, before a window is listed
    check_enumeration(len(pool), k, spec.order, domain.size - k)
    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    windows = itertools.permutations([domain.index(x) for x in pool], k)
    if permutation_invariant(p_table, pprime_table):
        # every window has the first one's events, and the first window's
        # keys are the smallest, so the fold never leaves it
        windows = itertools.islice(windows, 1)
    positions = np.array(list(windows), dtype=np.intp)

    all_yhats = list(itertools.product(range(spec.order), repeat=k))
    dim = (spec.order + 1) ** k
    norms: dict = {}

    def block_norms(masks: np.ndarray) -> np.ndarray:
        """Norms of the blocks of one (in_mask, out_mask) pair, one per yhat."""
        key = masks.tobytes()
        if key not in norms:
            blocks = window_blocks(spec, k, masks[:dim], masks[dim:])
            norms[key] = np.array([operator_norm(b) for b in blocks])
        return norms[key]

    # bit 0 of a database's code decides p, bit 1 decides pprime
    codes = p_table.ravel().view(np.uint8) | pprime_table.ravel().view(np.uint8) << 1
    index, cols = window_offsets(domain, positions)
    exteriors = index.shape[1]
    # a batch is a run of rows in enumeration order, row w * exteriors + e
    # holding exterior e of window w
    rows = max(1, MASK_ROWS // dim)
    best, best_key = 0.0, None
    for start in range(0, index.size, rows):
        w, e = np.divmod(np.arange(start, min(start + rows, index.size)), exteriors)
        # codes by (row, window tuple); the OR over the tuples has both bits
        # set exactly on the live rows
        batch = np.take(codes, index[w, e][:, None] + cols[w])
        live = np.flatnonzero(np.bitwise_or.reduce(batch, axis=1) == 3)
        if not len(live):
            continue
        w, e, batch = w[live], e[live], batch[live]
        masks = np.concatenate([(batch & 1).view(bool), (batch >> 1).view(bool)], axis=1)
        first, pair_of = unique_rows(masks)
        table = np.array([block_norms(pair) for pair in masks[first]])
        peak = float(table.max())
        # one event per (live row, yhat), in the per-row enumeration's order:
        # windows, exteriors, yhats
        events = table[pair_of].ravel()
        # An event moves the fold only if it exceeds the running best less
        # 1e-12, and the running best never falls more than 1e-12 below the
        # largest value seen; skipping the events under that maximum less
        # 2e-12 therefore changes nothing.
        seen = np.maximum.accumulate(np.concatenate(([best], events)))[:-1]
        for i in np.flatnonzero(events > seen - 2e-12).tolist():
            row, y = divmod(i, len(all_yhats))
            xi = int(w[row])
            # No event of the batch exceeds peak, so once peak <= best + 1e-12
            # none passes the first test below; an event of a later window
            # than best_key's has a larger key and fails the second, and so
            # does every later event of the batch.  The batch is done.
            if best_key is not None and xi > best_key[0] and peak <= best + 1e-12:
                break
            value = float(events[i])
            # exteriors are enumerated in value order, so within one
            # window the row index orders them as their values would
            key = (xi, all_yhats[y], int(e[row]))
            if value > best + 1e-12 or (value > best - 1e-12 and (best_key is None or key < best_key)):
                if value > best:
                    best = value
                best_key = key
    best_witness = None
    if best_key is not None:
        best_xs = [domain.inputs[i] for i in positions[best_key[0]].tolist()]
        values = next(itertools.islice(window_exteriors(domain, tuple(best_xs)), best_key[2], None))
        best_witness = {
            "xs": best_xs,
            "yhats": list(best_key[1]),
            "database": sparse_encode(Database(domain, values)),
        }
    return CapacityReport(value=best, witness=best_witness, kind="quantum")


def classical_capacity_exact(p: DatabaseProperty, pprime: DatabaseProperty, k: int,
                             domain: OracleDomain, x_restrict=None) -> CapacityReport:
    """Exact one-round classical transition capacity.

    Maximizes, over databases satisfying p and distinct query vectors, the
    probability that uniformly resampling the window's fresh coordinates lands
    in pprime (already-defined coordinates keep their values).  Per window,
    the hit counts of all databases are one product of pprime's window view
    with the 0/1 matrix of draws, reading both truth tables once through one
    index of every window (properties.window_offsets).  When both tables are
    invariant under permutations of X (permutation_invariant), every window
    has the first window's probabilities, so only the first is evaluated,
    and the witness window is the one whose smallest maximising cell comes
    first.
    """
    spec = domain.spec
    pool = window_pool(domain, k, x_restrict)
    check_enumeration(len(pool), k, spec.order, domain.size)
    windows = query_windows(domain, k, pool)
    index, cols = window_offsets(domain, np.array([[domain.index(x) for x in xs] for xs in windows],
                                                  dtype=np.intp))
    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    p_flat, pprime_flat = p_table.ravel(), pprime_table.ravel()
    symmetric = permutation_invariant(p_table, pprime_table)
    ext = spec.order + 1
    outcomes = float(spec.order) ** (window_tuples(spec, k) == spec.bot).sum(axis=1)
    # the draw matrix a (a[w, r] = [w == r] for a group value w, [r != bot]
    # for w = bot), transposed
    a_t = np.eye(ext)
    a_t[:spec.bot, spec.bot] = 1.0
    a_t[spec.bot, spec.bot] = 0.0
    best, best_at = 0.0, None
    for xi in range(1 if symmetric else len(windows)):
        # the flat table cell of each (exterior, window tuple) of the window
        cells = index[xi][:, None] + cols[xi]
        # hits[D] counts the draws for D's undefined window entries that land
        # in pprime: pprime's window view times the k-fold Kronecker power of
        # a, never formed.  Each pass applies a to the last window axis and
        # rotates that axis to the front, so k passes restore the axis order.
        # The counts are small integers, so each float product is exact.
        hits = pprime_flat[cells].astype(np.float64)
        for _ in range(k):
            hits = (hits.reshape(-1, ext) @ a_t).reshape(len(cells), -1, ext).transpose(0, 2, 1)
        hits = hits.reshape(len(cells), -1)
        prob = np.where(p_flat[cells], hits / outcomes, 0.0)
        value = float(prob.max())
        if value < best or value == 0.0:
            continue
        # the windows whose cells hold this window's probabilities, and per
        # window the first database, in canonical order, at which it attains
        # the maximum: its smallest maximising flat cell
        lo, hi = (0, len(windows)) if symmetric else (xi, xi + 1)
        e, j = np.nonzero(prob == value)
        firsts = (index[lo:hi, e] + cols[lo:hi, j]).min(axis=1)
        at = int(firsts.argmin())
        found = (int(firsts[at]), lo + at)
        # Distinct probabilities differ by at least M^-k, so the per-row
        # fold's first prob > best + 1e-15 is the first (database, window)
        # pair, databases outer, that attains the exact maximum.
        if value > best or found < best_at:
            best, best_at = value, found
    best_witness = None
    if best_at is not None:
        values = np.unravel_index(best_at[0], (ext,) * domain.size)
        best_witness = {
            "xs": list(windows[best_at[1]]),
            "database": sparse_encode(Database(domain, tuple(int(v) for v in values))),
        }
    return CapacityReport(value=best, witness=best_witness, kind="classical")


def multi_step_bound(step_capacities) -> float:
    """The multi-round capacity bound: the sum of per-round capacities."""
    total = 0.0
    for c in step_capacities:
        if c < 0:
            raise ValueError("capacities are nonnegative")
        total += c
    return total


def bound_thm_simple(families) -> float:
    """Strong-recognizability bound for 1-local families:
    max over families of sqrt(10 * sum_i w_i), w_i the weight of member i
    (LocalProperty.weight), trivial members of any locality weighing 0."""
    best = 0.0
    for fam in families:
        for lp in fam:
            if lp.locality > 1 and not lp.is_trivial:
                raise ValueError(f"{lp.name} is not 1-local")
        best = max(best, math.sqrt(10.0 * sum(lp.weight for lp in fam)))
    return best


def bound_thm_tricky(families) -> float:
    """Weak-recognizability bound for 1-local families:
    max over families of e * sum_i sqrt(10 * w_i), w_i the weight of member i
    and 1 for a constant-true member."""
    best = 0.0
    for fam in families:
        total = 0.0
        for lp in fam:
            if lp.locality > 1:
                raise ValueError(f"{lp.name} is not 1-local")
            total += math.sqrt(10.0 * (1.0 if lp.is_constant_true else lp.weight))
        best = max(best, E * total)
    return best


def bound_thm_general(families) -> float:
    """Strong-recognizability bound for general l-local families:
    max over families with l >= 1 of e * l * sqrt(10 * sum_t w_t), w_t the
    weight of member t, max_{x in Supp} max_{D'} P[U in L_t|_{D'|^x}]."""
    best = 0.0
    for fam in families:
        ell = fam.max_locality
        if ell == 0:
            continue
        best = max(best, E * ell * math.sqrt(10.0 * sum(lp.weight for lp in fam)))
    return best


def recognizability_bound(theorem: str, pprime: DatabaseProperty, k: int, domain: OracleDomain,
                          x_restrict=None) -> float:
    """A recognizability bound (one of BOUND_THEOREMS) over all (window,
    exterior) pairs, with the canonical families of the target.

    A bound is a maximum over families, so it evaluates the one family that
    attains it: properties.canonical_family, at the exterior that outweighs
    every other, in the first window of the pool.  Each theorem's maximum is
    the same float in every window.  Every k-input window has the same
    exteriors.  A PRMG or CL family of another window differs only in the
    input names of its supports, which neither LocalProperty.weight nor
    locality reads.  A CHN family's value set V grows with its anchors (the
    exterior's support and the window), and the exterior defined on every
    other input anchors it on the whole domain in every window.
    """
    if theorem not in BOUND_THEOREMS:
        raise ValueError(f"unknown bound source {theorem!r}")
    family = canonical_family(pprime, domain, window_pool(domain, k, x_restrict)[:k])
    # looked up at call time, so rebinding a module attribute reaches the call
    evaluate = (bound_thm_simple, bound_thm_tricky, bound_thm_general)
    return evaluate[BOUND_THEOREMS.index(theorem)]([family])


# Capacity calculus verification


@dataclass
class CalculusCheck:
    rule: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9

    def as_record(self) -> dict:
        return {"rule": self.rule, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "holds": self.holds}


def _property_key(p: DatabaseProperty):
    """A bare atom is decided by its name and atom, any other property by the
    object itself: a name alone is not (every custom chain is rel=custom)."""
    return p if p.atom is None else (p.name, p.atom)


class _CapacityCache:
    def __init__(self, domain: OracleDomain):
        self.domain = domain
        self._cache: dict = {}

    def __call__(self, p: DatabaseProperty, pprime: DatabaseProperty, k: int, x_restrict=None) -> float:
        key = (_property_key(p), _property_key(pprime), k,
               tuple(x_restrict) if x_restrict is not None else None)
        if key not in self._cache:
            self._cache[key] = quantum_capacity_exact(p, pprime, k, self.domain, x_restrict).value
        return self._cache[key]


def verify_calculus(p: DatabaseProperty, pprime: DatabaseProperty, q: DatabaseProperty,
                    k: int, k_split: tuple, x_split: tuple, domain: OracleDomain,
                    psecond: DatabaseProperty | None = None) -> list:
    """Compute every capacity on both sides of the calculus inequalities exactly
    and report lhs/rhs/slack per rule.

    k_split is (k', k'') with k' + k'' = k; x_split is (X', X'') with X' u X''
    covering the inputs used.  psecond defaults to pprime.
    """
    if psecond is None:
        psecond = pprime
    k1, k2 = k_split
    if k1 + k2 != k or k1 < 1 or k2 < 1:
        raise ValueError("k_split must be two positive parts summing to k")
    xs1, xs2 = tuple(x_split[0]), tuple(x_split[1])
    xall = tuple(dict.fromkeys(xs1 + xs2))
    cap = _CapacityCache(domain)
    checks = []
    # each composed property is built once, so a term that recurs hits the cache
    p_and_q, p_or_q, not_q = p & q, p | q, ~q
    q_pprime = q & pprime
    q_psecond = q_pprime if psecond is pprime else q & psecond
    q_minus_pprime = q - pprime

    # Intersection and union rules.
    both = cap(p_and_q, pprime, k, xall)
    cp = cap(p, pprime, k, xall)
    cq = cap(q, pprime, k, xall)
    cunion = cap(p_or_q, pprime, k, xall)
    checks.append(CalculusCheck("shrink-intersection", both, min(cp, cq)))
    checks.append(CalculusCheck("shrink-union-lower", max(cp, cq), cunion))
    checks.append(CalculusCheck("shrink-union-upper", cunion, cp + cq))

    # Monotonicity under containment, on the guaranteed containment p <= p|q.
    checks.append(CalculusCheck("subset-monotone", cp, cap(p_or_q, pprime, k, xall)))
    checks.append(CalculusCheck("subset-monotone-mirrored", cap(pprime, p, k, xall),
                                cap(pprime, p_or_q, k, xall)))

    # Symmetry (exact equality, both directions of the inequality).
    fwd = cap(p, pprime, k, xall)
    bwd = cap(pprime, p, k, xall)
    checks.append(CalculusCheck("symmetry-forward", fwd, bwd))
    checks.append(CalculusCheck("symmetry-backward", bwd, fwd))

    # Parallel conditioning, single-split forms.
    lhs1 = cap(p, psecond, k, xall)
    checks.append(CalculusCheck(
        "split-target", lhs1,
        cap(p, psecond - q, k, xall) + cap(p, q_psecond, k, xall)))
    lhs2 = cap(p, q_psecond, k, xall)
    checks.append(CalculusCheck(
        "split-arity", lhs2,
        cap(p, not_q, k1, xall) + cap(p, q_pprime, k1, xall) + cap(q_minus_pprime, q_psecond, k2, xall)))
    checks.append(CalculusCheck(
        "split-inputs", lhs2,
        cap(p, not_q, k, xs1) + cap(p, q_pprime, k, xs1) + cap(q_minus_pprime, q_psecond, k, xs2)))

    # Recursive parallel conditioning with h = 2 stages, p1 = pprime and
    # p2 = pprime | psecond; not-p0 = p & q guarantees the containment the
    # recursion needs.
    not_p0, p2 = p_and_q, pprime | psecond
    q_p2, q_minus_p0 = q & p2, q - (~not_p0)
    lhs3 = cap(not_p0, p2, k, xall)
    checks.append(CalculusCheck(
        "parallel-conditioning-arity", lhs3,
        cap(not_p0, not_q, k1, xall) + cap(not_p0, not_q, k, xall)
        + cap(q_minus_p0, q_pprime, k1, xall) + cap(q_minus_pprime, q_p2, k2, xall)))
    checks.append(CalculusCheck(
        "parallel-conditioning-inputs", lhs3,
        cap(not_p0, not_q, k, xs1) + cap(not_p0, not_q, k, xall)
        + cap(q_minus_p0, q_pprime, k, xs1) + cap(q_minus_pprime, q_p2, k, xs2)))
    return checks
