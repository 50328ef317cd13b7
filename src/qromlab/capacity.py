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
from .oracle import Database, OracleDomain, sparse_encode
from .properties import (
    MASK_ROWS,
    WINDOW_DIM_BUDGET,
    DatabaseProperty,
    chain_local_family,
    collision_local_family,
    digit_rows,
    prmg_local_family,
    truth_table,
    value_dtype,
    window_tuples,
    window_view,
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
    """Every k-parallel query window, as the k-permutations of x_restrict (all
    inputs by default) in itertools order.

    Raises KeyError for a pool input outside the domain. Raises ValueError
    when the pool names an input twice, unless 1 <= k <= |pool|, and when the
    windows alone exceed the enumeration budget.
    """
    pool = tuple(domain.inputs if x_restrict is None else x_restrict)
    for x in pool:
        domain.index(x)
    if len(set(pool)) != len(pool):
        raise ValueError("the window pool names an input twice")
    if not 1 <= k <= len(pool):
        raise ValueError("parallelism must satisfy 1 <= k <= |X_restrict|")
    _check_budget(math.perm(len(pool), k))
    return list(itertools.permutations(pool, k))


def _check_budget(enumerated: int) -> None:
    if enumerated > ENUMERATION_BUDGET:
        raise ValueError("capacity enumeration exceeds the budget")


def window_exteriors(domain: OracleDomain, xs: tuple):
    """The values of all databases canonicalized to undefined on the window,
    enumerated in canonical value order on the remaining inputs."""
    window = {domain.index(x) for x in xs}
    ext, pinned = range(domain.spec.order + 1), (domain.spec.bot,)
    return itertools.product(*(pinned if i in window else ext for i in range(domain.size)))


def exterior_values(domain: OracleDomain, xs: tuple) -> np.ndarray:
    """window_exteriors of a window of distinct inputs as an int array, one row
    per exterior: the inputs outside the window count in mixed radix."""
    window = {domain.index(x) for x in xs}
    others = [i for i in range(domain.size) if i not in window]
    ext, dtype = domain.spec.order + 1, value_dtype(domain.spec)
    values = np.full((ext ** len(others), domain.size), domain.spec.bot, dtype=dtype)
    values[:, others] = digit_rows(np.arange(len(values)), ext, len(others), dtype)
    return values


def unique_rows(rows: np.ndarray) -> tuple:
    """(first, inverse) of np.unique(rows, axis=0, return_index=True,
    return_inverse=True) for a boolean matrix, keyed by each row's packed
    bytes.  packbits is MSB-first and void keys compare like memcmp, so the
    distinct rows rows[first] come out in the same order."""
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


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
    all exteriors of a window are decided in one batch and each distinct mask
    pair is normed once per yhat.
    """
    spec = domain.spec
    windows = query_windows(domain, k, x_restrict)
    if (spec.order + 1) ** k > WINDOW_DIM_BUDGET:
        raise ValueError("window dimension exceeds the exact-computation budget")
    _check_budget(len(windows) * spec.order ** k * (spec.order + 1) ** (domain.size - k))

    all_yhats = list(itertools.product(range(spec.order), repeat=k))
    dim = (spec.order + 1) ** k
    norms: dict = {}

    def block_norms(masks: np.ndarray) -> list:
        """Norms of the blocks of one (in_mask, out_mask) pair, one per yhat."""
        key = masks.tobytes()
        if key not in norms:
            norms[key] = [operator_norm(b) for b in window_blocks(spec, k, masks[:dim], masks[dim:])]
        return norms[key]

    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    best = 0.0
    best_key = None
    chunk = max(1, MASK_ROWS // dim)
    for xi, xs in enumerate(windows):
        window = np.concatenate([window_view(p_table, domain, xs),
                                 window_view(pprime_table, domain, xs)], axis=1)
        for start in range(0, len(window), chunk):
            masks = window[start:start + chunk]
            live = np.flatnonzero(masks[:, :dim].any(axis=1) & masks[:, dim:].any(axis=1))
            if not len(live):
                continue
            first, pair_of = unique_rows(masks[live])
            table = np.array([block_norms(pair) for pair in masks[live[first]]])
            # one event per (live exterior, yhat), in the order the per-row
            # enumeration visits them: exteriors outer, yhats inner
            events = table[pair_of].ravel()
            # An event moves the fold below only if it exceeds the running
            # best less 1e-12, and the running best never falls more than
            # 1e-12 below the largest value seen; skipping the events under
            # that maximum less 2e-12 therefore changes nothing.
            seen = np.maximum.accumulate(np.concatenate(([best], events)))[:-1]
            for e in np.flatnonzero(events > seen - 2e-12).tolist():
                i, y = divmod(e, len(all_yhats))
                value = float(events[e])
                # exteriors are enumerated in value order, so within one
                # window the row index orders them as their values would
                key = (xi, all_yhats[y], start + int(live[i]))
                if value > best + 1e-12 or (value > best - 1e-12 and (best_key is None or key < best_key)):
                    if value > best:
                        best = value
                    best_key = key
    best_witness = None
    if best_key is not None:
        best_xs = windows[best_key[0]]
        values = next(itertools.islice(window_exteriors(domain, best_xs), best_key[2], None))
        best_witness = {
            "xs": list(best_xs),
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
    with the 0/1 matrix of draws, reading both truth tables once.
    """
    spec = domain.spec
    windows = query_windows(domain, k, x_restrict)
    _check_budget(len(windows) * spec.order ** k * (spec.order + 1) ** domain.size)
    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    ext = spec.order + 1
    outcomes = float(spec.order) ** (window_tuples(spec, k) == spec.bot).sum(axis=1)
    best, best_at = 0.0, None
    for xi, xs in enumerate(windows):
        # hits[D] counts the draws for D's undefined window entries that land
        # in pprime: the product of pprime's window view with the k-fold
        # Kronecker power of the draw matrix a (a[w, r] = [w == r] for a
        # group value w, [r != bot] for w = bot), applied one axis at a time
        hits = window_view(pprime_table, domain, xs).reshape((-1,) + (ext,) * k).astype(np.int64)
        for axis in range(1, k + 1):
            undefined = (slice(None),) * axis + (spec.bot,)
            hits[undefined] = hits.sum(axis=axis) - hits[undefined]
        prob = np.where(window_view(p_table, domain, xs), hits.reshape(-1, ext ** k) / outcomes, 0.0)
        value = float(prob.max())
        if value < best or value == 0.0:
            continue
        # the first database, in canonical order, at which this window
        # attains its maximum: undo window_view's axis move on the hit mask
        at_max = (prob == value).reshape(p_table.shape)
        axes = [domain.index(x) for x in xs]
        first = int(np.argmax(np.moveaxis(at_max, range(domain.size - k, domain.size), axes)))
        # Distinct probabilities differ by at least M^-k, so the per-row
        # fold's first prob > best + 1e-15 is the first (database, window)
        # pair, databases outer, that attains the exact maximum.
        if value > best or (first, xi) < best_at:
            best, best_at, best_xs = value, (first, xi), xs
    best_witness = None
    if best_at is not None:
        values = np.unravel_index(best_at[0], p_table.shape)
        best_witness = {
            "xs": list(best_xs),
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


def _one_local_weight(lp) -> float:
    """P[U in L] under the strong-recognizability convention: trivial members
    (constant true or false) weigh zero."""
    if lp.locality > 1 and not lp.is_trivial:
        raise ValueError(f"{lp.name} is not 1-local")
    if lp.is_trivial:
        return 0.0
    return lp.uniform_probability()


def bound_thm_simple(families) -> float:
    """Strong-recognizability bound for 1-local families:
    max over families of sqrt(10 * sum_i P[U in L_i]), trivial members counting 0."""
    best = 0.0
    for fam in families:
        total = sum(_one_local_weight(lp) for lp in fam)
        best = max(best, math.sqrt(10.0 * total))
    return best


def bound_thm_tricky(families) -> float:
    """Weak-recognizability bound for 1-local families:
    max over families of e * sum_i sqrt(10 * P[U in L_i])."""
    best = 0.0
    for fam in families:
        total = 0.0
        for lp in fam:
            if lp.locality > 1:
                raise ValueError(f"{lp.name} is not 1-local")
            weight = 1.0 if (lp.is_constant_true and lp.locality == 0) else (
                lp.uniform_probability() if lp.locality == 1 else 0.0
            )
            total += math.sqrt(10.0 * weight)
        best = max(best, E * total)
    return best


def bound_thm_general(families) -> float:
    """Strong-recognizability bound for general l-local families:
    max over families of e*l*sqrt(10 * sum_t max_{x in Supp} max_{D'} P[U in L_t|_{D'|^x}]),
    restrictions that are trivial counting 0."""
    best = 0.0
    for fam in families:
        ell = fam.max_locality
        if ell == 0:
            continue
        total = 0.0
        for lp in fam:
            if lp.is_trivial:
                continue
            spec = lp.spec
            ext = range(spec.order + 1)
            worst = 0.0
            for x in lp.support:
                others = [s for s in lp.support if s != x]
                for values in itertools.product(ext, repeat=len(others)):
                    restricted = lp.restrict_at(x, dict(zip(others, values)))
                    if len(restricted) in (0, spec.order + 1):
                        continue  # trivial restriction convention
                    weight = sum(1 for v in restricted if v != spec.bot) / spec.order
                    worst = max(worst, weight)
            total += worst
        best = max(best, E * ell * math.sqrt(10.0 * total))
    return best


def recognizability_bound(theorem: str, pprime: DatabaseProperty, k: int, domain: OracleDomain,
                          x_restrict=None) -> float:
    """A recognizability bound (one of BOUND_THEOREMS) over all (window,
    exterior) pairs, with the canonical family of the target, which must be a
    bare PRMG, CL or CHN atom.

    A family depends on the exterior only through a few of its features (none
    for PRMG, the exterior's value set for CL, its support for CHN), and a
    bound is a maximum over families, so each distinct family is built and
    evaluated once.
    """
    if theorem not in BOUND_THEOREMS:
        raise ValueError(f"unknown bound source {theorem!r}")
    windows = query_windows(domain, k, x_restrict)
    kind, arg = pprime.atom or (None, None)
    bot = domain.spec.bot
    if kind == "PRMG":
        families = [prmg_local_family(xs, domain.spec, arg) for xs in windows]
    elif kind in ("CL", "CHN"):
        if kind == "CL":
            def feature(values):
                present = np.zeros((len(values), bot + 1), dtype=bool)
                np.put_along_axis(present, values.astype(np.intp), True, axis=1)
                return present[:, :bot]
            build = collision_local_family
        else:
            feature = lambda values: values != bot
            build = lambda db, xs: chain_local_family(db, xs, arg)
        families = []
        for xs in windows:
            exteriors = exterior_values(domain, xs)
            first, _ = unique_rows(feature(exteriors))
            families += [build(Database(domain, tuple(exteriors[i].tolist())), xs)
                         for i in np.sort(first)]
    else:
        raise ValueError(f"no canonical family for target {pprime.name!r}: "
                         "the bound needs a bare PRMG, CL or CHN target")
    # looked up at call time, so rebinding a module attribute reaches the call
    evaluate = (bound_thm_simple, bound_thm_tricky, bound_thm_general)
    return evaluate[BOUND_THEOREMS.index(theorem)](families)


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


class _CapacityCache:
    def __init__(self, domain: OracleDomain):
        self.domain = domain
        self._cache: dict = {}

    def __call__(self, p: DatabaseProperty, pprime: DatabaseProperty, k: int, x_restrict=None) -> float:
        key = (p.name, pprime.name, k, tuple(x_restrict) if x_restrict is not None else None)
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

    # Intersection and union rules.
    both = cap(p & q, pprime, k, xall)
    cp = cap(p, pprime, k, xall)
    cq = cap(q, pprime, k, xall)
    cunion = cap(p | q, pprime, k, xall)
    checks.append(CalculusCheck("shrink-intersection", both, min(cp, cq)))
    checks.append(CalculusCheck("shrink-union-lower", max(cp, cq), cunion))
    checks.append(CalculusCheck("shrink-union-upper", cunion, cp + cq))

    # Monotonicity under containment, on the guaranteed containment p <= p|q.
    checks.append(CalculusCheck("subset-monotone", cp, cap(p | q, pprime, k, xall)))
    checks.append(CalculusCheck("subset-monotone-mirrored", cap(pprime, p, k, xall),
                                cap(pprime, p | q, k, xall)))

    # Symmetry (exact equality, both directions of the inequality).
    fwd = cap(p, pprime, k, xall)
    bwd = cap(pprime, p, k, xall)
    checks.append(CalculusCheck("symmetry-forward", fwd, bwd))
    checks.append(CalculusCheck("symmetry-backward", bwd, fwd))

    # Parallel conditioning, single-split forms.
    lhs1 = cap(p, psecond, k, xall)
    checks.append(CalculusCheck(
        "split-target", lhs1,
        cap(p, psecond - q, k, xall) + cap(p, q & psecond, k, xall)))
    lhs2 = cap(p, q & psecond, k, xall)
    checks.append(CalculusCheck(
        "split-arity", lhs2,
        cap(p, ~q, k1, xall) + cap(p, q & pprime, k1, xall) + cap(q - pprime, q & psecond, k2, xall)))
    checks.append(CalculusCheck(
        "split-inputs", lhs2,
        cap(p, ~q, k, xs1) + cap(p, q & pprime, k, xs1) + cap(q - pprime, q & psecond, k, xs2)))

    # Recursive parallel conditioning with h = 2 stages; not-p0 = p & q
    # guarantees the containment the recursion needs.
    not_p0 = p & q
    p1, p2 = pprime, pprime | psecond
    lhs3 = cap(not_p0, p2, k, xall)
    checks.append(CalculusCheck(
        "parallel-conditioning-arity", lhs3,
        cap(not_p0, ~q, k1, xall) + cap(not_p0, ~q, k, xall)
        + cap(q - (~not_p0), q & p1, k1, xall) + cap(q - p1, q & p2, k2, xall)))
    checks.append(CalculusCheck(
        "parallel-conditioning-inputs", lhs3,
        cap(not_p0, ~q, k, xs1) + cap(not_p0, ~q, k, xall)
        + cap(q - (~not_p0), q & p1, k, xs1) + cap(q - p1, q & p2, k, xs2)))
    return checks
