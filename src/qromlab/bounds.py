"""Closed-form success-probability bounds for the end-to-end hardness problems.

Each evaluator implements the explicit pre-asymptotic expression; the O(.)
forms appear only in consistency sweeps in the tests.  Values are clamped to
[0, 1] for reporting; the raw formula value is available via clamp=False.
"""

from __future__ import annotations

import math
import sys

E = math.e
FLOAT_EXP_MAX = sys.float_info.max_exp - 1  # the largest e with 2.0 ** e finite


def _finish(raw: float, clamp: bool) -> float:
    return min(raw, 1.0) if clamp else raw


def preimage_bound(q: int, k: int, m: int, clamp: bool = True) -> float:
    """(q sqrt(10k/M) + 1/sqrt(M))^2: k-parallel q-query preimage finding."""
    _check(q=q, k=k, m=m)
    root = q * math.sqrt(10.0 * k / m) + 1.0 / math.sqrt(m)
    return _finish(root * root, clamp)


def collision_bound(q: int, k: int, m: int, clamp: bool = True) -> float:
    """(2(q+1)ek sqrt(10(q+1)/M) + sqrt(2/M))^2: k-parallel q-query collision finding."""
    _check(q=q, k=k, m=m)
    root = 2.0 * (q + 1) * E * k * math.sqrt(10.0 * (q + 1) / m) + math.sqrt(2.0 / m)
    return _finish(root * root, clamp)


def gencol_bound(q: int, k: int, m: int, gamma: int, clamp: bool = True) -> float:
    """(2(q+1)ek sqrt(10*Gamma*(q+1)/M) + 2/sqrt(M))^2: collisions under an
    output function f with fan-in Gamma."""
    _check(q=q, k=k, m=m, gamma=gamma)
    root = 2.0 * (q + 1) * E * k * math.sqrt(10.0 * gamma * (q + 1) / m) + 2.0 / math.sqrt(m)
    return _finish(root * root, clamp)


def chain_bound(q: int, k: int, m: int, t: int, clamp: bool = True) -> float:
    """(qke sqrt(10qkT/M) + e(q+2) sqrt(10T(q+2)/M) + sqrt((q+2)/M))^2:
    producing a (q+1)-chain with q k-parallel queries, link fan-in T."""
    _check(q=q, k=k, m=m, t=t)
    root = (
        q * k * E * math.sqrt(10.0 * q * k * t / m)
        + E * (q + 2) * math.sqrt(10.0 * t * (q + 2) / m)
        + math.sqrt((q + 2) / m)
    )
    return _finish(root * root, clamp)


def posw_sqrt_step(q: int, k: int, w: int, n: int) -> tuple:
    """The two per-round capacity terms of the sequential-work analysis that do
    not depend on the challenge count, (term_col, term_chain), at range size
    2^w and tree depth n.  posw_bound adds the third, challenge term itself."""
    mw = 2.0 ** w
    term_col = 4.0 * E * k * math.sqrt(10.0 * (q + 1) / mw)
    term_chain = 3.0 * E * k * math.sqrt(10.0 * k * q * n / mw)
    return term_col, term_chain


def posw_bound(q: int, k: int, w: int, n: int, t: int, clamp: bool = True) -> float:
    """Success bound for a k-parallel q-query prover against the sequential-work
    protocol with label width w, tree depth n, and t challenges; requires w >= t*n."""
    _check(q=q, k=k, w=w, n=n, t=t)
    if w < t * n:
        raise ValueError("the protocol requires w >= t * n")
    mw = 2.0 ** w
    term_col, term_chain = posw_sqrt_step(q, k, w, n)
    try:
        challenge_mass = ((q + 2) / 2.0 ** (n + 1)) ** t
    except OverflowError:  # past the largest float: the bound is vacuous
        challenge_mass = math.inf
    term_challenge = E * k * math.sqrt(10.0 * challenge_mass)
    root = q * (term_col + term_chain + term_challenge) + math.sqrt((t * (n + 1) + 1) / mw)
    return _finish(root * root, clamp)


def posw_asymptotic_envelope(q: int, k: int, w: int, n: int, t: int, constant: float = 2000.0) -> float:
    """The O(.) form of the sequential-work bound, used only for consistency sweeps."""
    return constant * (
        k ** 2 * q ** 2 * ((q + 2) / 2.0 ** (n + 1)) ** t
        + k ** 3 * q ** 3 * n / 2.0 ** w
        + t * n / 2.0 ** w
    )


def _check(**named) -> None:
    for name, value in named.items():
        if value < 0:
            raise ValueError(f"parameter {name} must be nonnegative")
        if value > sys.float_info.max:
            raise ValueError(f"parameter {name} exceeds the largest float, about 2^{FLOAT_EXP_MAX + 1}")
    # 2^w and 2^(n+1) are evaluated in floating point
    for name, limit in (("w", FLOAT_EXP_MAX), ("n", FLOAT_EXP_MAX - 1)):
        if named.get(name, 0) > limit:
            raise ValueError(f"parameter {name} must be at most {limit}: "
                             "a power of two in the bound exceeds the largest float")
    for name in ("k", "m", "t", "gamma", "w", "n"):
        if name in named and named[name] < 1:
            raise ValueError(f"parameter {name} must be positive")
