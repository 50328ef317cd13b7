"""The skip-augmented binary-tree DAG underlying the sequential-work protocol.

Vertices are bit strings of length 0..n, the root being the empty string.
Tree edges point from children to parents; skip edges point from the left
sibling of every right-child ancestor of a vertex into that vertex.  Skip
edges enter internal vertices as well as leaves (Cohen-Pietrzak's graph may
add them into leaves only); the golden proof digests depend on this choice.
The fixed vertex ordering is (length, lexicographic).

`topology(n)` is a cached per-depth table of in-neighbours for the
security-analysis lemmas, which read the same vertices for every log they
check; the protocol frames its queries from depth and index instead.
"""

from __future__ import annotations

from functools import lru_cache

ROOT = ""


def check_vertex(v: str, n: int) -> str:
    if len(v) > n or v.strip("01"):
        raise ValueError(f"invalid vertex {v!r} for depth {n}")
    return v


def vertex_key(v: str) -> tuple:
    return (len(v), v)


def left(v: str) -> str:
    return v + "0"


def right(v: str) -> str:
    return v + "1"


def is_leaf(v: str, n: int) -> bool:
    return len(v) == n


def ancestors(v: str) -> list:
    """v itself, then its proper ancestors up to and including the root."""
    return [v[:i] for i in range(len(v), -1, -1)]


def all_vertices(n: int) -> list:
    out = [ROOT]
    for depth in range(1, n + 1):
        out.extend(format(i, f"0{depth}b") for i in range(1 << depth))
    return out


def leaves(n: int) -> list:
    return [format(i, f"0{n}b") for i in range(1 << n)] if n else [ROOT]


def in_neighbors(v: str, n: int) -> list:
    """Tree children (for internal vertices) followed by the skip-edge sources:
    the left siblings of every right-child ancestor, each group in vertex order
    (a skip source's prefix length gives its order).  Each call returns a new
    list."""
    return list(_in_neighbors(v, n))


@lru_cache(maxsize=1 << 12)
def _in_neighbors(v: str, n: int) -> tuple:
    # an invalid vertex raises, and a raising call is not cached
    check_vertex(v, n)
    skips = tuple(v[:i] + "0" for i, c in enumerate(v) if c == "1")
    return skips if len(v) == n else (v + "0", v + "1") + skips


class _Table(dict):
    """vertex -> its in_neighbors as a tuple.  A record is filled from
    _in_neighbors on the first read of its vertex and kept while the table
    holds fewer than 2^12 records (every vertex of a DAG up to depth 11), so
    a deeper DAG costs no more memory than that; a vertex outside the DAG
    raises ValueError and is not stored."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, v: str) -> tuple:
        ins = _in_neighbors(v, self.n)
        if len(self) < 1 << 12:
            self[v] = ins
        return ins


@lru_cache(maxsize=8)
def topology(n: int) -> dict:
    """The in-neighbour table of the depth-n DAG, kept per depth.  It holds
    only the vertices read from it, up to its bound, and filling it makes no
    call to the public in_neighbors."""
    return _Table(n)


def authentication_path(v: str, n: int) -> list:
    """Non-root ancestors of a leaf together with their siblings, in vertex order."""
    check_vertex(v, n)
    if not is_leaf(v, n):
        raise ValueError("authentication paths are defined for leaves only")
    return [v[:i] + b for i in range(n) for b in "01"]


def _subtree_order(k: int) -> list:
    """Post-order of a depth-k tree, each vertex relative to its root: the
    left subtree's, then the right subtree's, then the root."""
    order = [""]
    for _ in range(k):
        order = ["0" + s for s in order] + ["1" + s for s in order]
        order.append("")
    return order


def prover_order(n: int) -> list:
    """Post-order evaluation sequence: every vertex appears after all of its
    in-neighbors, starting with the leftmost leaf.

    It is the post-order of the top n - n//2 levels with each of their
    deepest vertices expanded into the post-order of the depth-n//2 subtree
    it roots, so no vertex string is built twice at the bottom levels."""
    top = n - n // 2
    below = _subtree_order(n // 2)
    order: list = []
    for u in _subtree_order(top):
        if len(u) == top:
            order += [u + s for s in below]
        else:
            order.append(u)
    return order
