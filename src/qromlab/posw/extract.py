"""Security-analysis extraction: recover the maximal consistently labeled
subtree a database supports for a claimed root label, plus the chain machinery
and the lemma checkers built on it.

Databases here are query logs: finite maps from framed oracle inputs to w-bit
values, as exposed by the table backend.  Each check parses a log once, in
canonical payload order, and indexes the label entries of its statement by
vertex and slot labels; extraction and the chain length read that one parse.
The new-path check builds the updated log's parse from the base one,
parsing only the payloads new to the log and merging them in canonical
payload order.  The leaf-count check extracts only the root labels that some
root entry holds: any other root label extracts no leaf.
The checks read the DAG from its cached per-depth table, dag.topology(n).
The extraction lemma's check frames each equation it checks from
dag.in_neighbors and looks it up in the log itself, so a fault in the index
or the table cannot hide from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from ..properties import longest_path
from . import dag
from .backend import label_bytes, label_payload, parse_label_payload


@dataclass
class ExtractResult:
    tree: set            # vertices surviving the leaf consistency check
    labels: dict         # every extracted label, including removed leaves
    collision: bool      # ambiguity was met while decomposing


def _parse_log(db: dict, w: int) -> list:
    """The log in canonical payload order as (payload, parsed, value) triples,
    parsed as parse_label_payload returns it (None when not label-framed)."""
    return [(payload, parse_label_payload(payload, w), db[payload]) for payload in sorted(db)]


def _label_entries_by_vertex(log: list, n: int, chi: int) -> dict:
    """Index the parsed log's label entries for the statement chi whose vertex
    lies in the depth-n DAG with the arity it prescribes: vertex -> {slot
    labels: value}, in canonical payload order.

    Framing is injective, so the entry for (v, slots) is the log's value at
    label_payload(chi, v, slots, w) whenever that input is well formed."""
    table = dag.topology(n)
    index: dict = {}
    for _, parsed, value in log:
        if parsed is None:
            continue
        pchi, v, labels = parsed
        if pchi != chi or len(v) > n or len(labels) != len(table[v]):
            continue
        index.setdefault(v, {})[labels] = value
    return index


def extract(db: dict, n: int, phi: int, chi: int, w: int, *,
            _log: list | None = None) -> ExtractResult:
    """Top-down labeling extraction followed by the leaf consistency check.

    A vertex decomposes when the database holds a label entry for it whose
    value equals its extracted label and whose non-child slots agree with the
    already-extracted skip labels; the children then inherit the child slots.
    With collisions in the database the decomposition may be ambiguous; the
    first candidate in canonical payload order is taken and a flag raised.
    A caller that already holds the log's parse (_parse_log(db, w)) passes it
    as _log.
    """
    log = _parse_log(db, w) if _log is None else _log
    return _extract(_label_entries_by_vertex(log, n, chi), n, phi)


def _extract(entries: dict, n: int, phi: int) -> ExtractResult:
    """extract() on a query log already indexed by _label_entries_by_vertex."""
    table = dag.topology(n)
    labels: dict = {dag.ROOT: phi}
    collision = False
    # breadth first over the internal vertices, the loop reading what it
    # appends; the labelled leaves are gathered as they are reached
    queue, tips = ([dag.ROOT], []) if n else ([], [dag.ROOT])
    for v in queue:
        candidates = entries.get(v)
        if not candidates:
            continue
        label = labels[v]
        ins = table[v]
        skip_labels = tuple(labels.get(u) for u in ins[2:])
        chosen = None
        for slot_labels, value in candidates.items():
            if value == label and slot_labels[2:] == skip_labels:
                if chosen is not None:
                    collision = True
                    break
                chosen = slot_labels
        if chosen is None:
            continue
        left, right = ins[0], ins[1]
        labels[left] = chosen[0]
        labels[right] = chosen[1]
        if len(left) < n:
            queue += (left, right)
        else:
            tips += (left, right)
    tree = set(labels)
    for v in tips:
        if not _equation_holds(entries, table, labels, v):
            tree.discard(v)
    return ExtractResult(tree=tree, labels=labels, collision=collision)


def _equation_holds(entries: dict, table: dict, labels: dict, v: str) -> bool:
    """Whether the indexed log maps v's in-neighbour labels, read from the
    table of dag.topology, to v's label; an unlabelled in-neighbour (a None
    slot, which no entry has) fails it."""
    slots = tuple(labels.get(u) for u in table[v])
    return entries.get(v, {}).get(slots) == labels[v]


def _logged_equation_holds(db: dict, n: int, chi: int, w: int, labels: dict, v: str) -> bool:
    """Whether the log maps the label query of v, framed from the labels of
    its in-neighbours as the DAG's definition lists them, to v's label; an
    unlabelled in-neighbour fails it."""
    slots = [labels.get(u) for u in dag.in_neighbors(v, n)]
    return None not in slots and db.get(label_payload(chi, v, slots, w)) == labels[v]


def db_has_collision(db: dict, w: int) -> bool:
    """A collision is two distinct defined inputs sharing a value."""
    return len(set(db.values())) < len(db)


def longest_posw_chain(db: dict, n: int, w: int, *, _log: list | None = None) -> float:
    """Longest chain x_0,...,x_s in the database under the link relation
    "the value of x_{i-1} appears as a label slot of x_i".

    Every element but the last must be a defined database entry; the last hop
    is free since any value fits a label slot of some input.  Support cycles
    give chains of every length, reported as inf.  A caller that already holds
    the log's parse (_parse_log(db, w)) passes it as _log.
    """
    log = _parse_log(db, w) if _log is None else _log
    payloads = [payload for payload, _, _ in log]
    # slot value -> payloads holding it in some label slot, in payload order
    holders: dict = {}
    for payload, parsed, _ in log:
        for value in set(parsed[2]) if parsed else ():
            holders.setdefault(value, []).append(payload)
    successors = {payload: holders.get(value, []) for payload, _, value in log}
    # the free final hop gives every entry a chain of length 1
    return longest_path(payloads, successors, dict.fromkeys(payloads, 1.0))


def check_leaves_lemma(db: dict, n: int, w: int, chi: int, extra_phis=()) -> bool:
    """Leaf-count bound: with q the longest chain in the database, every
    extracted subtree has at most (q+2)/2 leaves.

    Root-label candidates are all values occurring in the database plus any
    supplied extras.  Only the candidates that some root entry of the index
    holds are extracted: any other root label decomposes no vertex and
    extracts no leaf (at n=0 the root is the leaf, and only a root entry
    holding its label keeps it), and the limit is at least 1, so skipping it
    never changes the verdict.  Databases with unboundedly long chains
    satisfy the bound vacuously.
    """
    log = _parse_log(db, w)
    q = longest_posw_chain(db, n, w, _log=log)
    if math.isinf(q):
        return True
    limit = (q + 2) / 2.0
    entries = _label_entries_by_vertex(log, n, chi)
    for phi in set(entries.get(dag.ROOT, {}).values()):
        if sum(len(v) == n for v in _extract(entries, n, phi).tree) > limit:
            return False
    return True


def check_extract_lemma(db: dict, n: int, w: int, chi: int, phi: int,
                        completeness: bool = False) -> bool:
    """Soundness and maximality of extraction on a collision-free database.

    Checks that the extracted labeling is consistent on the subtree (every
    vertex whose in-neighborhood lies in the tree satisfies its label
    equation), that leaves in the tree have all ancestor equations satisfied,
    and, when completeness is set, that leaves outside the tree admit no
    consistent ancestor labeling with the claimed root label (an exact
    depth-first search over matching log entries; its cost is the entries
    tried per ancestor).
    """
    table = dag.topology(n)
    entries = _label_entries_by_vertex(_parse_log(db, w), n, chi)
    result = _extract(entries, n, phi)
    tree, labels = result.tree, result.labels
    # every ancestor of a leaf in the tree (extraction labels an upward-closed
    # subtree) and every vertex whose in-neighbourhood lies in the tree, each
    # once; their equations are framed from the DAG's definition and read
    # from the log itself, not from the table and index that extraction read
    checked = {z for v in tree if len(v) == n for z in dag.ancestors(v)}
    for v in tree:
        ins = table[v]
        if ins and tree.issuperset(ins):
            checked.add(v)
    if not all(_logged_equation_holds(db, n, chi, w, labels, v) for v in checked):
        return False
    if completeness:
        label_bytes(chi, w)  # a statement wider than w bits raises, as a framed query would
        # a leaf with no indexed entry has no consistent path (the leaf is
        # its own ancestor), so only the indexed leaves are searched
        for v in entries:
            if len(v) == n and v not in tree and _consistent_path_exists(entries, n, phi, v):
                return False
    return True


def _consistent_path_exists(entries: dict, n: int, phi: int, v: str) -> bool:
    """Whether some labeling of the ancestor closure of leaf v with root label
    phi satisfies every ancestor equation of v.

    Depth-first from the root down to v: at each ancestor z only the indexed
    entries of z whose value is z's label are tried, and one is kept when its
    slots agree with the labels already assigned; its slots then label the
    in-neighbors of z.  Every label of the closure is a slot of some
    ancestor's entry, so a consistent labeling exists iff such a chain of
    entries does.  An ancestor with no indexed entry ends every such chain,
    so that case is answered before the search.
    """
    path = dag.ancestors(v)[::-1]  # root first
    if not all(z in entries for z in path):
        return False
    ins = dag.topology(n)

    def descend(depth: int, lab: dict) -> bool:
        z = path[depth]
        zins = ins[z]
        for slots, value in entries[z].items():
            if value != lab[z] or any(lab.get(u, s) != s for u, s in zip(zins, slots)):
                continue
            if depth == n or descend(depth + 1, {**lab, **dict(zip(zins, slots))}):
                return True
        return False

    return descend(0, {dag.ROOT: phi})


def check_newpath_lemma(db: dict, xs, us, phi: int, chi: int, n: int, w: int) -> bool:
    """Update locality of extraction: every leaf gained by redefining the
    database on xs (xs[i] to us[i], in order, so a repeated payload takes its
    last value) admits an ancestor whose new label is one of the fresh
    values.  Assumes the base database is collision-free.

    The base log is parsed once.  The updated log's parse is built from it:
    the redefined entries take their new values, and only the payloads new
    to the log are parsed, merged in canonical payload order.
    """
    if len(xs) != len(us):
        raise ValueError(f"{len(xs)} payloads to redefine but {len(us)} values")
    fresh = dict(zip(xs, us))
    updated = {**db, **fresh}
    base_log = _parse_log(db, w)
    new_log = [(payload, parsed, updated[payload]) for payload, parsed, _ in base_log]
    new_log += [(payload, parse_label_payload(payload, w), value)
                for payload, value in fresh.items() if payload not in db]
    new_log.sort(key=itemgetter(0))
    base = extract(db, n, phi, chi, w, _log=base_log)
    new = extract(updated, n, phi, chi, w, _log=new_log)
    gained = {v for v in new.tree if len(v) == n} - base.tree
    changed = {value for payload, value in fresh.items() if db.get(payload) != value}
    return all(any(new.labels.get(z) in changed for z in dag.ancestors(v)) for v in gained)


def path_to_chain(labels: dict, path, n: int, chi: int, w: int, db: dict | None = None) -> list:
    """Map a DAG path through a labeled subtree to the chain of oracle inputs
    x_i = (v_i, labels of in(v_i)), validating every link.

    When a database is supplied, the labeling must be consistent with it along
    the path (except at the final vertex, whose value never enters a link)."""
    path = list(path)
    chain = []
    for i, v in enumerate(path):
        neighbors = dag.in_neighbors(v, n)
        if any(u not in labels for u in neighbors) or v not in labels:
            raise ValueError(f"labeling does not cover vertex {v or 'root'}")
        in_labels = [labels[u] for u in neighbors]
        if i > 0:
            prev = path[i - 1]
            if prev not in neighbors:
                raise ValueError(f"({prev or 'root'}, {v or 'root'}) is not a DAG edge")
            if labels[prev] not in in_labels:
                raise ValueError("labeling breaks the link relation")
        if db is not None and i < len(path) - 1:
            payload = label_payload(chi, v, in_labels, w)
            if db.get(payload) != labels[v]:
                raise ValueError(f"labeling inconsistent with the database at {v or 'root'}")
        chain.append((v, tuple(in_labels)))
    return chain
