"""Differential tests for the indexed PoSW analysis path.

The direct DAG topology is checked against the ancestor-walk construction it
replaced, the top-down completeness search against the exhaustive search over
every labeling of a leaf's ancestor closure, and the slot-indexed longest
chain against the all-pairs link comparison, all kept here as reference
oracles.
"""

import itertools
import random

import pytest

from qromlab.posw import dag, label_payload, parse_label_payload
from qromlab.properties import longest_path
from qromlab.posw.extract import (
    _consistent_path_exists,
    _extract,
    _label_entries_by_vertex,
    check_extract_lemma,
    check_leaves_lemma,
    db_has_collision,
    extract,
    longest_posw_chain,
)


# --- reference topology: the ancestor walk with parent/sibling steps ---------

def ref_parent(v):
    if v == dag.ROOT:
        raise ValueError("the root has no parent")
    return v[:-1]


def ref_sibling(v):
    if v == dag.ROOT:
        raise ValueError("the root has no sibling")
    return v[:-1] + ("1" if v[-1] == "0" else "0")


def ref_ancestors(v):
    out = [v]
    while v != dag.ROOT:
        v = ref_parent(v)
        out.append(v)
    return out


def ref_check_vertex(v, n):
    if len(v) > n or any(c not in "01" for c in v):
        raise ValueError(f"invalid vertex {v!r} for depth {n}")


def ref_in_neighbors(v, n):
    ref_check_vertex(v, n)
    children = [] if len(v) == n else [v + "0", v + "1"]
    skips = sorted(
        (ref_sibling(u) for u in ref_ancestors(v) if u != dag.ROOT and u[-1] == "1"),
        key=dag.vertex_key,
    )
    return children + skips


def ref_authentication_path(v, n):
    ref_check_vertex(v, n)
    if len(v) != n:
        raise ValueError("authentication paths are defined for leaves only")
    anc = [u for u in ref_ancestors(v) if u != dag.ROOT]
    return sorted(set(anc) | {ref_sibling(u) for u in anc}, key=dag.vertex_key)


# --- reference completeness: every labeling of the ancestor closure ---------

def ref_labeling_exists(db, n, w, chi, phi, v):
    closure = []
    for z in dag.ancestors(v):
        for u in [z] + dag.in_neighbors(z, n):
            if u not in closure:
                closure.append(u)
    free = [u for u in closure if u != dag.ROOT]
    for values in itertools.product(range(1 << w), repeat=len(free)):
        lab = dict(zip(free, values))
        lab[dag.ROOT] = phi
        if all(
            db.get(label_payload(chi, z, [lab[u] for u in dag.in_neighbors(z, n)], w)) == lab[z]
            for z in dag.ancestors(v)
        ):
            return True
    return False


def label_inputs(n, w, chi):
    """Every label-framed oracle input at depth n and width w."""
    out = []
    for v in dag.all_vertices(n):
        for labels in itertools.product(range(1 << w), repeat=len(dag.in_neighbors(v, n))):
            out.append(label_payload(chi, v, labels, w))
    return out


def small_logs(n, w, chi, max_entries):
    """Every query log on label inputs with at most max_entries entries,
    colliding logs included."""
    payloads = label_inputs(n, w, chi)
    for size in range(max_entries + 1):
        for support in itertools.combinations(payloads, size):
            for values in itertools.product(range(1 << w), repeat=size):
                yield dict(zip(support, values))


def assert_search_matches_reference(db, n, w, chi, phi):
    """Per-leaf equality of the search with the exhaustive reference, and of
    the completeness check with the reference's verdict on the leaves that
    extraction missed.  Returns (leaves with a consistent path, whether every
    such leaf was extracted)."""
    entries = _label_entries_by_vertex(db, n, w, chi)
    expected = {v: ref_labeling_exists(db, n, w, chi, phi, v) for v in dag.leaves(n)}
    for v, exists in expected.items():
        assert _consistent_path_exists(entries, n, phi, v) == exists, (db, phi, v)
    tree = extract(db, n, phi, chi, w).tree
    complete = not any(expected[v] for v in dag.leaves(n) if v not in tree)
    # the lemma's completeness holds on collision-free logs
    assert complete or db_has_collision(db, w)
    assert check_extract_lemma(db, n, w, chi, phi, completeness=True) == (
        complete and check_extract_lemma(db, n, w, chi, phi))
    return sum(expected.values()), complete


def test_search_matches_reference_on_all_two_entry_logs():
    n, w, chi = 1, 2, 1
    logs = found = 0
    for db in small_logs(n, w, chi, 2):
        for phi in range(1 << w):
            found += assert_search_matches_reference(db, n, w, chi, phi)[0]
        logs += 1
    assert logs == 1 + 21 * 4 + 210 * 16
    assert found > 0


def test_completeness_reports_a_leaf_hidden_by_a_collision():
    n, w, chi = 1, 2, 1
    db = {
        label_payload(chi, "", [0, 1], w): 3,   # taken first by extraction
        label_payload(chi, "", [2, 1], w): 3,   # collides with the entry above
        label_payload(chi, "0", [], w): 2,
    }
    assert "0" not in extract(db, n, 3, chi, w).tree
    assert assert_search_matches_reference(db, n, w, chi, 3) == (1, False)
    assert not check_extract_lemma(db, n, w, chi, 3, completeness=True)


def honest_log(rng, n, w, chi):
    """The query log of an honest labeling with random w-bit oracle values."""
    db, labels = {}, {}
    for v in dag.prover_order(n):
        labels[v] = rng.getrandbits(w)
        db[label_payload(chi, v, [labels[u] for u in dag.in_neighbors(v, n)], w)] = labels[v]
    return db


def random_log(rng, n, w, chi, max_entries):
    db = {}
    for _ in range(rng.randrange(1, max_entries)):
        v = rng.choice(dag.all_vertices(n))
        labels = [rng.getrandbits(w) for _ in dag.in_neighbors(v, n)]
        db[label_payload(chi, v, labels, w)] = rng.getrandbits(w)
    return db


def mutated_honest_log(rng, n, w, chi):
    """An honest log with entries dropped, revalued or added at random, so
    that some leaves keep a consistent path and some lose it."""
    db = honest_log(rng, n, w, chi)
    for payload in list(db):
        roll = rng.random()
        if roll < 0.2:
            del db[payload]
        elif roll < 0.35:
            db[payload] = rng.getrandbits(w)
    db.update(random_log(rng, n, w, chi, 4))
    return db


def test_search_matches_reference_on_random_depth_two_logs():
    n, w, chi = 2, 2, 1
    rng = random.Random(44)
    found = incomplete = 0
    for trial in range(240):
        if trial % 2:
            db = mutated_honest_log(rng, n, w, chi)
            phis = sorted(set(db.values()))
        else:
            db = random_log(rng, n, w, chi, 10)
            phis = [rng.getrandbits(w)]
        for phi in phis[:2]:
            leaves, complete = assert_search_matches_reference(db, n, w, chi, phi)
            found += leaves
            incomplete += not complete
    assert found > 50 and incomplete > 0


def test_completeness_rejects_statement_wider_than_labels():
    with pytest.raises(ValueError):
        check_extract_lemma({}, 1, 2, 4, 0, completeness=True)


def test_entries_outside_the_statement_are_not_indexed():
    n, w, chi = 1, 2, 1
    good = label_payload(chi, "", [1, 2], w)
    db = {
        good: 3,
        label_payload(2, "", [1, 2], w): 3,            # other statement
        label_payload(chi, "", [1], w): 3,             # wrong arity
        label_payload(chi, "00", [], w): 3,            # deeper than n
        b"\x01garbage": 3,                             # not label-framed
    }
    assert _label_entries_by_vertex(db, n, w, chi) == {"": [(good, (1, 2), 3)]}


@pytest.mark.parametrize("n", range(1, 9))
def test_topology_matches_reference(n):
    for v in dag.all_vertices(n):
        assert dag.in_neighbors(v, n) == ref_in_neighbors(v, n)
        assert dag.ancestors(v) == ref_ancestors(v)
    for v in dag.leaves(n):
        assert dag.authentication_path(v, n) == ref_authentication_path(v, n)


@pytest.mark.parametrize("n", range(0, 7))
def test_leaves_are_the_depth_n_vertices(n):
    assert dag.leaves(n) == [v for v in dag.all_vertices(n) if dag.is_leaf(v, n)]
    for v in dag.leaves(n):
        dag.check_vertex(v, n)


@pytest.mark.parametrize("v", ["012", "0000", " 0", "a", "0 ", "1\n"])
def test_invalid_vertices_raise(v):
    with pytest.raises(ValueError):
        dag.check_vertex(v, 3)
    with pytest.raises(ValueError):
        dag.in_neighbors(v, 3)
    with pytest.raises(ValueError):
        dag.authentication_path(v, 3)


def ref_leaves_lemma(db, n, w, chi, extra_phis):
    q = longest_posw_chain(db, n, w)
    if q == float("inf"):
        return True
    for phi in sorted(set(db.values()) | set(extra_phis)):
        tree = extract(db, n, phi, chi, w).tree
        if len([v for v in tree if dag.is_leaf(v, n)]) > (q + 2) / 2.0:
            return False
    return True


def test_shared_index_matches_one_extract_per_root_label():
    rng = random.Random(45)
    n, chi = 2, 1
    for trial in range(300):
        w = 2 if trial % 2 else 8
        db = mutated_honest_log(rng, n, w, chi) if trial % 2 else random_log(rng, n, w, chi, 21)
        extra = (rng.getrandbits(w),)
        entries = _label_entries_by_vertex(db, n, w, chi)
        for phi in sorted(set(db.values()) | set(extra)):
            assert _extract(entries, db, n, phi, chi, w) == extract(db, n, phi, chi, w)
        assert check_leaves_lemma(db, n, w, chi, extra) == ref_leaves_lemma(db, n, w, chi, extra)


# --- reference longest chain: every pair of entries compared -----------------

def ref_longest_posw_chain(db, n, w):
    payloads = sorted(db)
    slots = {}
    for payload in payloads:
        parsed = parse_label_payload(payload, w)
        slots[payload] = set(parsed[2]) if parsed else set()
    successors = {
        p: [p2 for p2 in payloads if db[p] in slots[p2]] for p in payloads
    }
    return longest_path(payloads, successors, dict.fromkeys(payloads, 1.0))


def test_longest_chain_matches_all_pairs_reference():
    rng = random.Random(46)
    lengths = []
    for trial in range(360):
        n = 1 + trial % 2
        w = (2, 3, 8)[trial % 3]
        db = mutated_honest_log(rng, n, w, 1) if trial % 4 < 2 else random_log(rng, n, w, 1, 16)
        if trial % 5 == 0:
            db[b"\x01not a label frame"] = rng.getrandbits(w)
        q = longest_posw_chain(db, n, w)
        assert q == ref_longest_posw_chain(db, n, w), db
        lengths.append(q)
    assert float("inf") in lengths
    assert len({q for q in lengths if q != float("inf")}) > 2
