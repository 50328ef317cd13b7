"""Differential tests for the indexed PoSW analysis path.

The direct DAG topology is checked against the ancestor-walk construction it
replaced, the two-level prover order against the recursive walk, the top-down
completeness search against the exhaustive search over every labeling of a
leaf's ancestor closure, the slot-indexed longest chain against the all-pairs
link comparison, and the lemma checks that extract from the per-vertex index
and the cached DAG table against the versions that re-frame every equation
with `label_payload`, read the DAG through `in_neighbors` and look each
equation up in the log, all kept here as reference oracles.  The table itself
is checked record by record against the DAG's definition.
"""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.posw import (PoswParams, TableBackend, challenge_payload, dag, label_payload,
                          parse_label_payload, prove)
from qromlab.posw.backend import label_bytes
from qromlab.properties import longest_path
from qromlab.posw.extract import (
    ExtractResult,
    _consistent_path_exists,
    _extract,
    _label_entries_by_vertex,
    _parse_log,
    check_extract_lemma,
    check_leaves_lemma,
    check_newpath_lemma,
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


def ref_prover_order(n):
    """The recursive post-order walk the two-level construction replaced."""
    order = []

    def walk(v):
        if len(v) != n:
            walk(v + "0")
            walk(v + "1")
        order.append(v)

    walk(dag.ROOT)
    return order


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
    entries = _label_entries_by_vertex(_parse_log(db, w), n, chi)
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
    assert _label_entries_by_vertex(_parse_log(db, w), n, chi) == {"": {(1, 2): 3}}


@pytest.mark.parametrize("n", range(1, 9))
def test_topology_matches_reference(n):
    for v in dag.all_vertices(n):
        assert dag.in_neighbors(v, n) == ref_in_neighbors(v, n)
        assert dag.ancestors(v) == ref_ancestors(v)
    for v in dag.leaves(n):
        assert dag.authentication_path(v, n) == ref_authentication_path(v, n)


@pytest.mark.parametrize("n", range(0, 14))
def test_prover_order_matches_reference(n):
    """Odd and even depths split their levels differently."""
    assert dag.prover_order(n) == ref_prover_order(n)


@pytest.mark.parametrize("n", range(0, 7))
def test_leaves_are_the_depth_n_vertices(n):
    assert dag.leaves(n) == [v for v in dag.all_vertices(n) if dag.is_leaf(v, n)]
    for v in dag.leaves(n):
        dag.check_vertex(v, n)


@pytest.mark.parametrize("v", ["012", "0000", " 0", "a", "0 ", "1\n"])
def test_invalid_vertices_raise(v):
    with pytest.raises(ValueError):
        dag.check_vertex(v, 3)
    for _ in range(2):  # a memoised neighbour list must not hide a second bad call
        with pytest.raises(ValueError):
            dag.in_neighbors(v, 3)
    with pytest.raises(ValueError):
        dag.authentication_path(v, 3)


def test_in_neighbors_returns_a_fresh_list():
    first = dag.in_neighbors("11", 3)
    first.append("mutated")
    first[0] = "mutated"
    assert dag.in_neighbors("11", 3) == ["110", "111", "0", "10"]
    assert dag.in_neighbors("11", 3) is not dag.in_neighbors("11", 3)


def ref_leaves_lemma(db, n, w, chi, extra_phis):
    q = ref_longest_posw_chain(db, n, w)
    if q == float("inf"):
        return True
    for phi in sorted(set(db.values()) | set(extra_phis)):
        tree = ref_extract(db, n, phi, chi, w).tree
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
        entries = _label_entries_by_vertex(_parse_log(db, w), n, chi)
        for phi in sorted(set(db.values()) | set(extra)):
            assert _extract(entries, n, phi) == extract(db, n, phi, chi, w)
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


# --- reference lemma checks: every label equation re-framed and looked up ----

def ref_label_entries_by_vertex(db, n, w, chi):
    index = {}
    for payload in sorted(db):
        parsed = parse_label_payload(payload, w)
        if parsed is None:
            continue
        pchi, v, labels = parsed
        if pchi != chi or len(v) > n:
            continue
        if len(labels) != len(dag.in_neighbors(v, n)):
            continue
        index.setdefault(v, []).append((payload, labels, db[payload]))
    return index


def ref_extract_indexed(entries, db, n, phi, chi, w):
    labels = {dag.ROOT: phi}
    collision = False
    queue = [dag.ROOT]
    while queue:
        v = queue.pop(0)
        if dag.is_leaf(v, n):
            continue
        skip_neighbors = dag.in_neighbors(v, n)[2:]
        candidates = []
        for payload, slot_labels, value in entries.get(v, ()):
            if value != labels[v]:
                continue
            if any(slot_labels[2 + i] != labels.get(u) for i, u in enumerate(skip_neighbors)):
                continue
            candidates.append(slot_labels)
        if not candidates:
            continue
        if len(candidates) > 1:
            collision = True
        chosen = candidates[0]
        labels[dag.left(v)] = chosen[0]
        labels[dag.right(v)] = chosen[1]
        queue += [dag.left(v), dag.right(v)]
    tree = set(labels)
    for v in sorted((u for u in tree if dag.is_leaf(u, n)), key=dag.vertex_key):
        in_labels = [labels[u] for u in dag.in_neighbors(v, n)]
        if db.get(label_payload(chi, v, in_labels, w)) != labels[v]:
            tree.discard(v)
    return ExtractResult(tree=tree, labels=labels, collision=collision)


def ref_extract(db, n, phi, chi, w):
    return ref_extract_indexed(ref_label_entries_by_vertex(db, n, w, chi), db, n, phi, chi, w)


def ref_consistent_path_exists(entries, n, phi, v):
    def descend(depth, lab):
        z = v[:depth]
        ins = dag.in_neighbors(z, n)
        for _, slots, value in entries.get(z, ()):
            if value != lab[z] or any(lab.get(u, s) != s for u, s in zip(ins, slots)):
                continue
            if depth == n or descend(depth + 1, {**lab, **dict(zip(ins, slots))}):
                return True
        return False

    return descend(0, {dag.ROOT: phi})


def ref_check_extract_lemma(db, n, w, chi, phi, completeness=False):
    entries = ref_label_entries_by_vertex(db, n, w, chi)
    result = ref_extract_indexed(entries, db, n, phi, chi, w)
    tree, labels = result.tree, result.labels
    ins = {v: dag.in_neighbors(v, n) for v in tree}

    def equation_holds(v):
        if any(u not in labels for u in ins[v]):
            return False
        return db.get(label_payload(chi, v, [labels[u] for u in ins[v]], w)) == labels[v]

    for v in tree:
        if ins[v] and all(u in tree for u in ins[v]):
            if not equation_holds(v):
                return False
    for v in (u for u in tree if dag.is_leaf(u, n)):
        if not all(equation_holds(z) for z in dag.ancestors(v)):
            return False
    if completeness:
        label_bytes(chi, w)  # a statement wider than w bits raises, as a framed query would
        for v in dag.leaves(n):
            if v not in tree and ref_consistent_path_exists(entries, n, phi, v):
                return False
    return True


def ref_check_newpath_lemma(db, xs, us, phi, chi, n, w):
    if len(xs) != len(us):
        raise ValueError("every redefined payload needs one value")
    updated = dict(db)
    for payload, value in zip(xs, us):
        updated[payload] = value
    base = ref_extract(db, n, phi, chi, w)
    new = ref_extract(updated, n, phi, chi, w)
    base_leaves = {v for v in base.tree if dag.is_leaf(v, n)}
    new_leaves = {v for v in new.tree if dag.is_leaf(v, n)}
    for v in sorted(new_leaves - base_leaves, key=dag.vertex_key):
        found = False
        for payload in xs:
            if db.get(payload) == updated[payload]:
                continue
            if any(updated[payload] == new.labels.get(z) for z in dag.ancestors(v)):
                found = True
                break
        if not found:
            return False
    return True


def hostile_log(rng, n, w, chi):
    """A random or mutated honest log with entries that the index must skip or
    keep apart: another statement, a wrong arity, a vertex deeper than n, a
    challenge frame and unframed bytes, several of them holding values that
    collide with label entries."""
    db = mutated_honest_log(rng, n, w, chi) if rng.random() < 0.5 else random_log(rng, n, w, chi, 12)
    values = sorted(set(db.values())) or [0]
    vertices = dag.all_vertices(n)

    def value():
        return rng.choice(values) if rng.random() < 0.5 else rng.getrandbits(w)

    def slots(v, extra=0):
        return [rng.getrandbits(w) for _ in range(len(dag.in_neighbors(v, n)) + extra)]

    for _ in range(rng.randrange(4)):
        v = rng.choice(vertices)
        db[label_payload(chi ^ 1, v, slots(v), w)] = value()
        db[label_payload(chi, v, slots(v, rng.choice((-1, 1)) if dag.in_neighbors(v, n) else 1), w)] = value()
    deep = "".join(rng.choice("01") for _ in range(n + 1))
    db[label_payload(chi, deep, [rng.getrandbits(w) for _ in range(rng.randrange(4))], w)] = value()
    db[challenge_payload(chi, value(), 0, w)] = value()
    db[b"\x00" * rng.randrange(1, 4)] = value()
    return db


@pytest.mark.parametrize("w", [2, 3, 8, 9])
def test_index_checks_match_reframing_references(w):
    rng = random.Random(f"index-{w}")
    chi = 1
    for trial in range(150):
        n = 1 + trial % 2
        db = hostile_log(rng, n, w, chi)
        phis = sorted(set(db.values()))[:3] + [rng.getrandbits(w)]
        for phi in phis:
            assert extract(db, n, phi, chi, w) == ref_extract(db, n, phi, chi, w), (db, phi)
            for completeness in (False, True):
                assert check_extract_lemma(db, n, w, chi, phi, completeness=completeness) == \
                    ref_check_extract_lemma(db, n, w, chi, phi, completeness), (db, phi)
        extra = (rng.getrandbits(w),)
        assert check_leaves_lemma(db, n, w, chi, extra) == ref_leaves_lemma(db, n, w, chi, extra)
        leaf = rng.choice(dag.leaves(n))
        xs = [label_payload(chi, leaf, [rng.getrandbits(w) for _ in dag.in_neighbors(leaf, n)], w),
              rng.choice(sorted(db))]
        us = [rng.getrandbits(w), rng.getrandbits(w)]
        phi = rng.choice(phis)
        assert check_newpath_lemma(db, xs, us, phi, chi, n, w) == \
            ref_check_newpath_lemma(db, xs, us, phi, chi, n, w), (db, xs, us, phi)


def test_extract_lemma_fails_on_a_faulty_index(monkeypatch):
    """An index that swaps the two child slots of every entry still agrees
    with itself, but the equations it hands extraction are not in the log."""
    n, w, chi = 2, 8, 9
    backend = TableBackend(w, seed=5)
    phi = prove(chi=chi, params=PoswParams(n=n, w=w), t=1, backend=backend).phi
    db = backend.database()
    assert check_extract_lemma(db, n, w, chi, phi)
    # the submodule, which the package's extract function shadows
    extract_mod = importlib.import_module("qromlab.posw.extract")
    build = extract_mod._label_entries_by_vertex

    def swapped(log, n, chi):
        return {v: {(s[1], s[0]) + s[2:] if len(s) > 1 else s: value for s, value in slots.items()}
                for v, slots in build(log, n, chi).items()}

    monkeypatch.setattr(extract_mod, "_label_entries_by_vertex", swapped)
    assert extract_mod.extract(db, n, phi, chi, w).tree != set(dag.all_vertices(n))
    assert not check_extract_lemma(db, n, w, chi, phi)


def test_colliding_logs_fail_like_the_references():
    """The lemmas assume collision-free logs; on colliding ones the checks
    may fail, and must fail where the references do."""
    n, w, chi, phi = 1, 2, 1, 3
    first = label_payload(chi, dag.ROOT, [0, 1], w)   # taken first by extraction
    db = {
        first: phi,
        label_payload(chi, dag.ROOT, [2, 1], w): phi,
        label_payload(chi, "0", [], w): 2,
    }
    # redefining the first root entry hands the root to the second, which
    # gains leaf 0 although no ancestor of it is labelled with the new value
    assert not check_newpath_lemma(db, [first], [0], phi, chi, n, w)
    assert not ref_check_newpath_lemma(db, [first], [0], phi, chi, n, w)
    assert not check_extract_lemma(db, n, w, chi, phi, completeness=True)
    assert not ref_check_extract_lemma(db, n, w, chi, phi, completeness=True)


def colliding_log():
    """(db, first, phi) at n=1, w=2, chi=1: two root entries share the value
    phi, and extraction takes first, the one that sorts first."""
    first = label_payload(1, dag.ROOT, [0, 1], 2)
    db = {first: 3, label_payload(1, dag.ROOT, [2, 1], 2): 3, label_payload(1, "0", [], 2): 2}
    return db, first, 3


def test_newpath_refuses_unpaired_payloads():
    """A payload with no value, or a value with no payload, is refused before
    any extraction, by the check and its reference alike."""
    db, first, phi = colliding_log()
    unlogged = label_payload(1, "1", [3], 2)
    for xs, us in (([first, unlogged], [0]), ([first], [0, 1]), ([], [0])):
        for check in (check_newpath_lemma, ref_check_newpath_lemma):
            with pytest.raises(ValueError):
                check(db, xs, us, phi, 1, 1, 2)


def newpath_with_spy(monkeypatch, db, xs, us, phi, chi, n, w):
    """check_newpath_lemma's verdict, after checking that each of its two
    extractions reads the log it is handed, parsed as _parse_log parses it:
    the base log, then the log with xs[i] set to us[i] in order."""
    extract_mod = importlib.import_module("qromlab.posw.extract")
    real = extract_mod.extract
    calls = []

    def spy(db, n, phi, chi, w, *, _log=None):
        calls.append((dict(db), _log))
        return real(db, n, phi, chi, w, _log=_log)

    monkeypatch.setattr(extract_mod, "extract", spy)
    verdict = check_newpath_lemma(db, xs, us, phi, chi, n, w)
    monkeypatch.undo()
    updated = dict(db)
    for payload, value in zip(xs, us):
        updated[payload] = value
    assert [seen for seen, _ in calls] == [db, updated]
    assert [log for _, log in calls] == [_parse_log(db, w), _parse_log(updated, w)]
    return verdict


def test_newpath_merge_edge_cases_match_reference(monkeypatch):
    n, w, chi = 1, 2, 1
    db, first, phi = colliding_log()
    challenge = challenge_payload(chi, phi, 0, w)
    cases = [
        # a repeated payload takes its last value: redefined, then restored
        (db, [first, first], [0, phi], True),
        (db, [first, first], [phi, 0], False),
        # payloads that are not label-framed parse to None and are merged;
        # their fresh values count, so a challenge set to the gained leaf's
        # label 2 passes the check
        (db, [challenge, b"\x07raw", first], [1, 1, 0], False),
        (db, [challenge, b"\x07raw", first], [2, 1, 0], True),
        ({**db, challenge: 1}, [challenge, b"\x00"], [0, 3], True),
        # an entry set again to its own value changes nothing
        (db, [first], [phi], True),
        (db, [first, label_payload(chi, "1", [2], w)], [phi, 1], True),
        # a new root entry that sorts before the candidate first is taken
        # first, and the leaves it gains sit below the fresh root label
        ({label_payload(chi, dag.ROOT, [2, 1], w): phi, label_payload(chi, "0", [], w): 0,
          label_payload(chi, "1", [0], w): 1},
         [label_payload(chi, dag.ROOT, [0, 1], w)], [phi], True),
    ]
    for log, xs, us, expected in cases:
        assert newpath_with_spy(monkeypatch, log, xs, us, phi, chi, n, w) == expected, (log, xs, us)
        assert ref_check_newpath_lemma(log, xs, us, phi, chi, n, w) == expected, (log, xs, us)


def test_leaves_lemma_fails_on_a_shortened_chain(monkeypatch):
    """The honest n=2 log has a chain of length 7, and its root label
    extracts all 4 leaves, within the limit 4.5; a chain length of 5 (limit
    3.5) must fail the bound.  This pins the limit and the root labels that
    the check extracts, which no random log brings near the bound."""
    n, w, chi = 2, 8, 9
    backend = TableBackend(w, seed=5)
    phi = prove(chi=chi, params=PoswParams(n=n, w=w), t=1, backend=backend).phi
    db = backend.database()
    assert longest_posw_chain(db, n, w) == 7
    assert {v for v in extract(db, n, phi, chi, w).tree if len(v) == n} == set(dag.leaves(n))
    assert check_leaves_lemma(db, n, w, chi)
    extract_mod = importlib.import_module("qromlab.posw.extract")
    monkeypatch.setattr(extract_mod, "longest_posw_chain", lambda *args, **kwargs: 5.0)
    assert not check_leaves_lemma(db, n, w, chi)


def test_wide_statement_matches_reference():
    n, w = 1, 2
    db = honest_log(random.Random(47), n, w, 1)
    for phi in range(1 << w):
        assert extract(db, n, phi, 4, w) == ref_extract(db, n, phi, 4, w)
        assert check_extract_lemma(db, n, w, 4, phi) == ref_check_extract_lemma(db, n, w, 4, phi)
        with pytest.raises(ValueError):
            check_extract_lemma(db, n, w, 4, phi, completeness=True)


# --- the cached DAG table against the definition -----------------------------

@pytest.mark.parametrize("n", range(0, 11))
def test_topology_table_matches_definition(n):
    """The table starts empty, fills one record per vertex read, each equal
    to the definition, and refuses a vertex outside the depth-n DAG."""
    dag.topology.cache_clear()
    table = dag.topology(n)
    assert dag.topology(n) is table and not table
    vertices = dag.all_vertices(n)
    for v in vertices:
        assert table[v] == tuple(dag.in_neighbors(v, n))
    assert sorted(table, key=dag.vertex_key) == vertices
    for bad in ("0" * (n + 1), "2" * max(n, 1)):
        with pytest.raises(ValueError):
            table[bad]
    assert len(table) == len(vertices)


def test_topology_table_keeps_a_bounded_number_of_records():
    """Past 2^12 records a deeper table still answers every read from the
    definition but keeps nothing more."""
    n = 12
    dag.topology.cache_clear()
    table = dag.topology(n)
    vertices = dag.all_vertices(n)
    for v in vertices:
        assert table[v] == tuple(dag.in_neighbors(v, n))
    assert len(table) == 1 << 12 < len(vertices)
    assert table[vertices[-1]] == tuple(dag.in_neighbors(vertices[-1], n))
    assert vertices[-1] not in table


def test_extract_lemma_fails_on_a_faulty_table(monkeypatch):
    """A table that swaps the two children of every internal vertex agrees
    with itself; the extraction lemma's re-check frames its equations from
    the DAG's definition and fails on an honest proof log."""
    n, w, chi = 2, 8, 9
    backend = TableBackend(w, seed=5)
    phi = prove(chi=chi, params=PoswParams(n=n, w=w), t=1, backend=backend).phi
    db = backend.database()
    assert check_extract_lemma(db, n, w, chi, phi)
    swapped = {}
    for v in dag.all_vertices(n):
        ins = tuple(dag.in_neighbors(v, n))
        swapped[v] = ins[1::-1] + ins[2:] if len(v) < n else ins
    monkeypatch.setattr(dag, "topology", lambda depth: swapped)
    assert extract(db, n, phi, chi, w).tree != set(dag.all_vertices(n))
    assert not check_extract_lemma(db, n, w, chi, phi)
    assert not check_extract_lemma(db, n, w, chi, phi, completeness=True)


def test_search_is_false_where_an_ancestor_has_no_entry():
    """The completeness search's prefilter: an honest log missing the entry
    of one internal vertex leaves no consistent path to the leaves below it,
    as the search without the prefilter finds too."""
    n, w, chi = 2, 8, 1
    db = honest_log(random.Random(48), n, w, chi)
    phi = db[next(p for p in db if parse_label_payload(p, w)[1] == dag.ROOT)]
    del db[next(p for p in db if parse_label_payload(p, w)[1] == "1")]
    entries = _label_entries_by_vertex(_parse_log(db, w), n, chi)
    ref_entries = ref_label_entries_by_vertex(db, n, w, chi)
    found = {v: _consistent_path_exists(entries, n, phi, v) for v in dag.leaves(n)}
    assert found == {"00": True, "01": True, "10": False, "11": False}
    assert found == {v: ref_consistent_path_exists(ref_entries, n, phi, v) for v in dag.leaves(n)}
    assert check_extract_lemma(db, n, w, chi, phi, completeness=True)


@st.composite
def mixed_logs(draw):
    """(n, w, log, phi): an honest log at n in {1, 2, 3} and w in {2, 8} with
    a drawn subset of its entries kept, so that some leaves keep entries at
    only some of their ancestors, plus altered copies of honest entries: some
    slots redrawn, often from the honest labels, the value often kept, and
    now and then a slot added or dropped, which the index must skip."""
    n = draw(st.sampled_from([1, 2, 3]))
    w = draw(st.sampled_from([2, 8]))
    vertices = dag.all_vertices(n)
    value = st.integers(0, (1 << w) - 1)
    honest = draw(st.lists(value, min_size=len(vertices), max_size=len(vertices)))
    labels = dict(zip(vertices, honest))
    near = st.one_of(st.sampled_from(honest), value)

    def slots(v):
        return [labels[u] for u in dag.in_neighbors(v, n)]

    kept = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    db = {label_payload(1, v, slots(v), w): labels[v] for v, keep in zip(vertices, kept) if keep}
    for v in draw(st.lists(st.sampled_from(vertices), max_size=6)):
        altered = [draw(near) if draw(st.booleans()) else s for s in slots(v)]
        shift = draw(st.sampled_from((0, 0, 0, 1, -1)))
        if shift > 0 or (shift < 0 and not altered):
            altered.append(draw(near))
        elif shift < 0:
            altered.pop()
        db[label_payload(1, v, altered, w)] = draw(st.one_of(st.just(labels[v]), near))
    phi = draw(st.one_of(st.just(labels[dag.ROOT]), value))
    return n, w, db, phi


@settings(max_examples=200, deadline=None)
@given(mixed_logs(), st.data())
def test_table_checks_match_references(case, data):
    n, w, db, phi = case
    chi = 1
    near = st.one_of(st.sampled_from(sorted(set(db.values()) | {phi})), st.integers(0, (1 << w) - 1))
    assert extract(db, n, phi, chi, w) == ref_extract(db, n, phi, chi, w)
    for completeness in (False, True):
        assert check_extract_lemma(db, n, w, chi, phi, completeness=completeness) == \
            ref_check_extract_lemma(db, n, w, chi, phi, completeness)
    entries = _label_entries_by_vertex(_parse_log(db, w), n, chi)
    ref_entries = ref_label_entries_by_vertex(db, n, w, chi)
    for v in dag.leaves(n):
        assert _consistent_path_exists(entries, n, phi, v) == \
            ref_consistent_path_exists(ref_entries, n, phi, v)
    extra = (data.draw(near),)
    assert check_leaves_lemma(db, n, w, chi, extra) == ref_leaves_lemma(db, n, w, chi, extra)
    leaf = data.draw(st.sampled_from(dag.leaves(n)))
    xs = [label_payload(chi, leaf, [data.draw(near) for _ in dag.in_neighbors(leaf, n)], w)]
    if db:
        xs.append(data.draw(st.sampled_from(sorted(db))))
    us = [data.draw(near) for _ in xs]
    assert check_newpath_lemma(db, xs, us, phi, chi, n, w) == \
        ref_check_newpath_lemma(db, xs, us, phi, chi, n, w)
