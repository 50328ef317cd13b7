"""Differential tests for byte-framed PoSW label queries.

The prover and verifier frame every label query from label bytes encoded once
(the prover keeps per-depth child labels and skip-edge bodies for its root
path, the verifier builds an opening's skip bodies once, top down) and from
each vertex's depth and index.  The int-framed prover and verifier loop they
replaced, which framed each query with `label_payload` from int labels and
vertex strings, are kept here as the reference: every query must keep the
same vertex, payload bytes, freshness and order, and every proof and verdict
must be equal; depths 9 and 10 are run because their indices take two bytes.
The crypto backend's counter-mode `while` loop is kept as the reference for
its one-pass evaluation, the per-field label-frame parser for the one-pass
`parse_label_payload`, and the recorder that appended one `TraceEntry` per
query, its fresh flag decided at query time, for the backends' columnar
trace, which derives freshness when it is read.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.posw import (
    CryptoBackend,
    PoswParams,
    PoswProof,
    RoBackend,
    TableBackend,
    VerifyResult,
    compute_labeling,
    dag,
    derive_challenge,
    challenge_payload,
    label_payload,
    parse_label_payload,
    prove,
    verify,
)
from qromlab.posw.backend import LABEL_TAG, TraceEntry, depth_prefixes, encode_vertex

WIDTHS = (8, 13, 16, 255, 256, 512)


# --- reference: int labels framed per query by label_payload ----------------

def ref_compute_labeling(chi, params, backend):
    if backend.w != params.w:
        raise ValueError("backend width does not match parameters")
    labels = {}
    for v in dag.prover_order(params.n):
        in_labels = [labels[u] for u in dag.in_neighbors(v, params.n)]
        labels[v] = backend.label_query(v, label_payload(chi, v, in_labels, params.w))
    return labels


def ref_prove(chi, params, t, backend):
    labels = ref_compute_labeling(chi, params, backend)
    phi = labels[dag.ROOT]
    challenge = derive_challenge(chi, phi, t, params.n, backend)
    tau = tuple(
        tuple(labels[u] for u in dag.authentication_path(v, params.n)) for v in challenge
    )
    return PoswProof(n=params.n, t=t, w=params.w, phi=phi, tau=tau)


def ref_verify(chi, params, t, proof, backend):
    if (proof.n, proof.t, proof.w) != (params.n, t, params.w):
        return VerifyResult(False, "malformed: parameter mismatch")
    if not 0 <= proof.phi < (1 << params.w):
        return VerifyResult(False, "malformed: commitment out of range")
    if len(proof.tau) != t:
        return VerifyResult(False, "malformed: wrong number of openings")
    challenge = derive_challenge(chi, proof.phi, t, params.n, backend)
    for i, v in enumerate(challenge):
        path = dag.authentication_path(v, params.n)
        opening = proof.tau[i]
        if len(opening) != 2 * params.n:
            return VerifyResult(False, f"malformed: opening {i} has wrong length")
        if any(not 0 <= l < (1 << params.w) for l in opening):
            return VerifyResult(False, f"malformed: opening {i} label out of range")
        labels = dict(zip(path, opening))
        labels[dag.ROOT] = proof.phi
        for u in dag.ancestors(v):
            needed = dag.in_neighbors(u, params.n)
            if any(x not in labels for x in needed):
                return VerifyResult(False, f"malformed: opening {i} misses labels at {u or 'root'}")
            payload = label_payload(chi, u, [labels[x] for x in needed], params.w)
            if labels[u] != backend.label_query(u, payload):
                return VerifyResult(False, f"inconsistent at {u or 'root'}")
    return VerifyResult(True)


def ref_crypto_value(key, w, payload):
    stream = b""
    block = 0
    while 8 * len(stream) < w:
        stream += hashlib.sha256(key + payload + block.to_bytes(4, "big")).digest()
        block += 1
    return int.from_bytes(stream, "big") >> (8 * len(stream) - w)


# --- helpers -----------------------------------------------------------------

def make_backend(kind, w, seed):
    return TableBackend(w, seed=seed) if kind == "table" else CryptoBackend(w, key=b"k%d" % seed)


def trace_tuples(backend):
    return [(e.kind, e.vertex, e.payload, e.fresh, e.invocations) for e in backend.trace]


def statements(w, rng):
    return [0, 1, (1 << w) - 1, rng.getrandbits(w)]


def assert_verify_matches(chi, params, t, proof, kind, seed):
    """Verify `proof` with both verifiers, each on a backend that first ran the
    honest prover (so the table oracle agrees with it), and compare."""
    sides = []
    for prover, verifier in ((ref_prove, ref_verify), (prove, verify)):
        be = make_backend(kind, params.w, seed)
        prover(chi, params, t, be)
        be.reset_trace()
        sides.append((verifier(chi, params, t, proof, be), trace_tuples(be)))
    assert sides[0] == sides[1]
    return sides[1][0]


# --- honest runs --------------------------------------------------------------

# (n, w): every width at depths with one-byte vertex indices, two widths past them
HONEST_CASES = [(n, w) for n in range(1, 7) for w in WIDTHS] + [
    (n, w) for n in (9, 10) for w in (8, 256)]


@pytest.mark.parametrize("kind", ["table", "crypto"])
@pytest.mark.parametrize("n,w", HONEST_CASES)
def test_prove_and_verify_match_reference(kind, w, n):
    rng = random.Random(f"{kind}-{w}-{n}")
    params = PoswParams(n=n, w=w)
    for chi in statements(w, rng):
        t = rng.randrange(1, 6)
        seed = rng.randrange(1 << 16)
        ref_be, be = make_backend(kind, w, seed), make_backend(kind, w, seed)
        assert compute_labeling(chi, params, be) == ref_compute_labeling(chi, params, ref_be)
        assert trace_tuples(be) == trace_tuples(ref_be)
        ref_proof = ref_prove(chi, params, t, ref_be)
        proof = prove(chi, params, t, be)
        assert proof == ref_proof
        assert trace_tuples(be) == trace_tuples(ref_be)
        ref_result = ref_verify(chi, params, t, ref_proof, ref_be)
        result = verify(chi, params, t, proof, be)
        assert result == ref_result and result.accepted
        assert trace_tuples(be) == trace_tuples(ref_be)


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        compute_labeling(1, PoswParams(n=2, w=16), TableBackend(8))


def test_statement_wider_than_labels_raises():
    with pytest.raises(ValueError):
        compute_labeling(256, PoswParams(n=2, w=8), TableBackend(8))


def preload(backend: TableBackend, entries: dict) -> None:
    """Install database entries in a table backend directly."""
    backend._db.update(entries)


@pytest.mark.parametrize("w,bad", [(16, 1 << 16), (16, -1), (13, 1 << 13)])
def test_out_of_range_oracle_label_raises(w, bad):
    """A preloaded table can hold any value; at w=13 the value 2**13 still
    fits in the label's two bytes, so only the range check catches it."""
    n, chi = 3, 7
    be = TableBackend(w, seed=1)
    preload(be, {label_payload(chi, "0" * n, [], w): bad})
    with pytest.raises(ValueError, match=f"does not fit in {w} bits"):
        compute_labeling(chi, PoswParams(n=n, w=w), be)


@pytest.mark.parametrize("key", [b"", b"k"])
@pytest.mark.parametrize("w", [8, 13, 256, 257, 512])
def test_crypto_backend_matches_counter_loop(w, key):
    """w=257 is the first width that needs a second SHA-256 block."""
    be = CryptoBackend(w, key=key)
    payloads = [b"", b"a", bytes(40), b"a", bytes(range(200)), b"", bytes(40), b"b"]
    seen = set()
    for payload in payloads:
        assert be.label_query("0", payload) == ref_crypto_value(key, w, payload)
        assert be.trace[-1].fresh == (payload not in seen)
        seen.add(payload)


# --- tampered proofs ------------------------------------------------------------

def tamperings(proof, rng):
    """(name, tampered proof) pairs; every label stays a w-bit int unless the
    tampering is about range."""
    w, tau = proof.w, proof.tau
    i = rng.randrange(len(tau))
    j = rng.randrange(len(tau[i]))
    bit = 1 << rng.randrange(w)
    flipped = tau[:i] + (tau[i][:j] + (tau[i][j] ^ bit,) + tau[i][j + 1:],) + tau[i + 1:]
    yield "flipped label bit", dataclasses.replace(proof, tau=flipped)
    if len(tau) > 1:
        yield "swapped openings", dataclasses.replace(proof, tau=(tau[1], tau[0]) + tau[2:])
    yield "phi changed", dataclasses.replace(proof, phi=proof.phi ^ bit)
    yield "phi out of range", dataclasses.replace(proof, phi=1 << w)
    for bad in (1 << w, -1):
        wide = tau[:i] + (tau[i][:j] + (bad,) + tau[i][j + 1:],) + tau[i + 1:]
        yield "label out of range", dataclasses.replace(proof, tau=wide)
    yield "short opening", dataclasses.replace(proof, tau=(tau[0][:-1],) + tau[1:])
    yield "missing opening", dataclasses.replace(proof, tau=tau[:-1])


MALFORMED = {
    "phi out of range": "commitment out of range",
    "label out of range": "label out of range",
    "short opening": "has wrong length",
    "missing opening": "wrong number of openings",
}


@pytest.mark.parametrize("kind", ["table", "crypto"])
@pytest.mark.parametrize("w", WIDTHS)
def test_tampered_proofs_match_reference(kind, w):
    rng = random.Random(f"tamper-{kind}-{w}")
    reasons = set()
    for n in range(1, 7):
        params = PoswParams(n=n, w=w)
        for chi in statements(w, rng)[:2]:
            t = rng.randrange(2, 5)
            seed = rng.randrange(1 << 16)
            proof = prove(chi, params, t, make_backend(kind, w, seed))
            for name, bad in tamperings(proof, rng):
                result = assert_verify_matches(chi, params, t, bad, kind, seed)
                if name in MALFORMED:
                    assert result.reason.endswith(MALFORMED[name])
                reasons.add(result.reason.split(" ")[0] if result.reason else None)
    assert {"inconsistent", "malformed:"} <= reasons


def test_out_of_range_opening_label_is_reported_before_any_query():
    params = PoswParams(n=3, w=16)
    be = TableBackend(16, seed=4)
    proof = prove(5, params, 2, be)
    bad = dataclasses.replace(proof, tau=((1 << 16,) + proof.tau[0][1:],) + proof.tau[1:])
    be.reset_trace()
    result = verify(5, params, 2, bad, be)
    assert result == VerifyResult(False, "malformed: opening 0 label out of range")
    assert [e.kind for e in be.trace] == ["challenge"]


def single_tampers(proof):
    """Every opening label XOR 1 in turn, then phi XOR 1."""
    tau = proof.tau
    for i, opening in enumerate(tau):
        for j in range(len(opening)):
            flipped = opening[:j] + (opening[j] ^ 1,) + opening[j + 1:]
            yield dataclasses.replace(proof, tau=tau[:i] + (flipped,) + tau[i + 1:])
    yield dataclasses.replace(proof, phi=proof.phi ^ 1)


@pytest.mark.parametrize("kind", ["table", "crypto"])
@pytest.mark.parametrize("w", [8, 256])
@pytest.mark.parametrize("t", [2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_single_tamper_matches_reference(kind, w, t, n):
    """Exhaustive over single-label tamperings; at n=1 and t=5 challenge
    leaves repeat, so repeated openings and repeated queries are covered."""
    params, chi, seed = PoswParams(n=n, w=w), 3, 11
    proof = prove(chi, params, t, make_backend(kind, w, seed))
    rejected = 0
    for bad in single_tampers(proof):
        rejected += not assert_verify_matches(chi, params, t, bad, kind, seed).accepted
    assert rejected


@pytest.mark.parametrize("kind", ["table", "crypto"])
@pytest.mark.parametrize("w", [8, 256])
@pytest.mark.parametrize("n", [9, 10])
def test_single_tampers_past_one_byte_indices(kind, w, n):
    """A sample of the single tamperings, at depths whose vertex indices take
    two bytes: opening positions 0 and 1 (the root's children), n (mid-path)
    and 2n - 1 (depth n) of both openings, then phi."""
    params, chi, seed = PoswParams(n=n, w=w), 5, 13
    proof = prove(chi, params, 2, make_backend(kind, w, seed))
    tampers = list(single_tampers(proof))
    picked = [tampers[i * 2 * n + j] for i in range(2) for j in (0, 1, n, 2 * n - 1)]
    for bad in picked + tampers[-1:]:
        assert not assert_verify_matches(chi, params, 2, bad, kind, seed).accepted


@st.composite
def depth_indices(draw):
    d = draw(st.integers(0, 255))
    return d, draw(st.integers(0, (1 << d) - 1))


@settings(max_examples=400, deadline=None)
@given(depth_indices(), st.binary(max_size=40))
def test_index_form_equals_encode_vertex(vertex, head):
    d, j = vertex
    v = format(j, f"0{d}b") if d else ""
    assert depth_prefixes(head, d)[d] + j.to_bytes((d + 7) // 8, "big") == head + encode_vertex(v)


def test_index_form_refuses_depth_256_as_encode_vertex_does():
    with pytest.raises(ValueError) as by_index:
        depth_prefixes(b"", 256)
    with pytest.raises(ValueError) as by_string:
        encode_vertex("0" * 256)
    assert str(by_index.value) == str(by_string.value)


@pytest.mark.parametrize("n", range(1, 9))
def test_authentication_path_holds_every_in_neighbour(n):
    """The verifier frames each ancestor of a challenge leaf from the opening
    alone, so an opening of full length never misses a label: every
    in-neighbour of every ancestor lies on the leaf's authentication path."""
    for leaf in dag.leaves(n):
        path = set(dag.authentication_path(leaf, n))
        for u in dag.ancestors(leaf):
            assert set(dag.in_neighbors(u, n)) <= path, (leaf, u)


# --- reference: one TraceEntry appended per query ---------------------------

class RefRecorder:
    """The trace as a list grown by one TraceEntry per logical query, each
    fresh flag decided at query time by the rules the backends once applied:
    the crypto oracle's payload is fresh when its own set of the payloads it
    evaluated lacks it, the table oracle's when its database lacks it before
    the call.  It evaluates through its own backend's `_evaluate`, which
    records nothing."""

    def __init__(self, backend):
        self.backend = backend
        self.seen = set()
        self.trace = []

    def _evaluate(self, payload):
        if isinstance(self.backend, TableBackend):
            fresh = payload not in self.backend._db
        else:
            fresh = payload not in self.seen
            self.seen.add(payload)
        return self.backend._evaluate(payload), fresh

    def label_query(self, v, payload):
        value, fresh = self._evaluate(payload)
        self.trace.append(TraceEntry("label", v, payload, fresh))
        return value

    def challenge_query(self, chi, phi, bits_needed):
        w = self.backend.w
        blocks = []
        counter = 0
        first_payload = None
        any_fresh = False
        while len(blocks) * w < bits_needed:
            payload = challenge_payload(chi, phi, counter, w)
            if first_payload is None:
                first_payload = payload
            value, fresh = self._evaluate(payload)
            any_fresh = any_fresh or fresh
            blocks.append(format(value, f"0{w}b"))
            counter += 1
        self.trace.append(TraceEntry("challenge", None, first_payload, any_fresh, invocations=counter))
        return "".join(blocks)[:bits_needed]

    def reset_trace(self):
        self.trace = []


# a few payloads and statements, so that repeats (fresh False) are common
trace_ops = st.lists(st.one_of(
    st.tuples(st.just("label"), st.sampled_from(["", "0", "01", "1101"]),
              st.binary(max_size=3).map(lambda b: LABEL_TAG + b)),
    st.tuples(st.just("challenge"), st.integers(0, 2), st.integers(0, 2), st.integers(1, 600)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("read")),
), max_size=40)


def oracle_work_of(trace):
    return (sum(1 for e in trace if e.kind == "label"), sum(e.invocations for e in trace),
            sum(len(e.payload) * e.invocations for e in trace))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["table", "crypto"]), st.sampled_from([8, 256, 257]), trace_ops)
def test_columnar_trace_matches_per_query_entries(kind, w, ops):
    """w=257 takes two SHA-256 blocks per invocation, and a challenge of more
    than w bits takes more than one invocation."""
    be, ref = make_backend(kind, w, 3), RefRecorder(make_backend(kind, w, 3))
    for op, *args in ops:
        if op == "label":
            assert be.label_query(*args) == ref.label_query(*args)
        elif op == "challenge":
            assert be.challenge_query(*args) == ref.challenge_query(*args)
        elif op == "reset":
            be.reset_trace()
            ref.reset_trace()
        else:
            first = be.trace
            assert be.trace is first
            assert trace_tuples(be) == trace_tuples(ref)
            assert be.oracle_work() == oracle_work_of(ref.trace)
    assert trace_tuples(be) == trace_tuples(ref)
    assert be.oracle_work() == oracle_work_of(ref.trace)


@pytest.mark.parametrize("kind", ["table", "crypto"])
def test_trace_read_is_refreshed_by_the_next_query(kind):
    be = make_backend(kind, 8, 1)
    be.label_query("0", LABEL_TAG + b"a")
    first = be.trace
    assert be.trace is first and [e.vertex for e in first] == ["0"]
    be.challenge_query(1, 2, 9)
    be.label_query("1", LABEL_TAG + b"a")
    assert [(e.kind, e.vertex, e.invocations) for e in be.trace] == [
        ("label", "0", 1), ("challenge", None, 2), ("label", "1", 1)]
    assert [e.fresh for e in be.trace] == [True, True, False]
    be.reset_trace()
    assert be.trace == [] and be.oracle_work() == (0, 0, 0)


@pytest.mark.parametrize("read_first", [True, False])
@pytest.mark.parametrize("kind", ["table", "crypto"])
def test_freshness_carries_across_a_reset(kind, read_first):
    """A reset answers the slots no read covered, so an honest verify on the
    prover's backend repeats every payload the prover evaluated."""
    params, t = PoswParams(n=3, w=16), 4
    be = make_backend(kind, params.w, 5)
    proof = prove(7, params, t, be)
    if read_first:
        assert all(e.fresh for e in be.trace)
    be.reset_trace()
    assert verify(7, params, t, proof, be).accepted
    assert be.trace[0].kind == "challenge"
    assert len(be.trace) == 1 + t * (params.n + 1)
    assert not any(e.fresh for e in be.trace)


def test_label_query_is_defined_once():
    """The traced run wraps `RoBackend.label_query`; an override in a backend
    would bypass that wrapper."""
    assert "label_query" in vars(RoBackend)
    assert "label_query" not in vars(CryptoBackend)
    assert "label_query" not in vars(TableBackend)


def test_prover_walks_the_dag_helpers(monkeypatch):
    """The prover takes its order and its openings from the DAG module: one
    prover_order walk and one authentication_path per challenge leaf."""
    calls = {"prover_order": 0, "authentication_path": 0}
    for name in calls:
        original = getattr(dag, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dag, name, counting)
    prove(7, PoswParams(n=3, w=16), 5, TableBackend(16, seed=1))
    assert calls == {"prover_order": 1, "authentication_path": 5}


# --- reference: the per-field label-frame parser ----------------------------

def ref_label_from_bytes(data, w):
    if len(data) != (w + 7) // 8:
        raise ValueError("label has the wrong byte length")
    value = int.from_bytes(data, "big")
    if value >> w:
        raise ValueError(f"label bytes exceed {w} bits")
    return value


def ref_decode_vertex(data):
    if not data:
        raise ValueError("empty vertex encoding")
    depth = data[0]
    nbytes = (depth + 7) // 8
    if len(data) < 1 + nbytes:
        raise ValueError("truncated vertex encoding")
    if depth == 0:
        return "", 1
    value = int.from_bytes(data[1 : 1 + nbytes], "big")
    if value >> depth:
        raise ValueError("vertex padding bits must be zero")
    return format(value, f"0{depth}b"), 1 + nbytes


def ref_parse_label_payload(payload, w):
    nb = (w + 7) // 8
    if len(payload) < 1 + nb + 1 or payload[:1] != LABEL_TAG:
        return None
    try:
        chi = ref_label_from_bytes(payload[1 : 1 + nb], w)
        v, used = ref_decode_vertex(payload[1 + nb :])
        rest = payload[1 + nb + used :]
        if len(rest) % nb:
            return None
        labels = tuple(
            ref_label_from_bytes(rest[i : i + nb], w) for i in range(0, len(rest), nb)
        )
    except ValueError:
        return None
    return chi, v, labels


# byte-aligned and unaligned widths, the edges of the admitted range included,
# and the widths below one byte that backends refuse but the lemma checks
# parse logs at (the n=1, w=2 sweep among them), where a label is one byte
PARSE_WIDTHS = st.one_of(st.sampled_from([8, 9, 13, 15, 16, 17, 255, 256, 257, 511, 512]),
                         st.integers(8, 512), st.integers(1, 7))


@st.composite
def label_frames(draw):
    """(payload, w): a label frame, possibly mutated into a malformed one."""
    w = draw(PARSE_WIDTHS)
    nb = (w + 7) // 8
    depth = draw(st.integers(0, 24))
    v = format(draw(st.integers(0, (1 << depth) - 1)), f"0{depth}b") if depth else ""
    labels = draw(st.lists(st.integers(0, (1 << w) - 1), max_size=5))
    payload = bytearray(label_payload(draw(st.integers(0, (1 << w) - 1)), v, labels, w))
    vertex_end = nb + 2 + (depth + 7) // 8
    mutation = draw(st.sampled_from(
        ["none", "flip", "truncate", "extend", "vertex padding", "label padding",
         "statement padding", "depth", "tag"]))
    if mutation == "flip":
        i = draw(st.integers(0, len(payload) - 1))
        payload[i] ^= 1 << draw(st.integers(0, 7))
    elif mutation == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif mutation == "extend":
        payload += draw(st.binary(min_size=1, max_size=2 * nb + 1))
    elif mutation == "vertex padding" and depth % 8:
        payload[vertex_end - 1] |= 1 << draw(st.integers(0, 7 - depth % 8))
    elif mutation == "label padding" and labels and w % 8:
        i = vertex_end + nb * draw(st.integers(0, len(labels) - 1))
        payload[i] |= 0x80 >> draw(st.integers(0, 7 - w % 8))
    elif mutation == "statement padding" and w % 8:
        payload[1] |= 0x80 >> draw(st.integers(0, 7 - w % 8))
    elif mutation == "depth":
        payload[nb + 1] = draw(st.integers(0, 255))
    elif mutation == "tag":
        payload[0] = draw(st.integers(1, 255))
    return bytes(payload), w


@settings(max_examples=600, deadline=None)
@given(label_frames())
def test_parser_matches_reference_on_mutated_frames(frame):
    payload, w = frame
    assert parse_label_payload(payload, w) == ref_parse_label_payload(payload, w)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=80), PARSE_WIDTHS)
def test_parser_matches_reference_on_random_bytes(payload, w):
    assert parse_label_payload(payload, w) == ref_parse_label_payload(payload, w)
    tagged = LABEL_TAG + payload
    assert parse_label_payload(tagged, w) == ref_parse_label_payload(tagged, w)


@settings(max_examples=150, deadline=None)
@given(PARSE_WIDTHS, st.data())
def test_parser_refuses_challenge_frames(w, data):
    chi, phi = (data.draw(st.integers(0, (1 << w) - 1)) for _ in range(2))
    payload = challenge_payload(chi, phi, data.draw(st.integers(0, 2**32 - 1)), w)
    assert parse_label_payload(payload, w) is None
    assert ref_parse_label_payload(payload, w) is None
