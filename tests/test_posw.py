"""Sequential-work protocol: DAG, backends, prover/verifier, wire format, and
the extraction lemmas."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from qromlab.posw import (
    CryptoBackend,
    PoswParams,
    PoswProof,
    TableBackend,
    challenge_payload,
    check_extract_lemma,
    check_leaves_lemma,
    check_newpath_lemma,
    compute_labeling,
    dag,
    db_has_collision,
    derive_challenge,
    deserialize_proof,
    extract,
    label_payload,
    longest_posw_chain,
    parse_challenge_payload,
    parse_label_payload,
    path_to_chain,
    prove,
    serialize_proof,
    verify,
)


def challenge_leaves_in_db(db: dict, n: int, w: int, chi: int, phi: int, t: int) -> list | None:
    """The t challenge leaves for phi if every needed challenge block is in the
    database; None when the challenge was never queried."""
    bits = ""
    counter = 0
    while len(bits) < t * n:
        payload = challenge_payload(chi, phi, counter, w)
        if payload not in db:
            return None
        bits += format(db[payload], f"0{w}b")
        counter += 1
    return [bits[i * n : (i + 1) * n] for i in range(t)]


GOLDEN_HEX = (
    "515053570102000100406aeb572c002e4db579b088840129114e18742900f844c422"
    "f0239bc252ad530d5ade16230c7539a1"
)


class TestDag:
    def test_in_neighbor_examples(self):
        assert dag.in_neighbors("01", 2) == ["00"]
        assert dag.in_neighbors("11", 2) == ["0", "10"]
        assert dag.in_neighbors("00", 2) == []
        assert dag.in_neighbors("1", 2) == ["10", "11", "0"]
        assert dag.in_neighbors("", 2) == ["0", "1"]

    def test_skip_edges_enter_internal_vertices(self):
        """Skip edges enter internal vertices as well as leaves: "1" at depth 2
        gets the skip source "0" after its two children.  Cohen-Pietrzak's
        graph may add skip edges into leaves only; this graph keeps them on
        every vertex, and the golden proof digests depend on that choice."""
        assert dag.in_neighbors("1", 2) == ["10", "11", "0"]
        assert dag.in_neighbors("1", 3) == ["10", "11", "0"]
        assert dag.in_neighbors("11", 3) == ["110", "111", "0", "10"]

    def test_authentication_path_examples(self):
        assert dag.authentication_path("0", 1) == ["0", "1"]
        assert set(dag.authentication_path("11", 2)) == {"11", "1", "10", "0"}
        with pytest.raises(ValueError):
            dag.authentication_path("0", 2)

    def test_authentication_path_size(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 5):
            for _ in range(5):
                v = format(rng.getrandbits(n), f"0{n}b")
                path = dag.authentication_path(v, n)
                assert len(path) == 2 * n
                assert len(set(path)) == 2 * n

    def test_prover_order(self):
        assert dag.prover_order(1) == ["0", "1", ""]
        assert dag.prover_order(2) == ["00", "01", "0", "10", "11", "1", ""]

    def test_prover_order_respects_dependencies(self):
        for n in (1, 2, 3, 4):
            order = dag.prover_order(n)
            position = {v: i for i, v in enumerate(order)}
            for v in order:
                for u in dag.in_neighbors(v, n):
                    assert position[u] < position[v]

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            dag.in_neighbors("012", 3)
        with pytest.raises(ValueError):
            dag.in_neighbors("0000", 3)


class TestBackend:
    def test_payload_round_trip(self):
        payload = label_payload(0x12, "01", (3, 200), 8)
        assert parse_label_payload(payload, 8) == (0x12, "01", (3, 200))
        cpayload = challenge_payload(0x12, 0x34, 7, 8)
        assert parse_challenge_payload(cpayload, 8) == (0x12, 0x34, 7)

    def test_parse_rejects_foreign_bytes(self):
        assert parse_label_payload(b"\x01\x00\x00", 8) is None
        assert parse_challenge_payload(b"\x00" * 7, 8) is None

    def test_width_guard(self):
        with pytest.raises(ValueError):
            TableBackend(4)
        with pytest.raises(ValueError):
            label_payload(0, "0", (256,), 8)

    def test_table_backend_caches(self):
        be = TableBackend(16, seed=1)
        a = be.label_query("0", label_payload(1, "0", [], 16))
        b = be.label_query("0", label_payload(1, "0", [], 16))
        assert a == b
        assert [e.fresh for e in be.trace] == [True, False]

    def test_crypto_backend_is_reproducible(self):
        one = CryptoBackend(16, key=b"k").label_query("0", label_payload(1, "0", [], 16))
        two = CryptoBackend(16, key=b"k").label_query("0", label_payload(1, "0", [], 16))
        assert one == two
        other = CryptoBackend(16, key=b"other").label_query("0", label_payload(1, "0", [], 16))
        assert other != one or True  # different keys may rarely collide at w=16

    def test_crypto_wide_labels_expand(self):
        value = CryptoBackend(512).label_query("0", label_payload(0, "0", [], 512))
        assert 0 <= value < 1 << 512


class TestLabeling:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_trace_has_one_query_per_vertex(self, n):
        params = PoswParams(n=n, w=16)
        be = TableBackend(16, seed=n)
        compute_labeling(3, params, be)
        assert len(be.trace) == 2 ** (n + 1) - 1
        assert [e.vertex for e in be.trace] == dag.prover_order(n)
        assert all(e.kind == "label" and e.fresh for e in be.trace)

    def test_labels_satisfy_equations(self):
        params = PoswParams(n=3, w=16)
        be = TableBackend(16, seed=5)
        labels = compute_labeling(2, params, be)
        db = be.database()
        for v in dag.all_vertices(3):
            ins = [labels[u] for u in dag.in_neighbors(v, 3)]
            assert db[label_payload(2, v, ins, 16)] == labels[v]


class TestChallenge:
    def test_single_bit_selects_leaf(self):
        for seed in range(6):
            be = TableBackend(8, seed=seed)
            (leaf,) = derive_challenge(chi=1, phi=2, t=1, n=1, backend=be)
            assert leaf in ("0", "1")

    def test_pinned_regression(self):
        be = TableBackend(16, seed=11)
        assert derive_challenge(chi=5, phi=99, t=2, n=2, backend=be) == ["01", "11"]

    def test_leaves_always_valid(self):
        for seed in range(10):
            be = TableBackend(8, seed=seed)
            leaves = derive_challenge(chi=0, phi=seed, t=3, n=4, backend=be)
            assert all(len(v) == 4 and set(v) <= {"0", "1"} for v in leaves)

    def test_counted_as_one_logical_query(self):
        be = TableBackend(8, seed=1)
        derive_challenge(chi=7, phi=3, t=2, n=5, backend=be)  # needs 10 > 8 bits
        assert len(be.trace) == 1
        entry = be.trace[0]
        assert entry.kind == "challenge" and entry.invocations == 2

    @pytest.mark.parametrize("kind", ["table", "crypto"])
    def test_every_block_counts_as_framed(self, kind):
        """t * n = 160 bits take three 64-bit blocks, each framed."""
        be = TableBackend(64, seed=1) if kind == "table" else CryptoBackend(64)
        derive_challenge(chi=7, phi=3, t=32, n=5, backend=be)
        blocks = [challenge_payload(7, 3, counter, 64) for counter in range(3)]
        assert be.oracle_work() == (0, 3, sum(map(len, blocks)))

    @pytest.mark.parametrize("bits", [0, -1])
    @pytest.mark.parametrize("kind", ["table", "crypto"])
    def test_no_bits_is_refused_before_any_record(self, kind, bits):
        be = TableBackend(256, seed=1) if kind == "table" else CryptoBackend(256)
        payload = label_payload(1, "0", [], 256)
        be.label_query("0", payload)
        before = [(e.kind, e.vertex, e.payload, e.fresh, e.invocations) for e in be.trace]
        with pytest.raises(ValueError, match="at least 1 bit"):
            be.challenge_query(1, 2, bits)
        assert [(e.kind, e.vertex, e.payload, e.fresh, e.invocations) for e in be.trace] == before
        assert be.oracle_work() == (1, 1, len(payload))
        # nothing was evaluated either: the first block is still fresh
        be.challenge_query(1, 2, 1)
        assert be.trace[-1].fresh


class TestProveVerify:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("t", range(1, 5))
    @pytest.mark.parametrize("backend_kind", ["table", "crypto"])
    def test_completeness(self, n, t, backend_kind):
        params = PoswParams(n=n, w=16)
        be = TableBackend(16, seed=n * 10 + t) if backend_kind == "table" else CryptoBackend(16)
        proof = prove(chi=0xAB, params=params, t=t, backend=be)
        assert verify(0xAB, params, t, proof, be).accepted

    def test_proof_is_deterministic_for_seed(self):
        params = PoswParams(n=3, w=32)
        one = prove(7, params, 2, TableBackend(32, seed=9))
        two = prove(7, params, 2, TableBackend(32, seed=9))
        assert one == two

    def test_trace_accounting(self):
        params = PoswParams(n=3, w=16)
        be = TableBackend(16, seed=2)
        prove(chi=1, params=params, t=2, backend=be)
        labels = [e for e in be.trace if e.kind == "label"]
        challenges = [e for e in be.trace if e.kind == "challenge"]
        assert len(labels) == 15 and len(challenges) == 1
        assert be.trace[-1].kind == "challenge"
        position = {e.vertex: i for i, e in enumerate(labels)}
        for v in dag.all_vertices(3):
            for u in dag.in_neighbors(v, 3):
                assert position[u] < position[v]

    def test_parameter_mismatch_rejected(self):
        params = PoswParams(n=2, w=16)
        be = TableBackend(16, seed=0)
        proof = prove(1, params, 1, be)
        assert not verify(1, PoswParams(n=2, w=16), 2, proof, be).accepted
        wrong = PoswProof(n=proof.n, t=proof.t, w=proof.w, phi=proof.phi,
                          tau=(proof.tau[0][:-1],))
        result = verify(1, params, 1, wrong, be)
        assert not result.accepted and "malformed" in result.reason


class TestWireFormat:
    @staticmethod
    @given(st.integers(1, 4), st.integers(1, 3), st.sampled_from([8, 16, 31, 64]),
           st.integers(0))
    @hyp_settings(max_examples=40, deadline=None)
    def test_round_trip_on_random_proofs(n, t, w, raw):
        rng = random.Random(raw)
        phi = rng.getrandbits(w)
        tau = tuple(tuple(rng.getrandbits(w) for _ in range(2 * n)) for _ in range(t))
        proof = PoswProof(n=n, t=t, w=w, phi=phi, tau=tau)
        assert deserialize_proof(serialize_proof(proof)) == proof

    def pinned_proof(self):
        be = TableBackend(64, seed=20260810)
        params = PoswParams(n=2, w=64)
        return prove(chi=0xC0FFEE, params=params, t=1, backend=be), be, params

    def test_round_trip(self):
        proof, _, _ = self.pinned_proof()
        assert deserialize_proof(serialize_proof(proof)) == proof

    def test_golden_vector(self):
        proof, _, _ = self.pinned_proof()
        assert serialize_proof(proof).hex() == GOLDEN_HEX

    def test_header_errors(self):
        blob = bytes.fromhex(GOLDEN_HEX)
        with pytest.raises(ValueError):
            deserialize_proof(blob[:-1])  # truncation
        with pytest.raises(ValueError):
            deserialize_proof(b"XXXX" + blob[4:])  # magic
        with pytest.raises(ValueError):
            deserialize_proof(blob[:4] + b"\x02" + blob[5:])  # version
        mangled = bytearray(blob)
        mangled[6] = 0xFF  # t header no longer matches the byte count
        with pytest.raises(ValueError):
            deserialize_proof(bytes(mangled))

    @pytest.mark.parametrize("field, value", [("t", 70000), ("n", 256), ("w", 1 << 16), ("t", -1)])
    def test_header_refuses_fields_it_cannot_hold(self, field, value):
        proof = {"n": 1, "t": 1, "w": 8, "phi": 0, "tau": ((0, 0),)}
        proof[field] = value
        with pytest.raises(ValueError, match=f"proof header cannot hold {field}={value}"):
            serialize_proof(PoswProof(**proof))


class TestSoundnessSmoke:
    def test_every_single_bit_corruption_rejected(self):
        be = TableBackend(64, seed=20260810)
        params = PoswParams(n=2, w=64)
        proof = prove(chi=0xC0FFEE, params=params, t=1, backend=be)
        # every bit of phi
        for bit in range(64):
            bad = proof.__class__(n=2, t=1, w=64, phi=proof.phi ^ (1 << bit), tau=proof.tau)
            assert not verify(0xC0FFEE, params, 1, bad, be).accepted
        # every bit of every opened label
        for j in range(4):
            for bit in range(64):
                opening = list(proof.tau[0])
                opening[j] ^= 1 << bit
                bad = proof.__class__(n=2, t=1, w=64, phi=proof.phi, tau=(tuple(opening),))
                assert not verify(0xC0FFEE, params, 1, bad, be).accepted

    def test_blind_guessing_never_wins_at_scale(self):
        params = PoswParams(n=3, w=16)
        be = TableBackend(16, seed=77)
        rng = random.Random(1)
        wins = 0
        for _ in range(2000):
            phi = rng.getrandbits(16)
            tau = tuple(tuple(rng.getrandbits(16) for _ in range(6)) for _ in range(2))
            proof = PoswProof(n=3, t=2, w=16, phi=phi, tau=tau)
            if verify(0xAB, params, 2, proof, be).accepted:
                wins += 1
        assert wins == 0

    def test_blind_guessing_harness_is_live_at_toy_width(self):
        # at w=8, n=1, t=1 the same attacker wins sometimes, confirming the
        # rejection above is not an artifact of the harness
        params = PoswParams(n=1, w=8)
        rng = random.Random(2)
        wins = 0
        trials = 3000
        for i in range(trials):
            be = TableBackend(8, seed=10_000 + i)
            phi = rng.getrandbits(8)
            tau = ((rng.getrandbits(8), rng.getrandbits(8)),)
            if verify(0xAB, params, 1, PoswProof(n=1, t=1, w=8, phi=phi, tau=tau), be).accepted:
                wins += 1
        # success needs 2 independent fresh 8-bit equations: p = 2^-16 per trial
        assert wins <= 3


class TestExtraction:
    def honest(self, n=2, w=16, chi=9, seed=3, t=1):
        be = TableBackend(w, seed=seed)
        proof = prove(chi=chi, params=PoswParams(n=n, w=w), t=t, backend=be)
        return be.database(), proof

    def test_empty_database(self):
        res = extract({}, 2, 0, 9, 16)
        assert res.tree == {dag.ROOT}
        assert not [v for v in res.tree if dag.is_leaf(v, 2)]

    def test_honest_database_extracts_full_tree(self):
        db, proof = self.honest()
        res = extract(db, 2, proof.phi, 9, 16)
        assert res.tree == set(dag.all_vertices(2))
        assert not res.collision
        assert len([v for v in res.tree if dag.is_leaf(v, 2)]) == 4

    def test_wrong_root_label_extracts_nothing(self):
        db, proof = self.honest()
        res = extract(db, 2, proof.phi ^ 1, 9, 16)
        assert res.tree == {dag.ROOT}

    def test_inconsistent_leaf_is_removed(self):
        db, proof = self.honest()
        res = extract(db, 2, proof.phi, 9, 16)
        leaf = "11"
        payload = label_payload(9, leaf, [res.labels[u] for u in dag.in_neighbors(leaf, 2)], 16)
        corrupted = dict(db)
        corrupted[payload] ^= 1
        res2 = extract(corrupted, 2, proof.phi, 9, 16)
        assert leaf not in res2.tree
        assert res2.tree | {leaf} == res.tree

    def test_collision_flag_on_ambiguous_decomposition(self):
        db, proof = self.honest()
        # add a second root-valued entry with different children labels
        extra = label_payload(9, "", [0xAAAA, 0xBBBB], 16)
        assert extra not in db
        forged = dict(db)
        forged[extra] = proof.phi
        res = extract(forged, 2, proof.phi, 9, 16)
        assert res.collision

    def test_extract_lemma_random_sweep(self):
        rng = random.Random(5)
        count = 0
        for _ in range(400):
            db = random_db(rng, n=2, w=8, chi=9)
            if db_has_collision(db, 8):
                continue
            assert check_extract_lemma(db, 2, 8, 9, rng.getrandbits(8))
            count += 1
        assert count > 200

    def test_extract_lemma_completeness_statistical_depth_two(self):
        # with 2-bit labels the no-consistent-labeling direction is still
        # exhaustively searchable at depth 2 (at most 4^4 assignments per leaf)
        rng = random.Random(6)
        count = 0
        while count < 150:
            db = random_db(rng, n=2, w=2, chi=1, max_entries=6)
            if db_has_collision(db, 2):
                continue
            assert check_extract_lemma(db, 2, 2, 1, rng.getrandbits(2), completeness=True)
            count += 1


def random_db(rng, n, w, chi, max_entries=None):
    """Random query log over honestly-shaped label inputs (values arbitrary)."""
    vertices = dag.all_vertices(n)
    db = {}
    for _ in range(rng.randrange(1, max_entries or 3 * len(vertices))):
        v = vertices[rng.randrange(len(vertices))]
        arity = len(dag.in_neighbors(v, n))
        labels = tuple(rng.getrandbits(w) for _ in range(arity))
        db[label_payload(chi, v, labels, w)] = rng.getrandbits(w)
    return db


class TestChainMachinery:
    def test_empty_db_has_no_chain(self):
        assert longest_posw_chain({}, 2, 16) == 0.0

    def test_single_entry_has_free_hop(self):
        db = {label_payload(9, "0", [], 16): 0x1234}
        assert longest_posw_chain(db, 1, 16) == 1.0

    def test_honest_database_chain_equals_full_path(self):
        be = TableBackend(16, seed=3)
        compute_labeling(9, PoswParams(n=2, w=16), be)
        # the post-order path visits all 7 vertices (6 edges) and the final
        # vertex value still admits a free hop
        assert longest_posw_chain(be.database(), 2, 16) == 7.0

    def test_cycle_reports_inf(self):
        # entry whose value appears among its own label slots
        payload = label_payload(9, "1", [0x42], 16)
        assert math.isinf(longest_posw_chain({payload: 0x42}, 1, 16))

    def test_path_to_chain_examples(self):
        be = TableBackend(16, seed=4)
        labels = compute_labeling(7, PoswParams(n=1, w=16), be)
        assert len(path_to_chain(labels, [""], 1, 7, 16)) == 1  # 0-chain
        chain = path_to_chain(labels, ["0", ""], 1, 7, 16, db=be.database())
        assert chain[1] == ("", (labels["0"], labels["1"]))
        with pytest.raises(ValueError):
            path_to_chain(labels, ["1", "0"], 1, 7, 16)  # not a DAG edge
        broken = dict(labels)
        broken["0"] ^= 1
        with pytest.raises(ValueError):
            path_to_chain(broken, ["0", ""], 1, 7, 16, db=be.database())

    def test_chain_lengths_match_extracted_paths(self):
        db, proof = TestExtraction().honest(n=2)
        res = extract(db, 2, proof.phi, 9, 16)
        chain = path_to_chain(res.labels, ["00", "01", "0", "10", "11", "1", ""],
                              2, 9, 16, db=db)
        assert len(chain) == 7

    def test_chain_length_agrees_with_generic_evaluator(self):
        # Bridge the protocol database into the abstract property machinery:
        # inputs are the label payloads, values the w-bit labels, and the link
        # relation "value appears among the payload's slots".  Both chain
        # evaluators must agree, including the unbounded-cycle case.
        from qromlab.groups import GroupSpec
        from qromlab.oracle import Database, OracleDomain
        from qromlab.properties import ChainRelation, longest_chain_length

        chi, n, w = 1, 1, 2
        payloads = []
        for v in dag.all_vertices(n):
            arity = len(dag.in_neighbors(v, n))
            for labels in itertools.product(range(4), repeat=arity):
                payloads.append(label_payload(chi, v, labels, w))
        domain = OracleDomain(tuple(payloads), GroupSpec.bits(w))
        rel = ChainRelation(
            "custom",
            fn=lambda y, x: (lambda parsed: parsed is not None and y in parsed[2])(
                parse_label_payload(x, w)),
        )
        rng = random.Random(42)
        for _ in range(200):
            support = rng.sample(payloads, rng.randrange(0, 5))
            db = {p: rng.getrandbits(w) for p in support}
            bridged = Database.from_entries(domain, db)
            assert longest_posw_chain(db, n, w) == longest_chain_length(bridged, rel)


class TestLeavesLemma:
    def test_empty_database(self):
        # no chain (q=0): any claimed root extracts zero leaves, 0 <= 1
        assert check_leaves_lemma({}, 2, 8, 9, extra_phis=(0x3C,))

    def test_honest_database_vacuous_via_long_chain(self):
        be = TableBackend(16, seed=3)
        compute_labeling(9, PoswParams(n=2, w=16), be)
        # q = 7 gives limit 4.5 >= 4 leaves; the lemma holds non-vacuously
        assert check_leaves_lemma(be.database(), 2, 16, 9)

    def test_random_sweep(self):
        rng = random.Random(6)
        for _ in range(1000):
            db = random_db(rng, n=2, w=8, chi=9)
            assert check_leaves_lemma(db, 2, 8, 9, extra_phis=(rng.getrandbits(8),))


class TestNewPathLemma:
    def test_unchanged_update_is_vacuous(self):
        db, proof = TestExtraction().honest(n=1, w=16)
        payload = next(iter(db))
        assert check_newpath_lemma(db, [payload], [db[payload]], proof.phi, 9, 1, 16)

    def test_constructed_single_leaf_gain(self):
        # build a database missing one leaf entry; adding it gains that leaf
        chi, w = 9, 16
        be = TableBackend(w, seed=12)
        labels = compute_labeling(chi, PoswParams(n=1, w=w), be)
        db = be.database()
        missing = label_payload(chi, "1", [labels["0"]], w)
        pruned = {k: v for k, v in db.items() if k != missing}
        assert check_newpath_lemma(pruned, [missing], [labels["1"]], labels[""], chi, 1, w)
        base = extract(pruned, 1, labels[""], chi, w)
        gained = extract(db, 1, labels[""], chi, w)
        assert "1" not in base.tree and "1" in gained.tree

    def test_random_sweep(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(800):
            db = random_db(rng, n=2, w=8, chi=9)
            if db_has_collision(db, 8):
                continue
            v = format(rng.getrandbits(2), "02b")
            arity = len(dag.in_neighbors(v, 2))
            xs = [label_payload(9, v, tuple(rng.getrandbits(8) for _ in range(arity)), 8)]
            us = [rng.getrandbits(8)]
            assert check_newpath_lemma(db, xs, us, rng.getrandbits(8), 9, 2, 8)
            checked += 1
        assert checked > 400


class TestChallengeFamilyToy:
    """Exhaustive pair loop at n=1: the challenge-window local family weakly
    recognizes the fail-to-success transition."""

    def setup_db(self, seed):
        chi, n, w = 3, 1, 8
        rng = random.Random(seed)
        db = random_db(rng, n, w, chi, max_entries=5)
        return chi, n, w, db

    @staticmethod
    def succeeds(db, n, w, chi, t=1):
        for phi in sorted(set(db.values())) + [0]:
            leaves = challenge_leaves_in_db(db, n, w, chi, phi, t)
            if leaves is None:
                continue
            res = extract(db, n, phi, chi, w)
            if set(leaves) <= {v for v in res.tree if dag.is_leaf(v, n)}:
                return True
        return False

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_pair_loop(self, seed):
        chi, n, w, db = self.setup_db(seed)
        if db_has_collision(db, w):
            return
        phi_star = 7
        window = challenge_payload(chi, phi_star, 0, w)
        exterior = {k: v for k, v in db.items() if k != window}
        res = extract(exterior, n, phi_star, chi, w)
        allowed = {v for v in res.tree if dag.is_leaf(v, n)}
        values = list(range(1 << w)) + [None]
        for r in values:
            d_r = dict(exterior)
            if r is not None:
                d_r[window] = r
            if self.succeeds(d_r, n, w, chi) or db_has_collision(d_r, w):
                continue
            for u in range(1 << w):
                d_u = dict(exterior)
                d_u[window] = u
                if not self.succeeds(d_u, n, w, chi) or db_has_collision(d_u, w):
                    continue
                # the family membership: the leaf named by u lies in the
                # extractable set of the window-cleared database
                leaf = format(u >> (w - n), f"0{n}b")
                assert r != u
                assert leaf in allowed
