"""Acceptance gate: one test per criterion, printed as a pass line with its
measured runtime.  Tolerances and runtime caps are the contract; nothing here
is calibrated after the fact."""

import itertools
import math
import random
import time

import numpy as np

from qromlab.bounds import (
    E,
    chain_bound,
    collision_bound,
    gencol_bound,
    posw_asymptotic_envelope,
    posw_bound,
    preimage_bound,
)
from qromlab.capacity import (
    bound_thm_general,
    bound_thm_tricky,
    classical_capacity_exact,
    quantum_capacity_exact,
    verify_calculus,
)
from qromlab.cli import _random_db, main
from qromlab.groups import GroupSpec, connection_bound_check, transition_matrix
from qromlab.oracle import (
    AdversaryCircuit,
    Database,
    GateStep,
    OracleDomain,
    QueryStep,
    grover_preimage_circuit,
    relation_probabilities,
    run_adversary,
)
from qromlab.posw import (
    PoswParams,
    PoswProof,
    TableBackend,
    CryptoBackend,
    check_extract_lemma,
    check_leaves_lemma,
    check_newpath_lemma,
    dag,
    db_has_collision,
    label_payload,
    prove,
    verify,
)
from qromlab.properties import (
    ChainRelation,
    chain_local_family,
    check_strong_recognizes,
    check_weak_recognizes,
    chn,
    cl,
    collision_local_family,
    iter_databases,
    prmg,
    size_at_most,
)

EQ = ChainRelation("equality")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number, timer, limit, text):
    assert timer.elapsed <= limit, f"criterion {number} exceeded {limit}s"
    print(f"criterion {number:2d} PASS ({timer.elapsed:6.2f}s) {text}")


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, dom, rounds, k, with_outputs=False):
    reg_dims = tuple([dom.size] * k + [dom.spec.order] * k + [2])
    steps = []
    total = int(np.prod(reg_dims))
    for _ in range(rounds):
        steps.append(GateStep(random_unitary(total, rng), tuple(range(len(reg_dims)))))
        steps.append(QueryStep(out_regs=tuple(range(k, 2 * k)), in_regs=tuple(range(k))))
    steps.append(GateStep(random_unitary(total, rng), tuple(range(len(reg_dims)))))
    return AdversaryCircuit(domain=dom, reg_dims=reg_dims, steps=tuple(steps),
                            output_regs=tuple(range(k)) if with_outputs else ())


def test_criterion_01_transition_matrix_fidelity():
    with Timer() as t:
        for order in (2, 4, 8, 16):
            for kind in ("bits", "cyclic"):
                spec = GroupSpec(kind, order)
                assert np.array_equal(transition_matrix(spec, 0), np.eye(order + 1))
                for yhat in spec.elements():
                    g = np.asarray(transition_matrix(spec, yhat))
                    defect = np.max(np.abs(np.conj(g.T) @ g - np.eye(order + 1)))
                    assert defect <= 1e-9
        g = transition_matrix(GroupSpec.bits(1), 1)
        s = 1 / math.sqrt(2)
        hand = {(2, 2): 0.0, (2, 0): s, (2, 1): -s, (0, 2): s, (1, 2): -s,
                (0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        for (i, j), value in hand.items():
            assert abs(g[i, j] - value) <= 1e-12
    report(1, t, 1.0, "transition matrices unitary; M=2 instance matches by hand")


def test_criterion_02_connection_bound_sweep():
    with Timer() as t:
        checks = 0
        for order in (2, 4, 8):
            for kind in ("bits", "cyclic"):
                spec = GroupSpec(kind, order)
                elements = list(spec.elements())
                for size in range(order + 1):
                    for subset in itertools.combinations(elements, size):
                        for yhat in spec.elements():
                            assert connection_bound_check(spec, set(subset), yhat)["holds"]
                            checks += 1
    report(2, t, 10.0, f"connection bound exhaustive over {checks} (L, yhat) cases")


def test_criterion_03_purification_equivalence():
    with Timer() as t:
        rng = np.random.default_rng(2026)
        for i in range(100):
            n_inputs = 2 + i % 3  # |X| in {2, 3, 4}
            dom = OracleDomain(tuple(range(n_inputs)), GroupSpec.bits(1))
            circuit = random_circuit(rng, dom, rounds=1 + i % 3, k=1 + i % 2)
            std = run_adversary(circuit, "standard")
            cmp_state = run_adversary(circuit, "compressed")
            tv = 0.5 * np.abs(std.adversary_marginal() - cmp_state.adversary_marginal()).sum()
            assert tv <= 1e-8
    report(3, t, 120.0, "100 random circuits, standard vs compressed marginals")


def test_criterion_04_gap_inequality():
    with Timer() as t:
        rng = np.random.default_rng(404)
        for i in range(50):
            m_bits = 1 + i % 2  # M in {2, 4}
            dom = OracleDomain(tuple(range(4)), GroupSpec.bits(m_bits))
            circuit = random_circuit(rng, dom, rounds=1 + i % 2, k=1, with_outputs=True)
            p, p_prime = relation_probabilities(
                circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
                claimed=lambda xs: (0,) * len(xs))
            ell = len(circuit.output_regs)
            assert math.sqrt(p) <= math.sqrt(p_prime) + math.sqrt(ell / dom.spec.order) + 1e-12
    report(4, t, 120.0, "50 preimage adversaries satisfy the measured-database gap")


def test_criterion_05_preimage_capacity_vs_simple_bound():
    with Timer() as t:
        for m_bits, k in itertools.product((1, 2), (1, 2)):
            for n_inputs in (2, 3):
                dom = OracleDomain(tuple(range(n_inputs)), GroupSpec.bits(m_bits))
                value = quantum_capacity_exact(~prmg(), prmg(), k, dom).value
                assert value <= math.sqrt(10.0 * k / dom.spec.order) + 1e-9
        dom = OracleDomain((0, 1), GroupSpec.bits(1))
        value = quantum_capacity_exact(~prmg(), prmg(), 1, dom).value
        assert abs(value - math.sqrt(3) / 2) <= 1e-9
    report(5, t, 60.0, "preimage capacities below sqrt(10k/M); hand value sqrt(3)/2")


def test_criterion_06_chain_and_collision_capacities_vs_bounds():
    with Timer() as t:
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(1))
        for k in (1, 2):
            for s in (1, 2):
                p, pp = ~chn(s, EQ), chn(s + 1, EQ)
                fams = []
                for xs in itertools.permutations(dom.inputs, k):
                    for db in iter_databases(dom):
                        fam = chain_local_family(db, xs, EQ)
                        assert check_weak_recognizes(fam, p, pp, xs, db)
                        fams.append(fam)
                exact = quantum_capacity_exact(p, pp, k, dom).value
                assert exact <= bound_thm_tricky(fams) + 1e-9
            fams = []
            for xs in itertools.permutations(dom.inputs, k):
                for db in iter_databases(dom):
                    exterior = db.update(xs, (dom.spec.bot,) * k)
                    if cl().holds(exterior):
                        continue
                    fam = collision_local_family(exterior, xs)
                    assert check_strong_recognizes(fam, cl(), cl(), xs, exterior)
                    fams.append(fam)
            exact = quantum_capacity_exact(~cl(), cl(), k, dom).value
            assert exact <= bound_thm_general(fams) + 1e-9
    report(6, t, 300.0, "chain/collision capacities below recognizability bounds")


def test_criterion_07_capacity_calculus_grid():
    with Timer() as t:
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(1))
        pool = [prmg(), cl(), chn(1, EQ), size_at_most(1), ~prmg()]
        instances = 0
        for p, q in itertools.permutations(pool, 2):
            checks = verify_calculus(p, cl() | prmg(), q, 2, (1, 1),
                                     (("a", "b"), ("b", "c")), dom)
            for c in checks:
                assert c.holds, (p.name, q.name, c.rule, c.lhs, c.rhs)
            instances += 1
        assert instances >= 20
    report(7, t, 600.0, f"calculus inequalities hold on {instances} instances")


def test_criterion_08_classical_capacities():
    with Timer() as t:

        def resample_oracle(p, pp, k, dom):
            spec = dom.spec
            best = 0.0
            for values in itertools.product(range(spec.order + 1), repeat=dom.size):
                db = Database(dom, values)
                if not p.holds(db):
                    continue
                for xs in itertools.permutations(dom.inputs, k):
                    hits = 0
                    for draw in itertools.product(spec.elements(), repeat=k):
                        upd = db
                        for x, y in zip(xs, draw):
                            if not db.defined(x):
                                upd = upd.update((x,), (y,))
                        hits += pp.holds(upd)
                    best = max(best, hits / spec.order ** k)
            return best

        for m_bits, k in itertools.product((1, 2), (1, 2)):
            dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(m_bits))
            for p, pp in [(~prmg(), prmg()), (~cl(), cl()), (~chn(1, EQ), chn(2, EQ))]:
                exact = classical_capacity_exact(p, pp, k, dom).value
                assert abs(exact - resample_oracle(p, pp, k, dom)) <= 1e-12
            got = classical_capacity_exact(~prmg(), prmg(), k, dom).value
            m = dom.spec.order
            assert abs(got - (1.0 - (1.0 - 1.0 / m) ** k)) <= 1e-12
            assert got <= k / m + 1e-12
    report(8, t, 60.0, "classical capacities match the resampling oracle exactly")


def test_criterion_09_grover_below_preimage_bound():
    with Timer() as t:
        for n_inputs in (4, 8):
            dom = OracleDomain(tuple(range(n_inputs)), GroupSpec.bits(1))
            for rounds in (1, 2):
                circuit = grover_preimage_circuit(dom, rounds)
                p, _ = relation_probabilities(
                    circuit, relation=lambda xs, ys: all(y == 0 for y in ys),
                    claimed=lambda xs: (0,) * len(xs))
                assert p <= preimage_bound(rounds, 1, 2) + 1e-9
    report(9, t, 120.0, "amplitude amplification stays below the preimage bound")


def test_criterion_10_bound_formulas():
    with Timer() as t:
        m = 1 << 20
        assert abs(preimage_bound(0, 3, m) - 1.0 / m) <= 1e-12
        assert abs(collision_bound(0, 1, m)
                   - (2 * E * math.sqrt(10 / m) + math.sqrt(2 / m)) ** 2) <= 1e-12
        assert abs(gencol_bound(0, 1, m, 2)
                   - (2 * E * math.sqrt(20 / m) + 2 / math.sqrt(m)) ** 2) <= 1e-12
        assert abs(chain_bound(0, 1, m, 3)
                   - (2 * E * math.sqrt(60 / m) + math.sqrt(2 / m)) ** 2) <= 1e-12
        assert abs(posw_bound(0, 1, 64, 4, 2) - 11.0 / 2 ** 64) <= 1e-12

        qs, ks = [0, 1, 4, 16, 64], [1, 2, 4]
        for evaluator in (
            lambda q, k: preimage_bound(q, k, m),
            lambda q, k: collision_bound(q, k, m),
            lambda q, k: gencol_bound(q, k, m, 2),
            lambda q, k: chain_bound(q, k, m, 2),
            lambda q, k: posw_bound(q, k, 256, 16, 4),
        ):
            for k in ks:
                vals = [evaluator(q, k) for q in qs]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            for q in qs:
                vals = [evaluator(q, k) for k in ks]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for bits in ((10, 16), (16, 24)):
            assert preimage_bound(8, 2, 1 << bits[1]) <= preimage_bound(8, 2, 1 << bits[0])

        points = 0
        for q, k, (n, tt, w) in itertools.product(
            [1, 4, 16, 64, 256], [1, 2, 4, 8],
            [(4, 1, 64), (8, 2, 64), (16, 4, 128), (32, 4, 256), (64, 4, 256)],
        ):
            assert posw_bound(q, k, w, n, tt) <= posw_asymptotic_envelope(q, k, w, n, tt) + 1e-12
            points += 1
        assert points == 100
    report(10, t, 60.0, "bound specializations, monotonicity, and the envelope grid")


def test_criterion_11_posw_completeness_and_accounting():
    with Timer() as t:
        for n in range(1, 7):
            for tt in range(1, 5):
                for make in (lambda: TableBackend(16, seed=100 * n + tt),
                             lambda: CryptoBackend(16, key=bytes([n, tt]))):
                    be = make()
                    params = PoswParams(n=n, w=16)
                    proof = prove(chi=0x17, params=params, t=tt, backend=be)
                    labels = [e for e in be.trace if e.kind == "label"]
                    challenges = [e for e in be.trace if e.kind == "challenge"]
                    assert len(labels) == 2 ** (n + 1) - 1
                    assert len(challenges) == 1 and be.trace[-1] is challenges[0]
                    position = {e.vertex: i for i, e in enumerate(labels)}
                    for v in dag.all_vertices(n):
                        for u in dag.in_neighbors(v, n):
                            assert position[u] < position[v]
                    assert verify(0x17, params, tt, proof, be).accepted
        be = TableBackend(16, seed=1)
        prove(chi=1, params=PoswParams(n=2, w=16), t=1, backend=be)
        order = [e.vertex for e in be.trace if e.kind == "label"]
        assert order == ["00", "01", "0", "10", "11", "1", ""]
    report(11, t, 120.0, "prove/verify complete; sequential accounting exact")


def test_criterion_12_posw_soundness_smoke():
    with Timer() as t:
        be = TableBackend(64, seed=20260810)
        params = PoswParams(n=2, w=64)
        proof = prove(chi=0xC0FFEE, params=params, t=1, backend=be)
        for bit in range(64):
            bad = PoswProof(n=2, t=1, w=64, phi=proof.phi ^ (1 << bit), tau=proof.tau)
            assert not verify(0xC0FFEE, params, 1, bad, be).accepted
        for j in range(4):
            for bit in range(64):
                opening = list(proof.tau[0])
                opening[j] ^= 1 << bit
                bad = PoswProof(n=2, t=1, w=64, phi=proof.phi, tau=(tuple(opening),))
                assert not verify(0xC0FFEE, params, 1, bad, be).accepted

        n, w, tt = 3, 16, 2
        trials = 100_000
        world = TableBackend(w, seed=31337)
        rng = random.Random(99)
        params = PoswParams(n=n, w=w)
        wins = 0
        for _ in range(trials):
            phi = rng.getrandbits(w)
            tau = tuple(tuple(rng.getrandbits(w) for _ in range(2 * n)) for _ in range(tt))
            guess = PoswProof(n=n, t=tt, w=w, phi=phi, tau=tau)
            wins += verify(0x42, params, tt, guess, world).accepted
        analytic = 2.0 ** (-w * tt * (n + 1))
        sigma = math.sqrt(trials * analytic * (1 - analytic))
        assert abs(wins - trials * analytic) <= 3 * sigma + 1e-6
        assert wins / trials <= posw_bound(1, 1, w, n, tt) + 1e-9
    report(12, t, 300.0, "bit flips rejected; guessing attack at the analytic rate")


def test_criterion_13_extraction_lemmas():
    with Timer() as t:
        n, w, chi = 1, 2, 1
        payloads = []
        for v in dag.all_vertices(n):
            arity = len(dag.in_neighbors(v, n))
            for labels in itertools.product(range(4), repeat=arity):
                payloads.append(label_payload(chi, v, labels, w))
        exhausted = 0
        for size in range(0, 4):
            for support in itertools.combinations(payloads, size):
                for values in itertools.product(range(4), repeat=size):
                    db = dict(zip(support, values))
                    if db_has_collision(db, w):
                        continue
                    for phi in range(4):
                        assert check_extract_lemma(db, n, w, chi, phi, completeness=True)
                    exhausted += 1

        rng = random.Random(1313)
        n, w, chi = 2, 8, 9
        vertices = dag.all_vertices(n)

        def draw_db():
            return _random_db(rng, n, w, chi, rng.randrange(1, 3 * len(vertices)))

        leaves_checked = 0
        while leaves_checked < 10_000:
            db = draw_db()
            assert check_leaves_lemma(db, n, w, chi, extra_phis=(rng.getrandbits(w),))
            leaves_checked += 1

        newpath_checked = 0
        while newpath_checked < 10_000:
            db = draw_db()
            if db_has_collision(db, w):
                continue
            v = vertices[rng.randrange(len(vertices))]
            arity = len(dag.in_neighbors(v, n))
            xs = [label_payload(chi, v, tuple(rng.getrandbits(w) for _ in range(arity)), w)]
            us = [rng.getrandbits(w)]
            assert check_newpath_lemma(db, xs, us, rng.getrandbits(w), chi, n, w)
            newpath_checked += 1

        extract_checked = 0
        while extract_checked < 10_000:
            db = draw_db()
            if db_has_collision(db, w):
                continue
            assert check_extract_lemma(db, n, w, chi, rng.getrandbits(w))
            extract_checked += 1
    report(13, t, 600.0, f"extraction lemmas: {exhausted} exhaustive + 3x10k random")


def test_criterion_14_deterministic_reports(tmp_path):
    with Timer() as t:
        jobs = [
            ["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", "1",
             "--domain", "n=1,m=1", "--bound", "thm5.7"],
            ["bounds", "--problem", "posw", "--q", "8", "--k", "2", "--w", "64",
             "--n", "8", "--t", "2", "--sweep", "q=1,2,4,8"],
            ["--seed", "7", "lemmas", "--suite", "leaves", "--trials", "100"],
            ["--seed", "7", "lemmas", "--suite", "newpath", "--trials", "100"],
        ]
        for i, argv in enumerate(jobs):
            outs = []
            for run in range(2):
                out = tmp_path / f"job{i}_run{run}.json"
                assert main(argv + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
    report(14, t, 120.0, "repeated seeded runs produce byte-identical reports")
