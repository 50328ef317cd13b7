"""The benchmark's four workloads.

Each workload turns a seed into a fixed batch of ops.  An op is a callable
returning True when every output it produced matched its check, False on a
mismatch, or None when the generated input is skipped (a colliding query log
in the lemma suites); exceptions count as failures.  Inputs that need a golden
value are drawn from fixed pools whose goldens sit in golden.json, recorded
from the seed commit by record_golden.py; the seed picks pool members and
orders and draws everything that is checked without a golden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qromlab import cli, oracle, posw
from qromlab.groups import GroupSpec
from qromlab.posw import dag

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Op:
    kind: str
    run: object
    units: int = 0         # work units the op completes (windows, labels, trials, circuits)
    latency: bool = True   # whether the op's time is a latency sample


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# capacity: CLI capacity jobs at the enumeration-budget edge


N3 = ["--k", "2", "--domain", "n=3,m=1"]
CAPACITY_POOL = {
    "prmg-thm5.7": ["--p", "!PRMG", "--pprime", "PRMG", *N3, "--bound", "thm5.7"],
    "cl-thm5.12": ["--p", "!CL", "--pprime", "CL", *N3, "--bound", "thm5.12"],
    "mixed-size4": ["--p", "!(PRMG|CL)&SIZE<=4", "--pprime", "PRMG|CL", *N3],
    "chn-eq-thm5.9": ["--p", "!CHN[s=1]", "--pprime", "CHN[s=2]", "--k", "1",
                      "--domain", "n=2,m=2", "--bound", "thm5.9"],
    "chn-prefix-thm5.9": ["--p", "!CHN[s=1,rel=prefix]", "--pprime", "CHN[s=2,rel=prefix]",
                          "--k", "1", "--domain", "n=2,m=2", "--bound", "thm5.9"],
    "cyclic-prmg": ["--p", "!PRMG", "--pprime", "PRMG", "--k", "2", "--domain", "n=2,m=2",
                    "--kind", "cyclic"],
    "cyclic-cl": ["--p", "!CL", "--pprime", "CL", "--k", "2", "--domain", "n=2,m=2",
                  "--kind", "cyclic"],
    "classical-cl": ["--p", "!CL", "--pprime", "CL", *N3, "--classical"],
    "classical-prmg": ["--p", "!PRMG", "--pprime", "PRMG", *N3, "--classical"],
}
# one job per slot; the seed picks the variant where a slot has two
CAPACITY_SLOTS = (
    ("prmg-thm5.7",),
    ("cl-thm5.12",),
    ("mixed-size4",),
    ("chn-eq-thm5.9", "chn-prefix-thm5.9"),
    ("cyclic-prmg", "cyclic-cl"),
    ("classical-cl", "classical-prmg"),
)


def capacity_windows(argv: list) -> int:
    """(query window, exterior) pairs the exact quantum engine enumerates."""
    if "--classical" in argv:
        return 0
    opts = dict(zip(argv[::2], argv[1::2]))
    dom = dict(item.split("=") for item in opts["--domain"].split(","))
    size, order, k = 1 << int(dom["n"]), 1 << int(dom["m"]), int(opts["--k"])
    return math.perm(size, k) * (order + 1) ** (size - k)


def run_cli_job(argv: list, out: Path) -> tuple:
    """Run qromlab.cli.main in-process; returns (exit code, report bytes)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["capacity", *argv, "--out", str(out)])
    return code, out.read_bytes()


class Capacity:
    name = "capacity"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"capacity-{seed}")
        golden = load_golden()["capacity"]
        self.jobs = [rng.choice(slot) for slot in CAPACITY_SLOTS]
        rng.shuffle(self.jobs)
        self.out_dir = out_dir
        self.expected = {job: golden[job] for job in self.jobs}

    def ops(self) -> list:
        return [Op("job", self._job(i, job), units=capacity_windows(CAPACITY_POOL[job]))
                for i, job in enumerate(self.jobs)]

    def _job(self, i: int, job: str):
        out = self.out_dir / f"capacity-{i}.json"

        def run():
            code, data = run_cli_job(CAPACITY_POOL[job], out)
            return code == self.expected[job]["exit"] and digest(data) == self.expected[job]["sha256"]
        return run

    def warm(self) -> None:
        run_cli_job(["--p", "!PRMG", "--pprime", "PRMG", "--k", "1", "--domain", "n=1,m=1"],
                    self.out_dir / "capacity-warm.json")


# posw: honest crypto-backend proving, the wire format, and a verify stream


POSW_N, POSW_W, POSW_T = 16, 256, 32
POSW_CHIS = 8
POSW_HONEST, POSW_TAMPERED = 90, 30
HEADER_BYTES = 10


def posw_chi(index: int) -> int:
    return int.from_bytes(hashlib.sha256(b"bench-posw-%d" % index).digest(), "big")


class Posw:
    name = "posw"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"posw-{seed}")
        golden = load_golden()["posw"]
        self.params = posw.PoswParams(n=POSW_N, w=POSW_W)
        index = rng.randrange(POSW_CHIS)
        self.chi = posw_chi(index)
        self.expected_digest = golden[str(index)]
        proof_len = HEADER_BYTES + (POSW_W // 8) * (1 + POSW_T * 2 * POSW_N)
        # a flipped bit past the header leaves the proof parseable but false
        self.flips = [(rng.randrange(HEADER_BYTES, proof_len), rng.randrange(8))
                      for _ in range(POSW_TAMPERED)]
        self.order = [True] * POSW_HONEST + [False] * POSW_TAMPERED
        rng.shuffle(self.order)
        self.proof = None
        self.blob = None

    def ops(self) -> list:
        ops = [Op("prove", self._prove, units=self.params.vertex_count, latency=False),
               Op("codec", self._codec, latency=False)]
        flips = iter(self.flips)
        for honest in self.order:
            ops.append(Op("verify", self._verify(None if honest else next(flips))))
        return ops

    def _prove(self) -> bool:
        self.proof = posw.prove(self.chi, self.params, POSW_T, posw.CryptoBackend(POSW_W))
        return True

    def _codec(self) -> bool:
        self.blob = posw.serialize_proof(self.proof)
        back = posw.deserialize_proof(self.blob)
        return back == self.proof and digest(self.blob) == self.expected_digest

    def _verify(self, flip):
        def run():
            if flip is None:
                proof = self.proof
            else:
                pos, bit = flip
                tampered = bytearray(self.blob)
                tampered[pos] ^= 1 << bit
                proof = posw.deserialize_proof(bytes(tampered))
            result = posw.verify(self.chi, self.params, POSW_T, proof, posw.CryptoBackend(POSW_W))
            return result.accepted == (flip is None)
        return run

    def warm(self) -> None:
        small = posw.PoswParams(n=4, w=POSW_W)
        proof = posw.prove(1, small, 2, posw.CryptoBackend(POSW_W))
        posw.verify(1, small, 2, proof, posw.CryptoBackend(POSW_W))


# lemmas: extraction-lemma checks over table-style query logs


LEMMA_N, LEMMA_W, LEMMA_CHI = 2, 8, 9
LEMMA_TRIALS = 600          # per random suite and batch
SWEEP_N, SWEEP_W, SWEEP_CHI = 1, 2, 1


def random_log(rng, n: int, w: int, chi: int, entries: int) -> dict:
    """A random query log over honest-shaped label inputs (criterion-13 style)."""
    vertices = dag.all_vertices(n)
    log = {}
    for _ in range(entries):
        v = vertices[rng.randrange(len(vertices))]
        labels = tuple(rng.getrandbits(w) for _ in range(len(dag.in_neighbors(v, n))))
        log[posw.label_payload(chi, v, labels, w)] = rng.getrandbits(w)
    return log


def sweep_logs() -> list:
    """Every collision-free query log with at most two entries at n=1, w=2."""
    payloads = []
    for v in dag.all_vertices(SWEEP_N):
        arity = len(dag.in_neighbors(v, SWEEP_N))
        for labels in itertools.product(range(1 << SWEEP_W), repeat=arity):
            payloads.append(posw.label_payload(SWEEP_CHI, v, labels, SWEEP_W))
    values = range(1 << SWEEP_W)
    logs = [{}]
    logs += [{p: y} for p in payloads for y in values]
    logs += [{p: y, q: z} for p, q in itertools.combinations(payloads, 2)
             for y in values for z in values if y != z]
    return logs


class Lemmas:
    name = "lemmas"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"lemmas-{seed}")
        n, w, chi = LEMMA_N, LEMMA_W, LEMMA_CHI
        # log sizes cycle through 1 .. 3|V|-1 instead of being drawn, so every
        # seed has the same size mix and only the logs' contents vary
        sizes = range(1, 3 * len(dag.all_vertices(n)))
        self.trials = []
        for suite in ("leaves", "newpath", "extract"):
            for i in range(LEMMA_TRIALS):
                log = random_log(rng, n, w, chi, sizes[i % len(sizes)])
                if suite == "leaves":
                    self.trials.append((suite, log, (rng.getrandbits(w),)))
                elif suite == "newpath":
                    leaf = "0" * n
                    arity = len(dag.in_neighbors(leaf, n))
                    xs = [posw.label_payload(chi, leaf, tuple(rng.getrandbits(w) for _ in range(arity)), w)]
                    self.trials.append((suite, log, (xs, [rng.getrandbits(w)], rng.getrandbits(w))))
                else:
                    self.trials.append((suite, log, (rng.getrandbits(w),)))
        rng.shuffle(self.trials)
        self.sweep = sweep_logs()

    def ops(self) -> list:
        ops = [Op("trial", self._trial(*t), units=1) for t in self.trials]
        # the sweep's checks count towards trials/s, but latency percentiles
        # are over the random trials: 10k near-constant 0.3 ms checks would
        # pin p50 and p90 to the sweep alone
        ops += [Op("sweep", self._sweep(log, phi), units=1, latency=False)
                for log in self.sweep for phi in range(1 << SWEEP_W)]
        return ops

    @staticmethod
    def _trial(suite: str, log: dict, extra: tuple):
        n, w, chi = LEMMA_N, LEMMA_W, LEMMA_CHI

        def run():
            if suite == "leaves":
                return posw.check_leaves_lemma(log, n, w, chi, extra_phis=extra)
            if posw.db_has_collision(log, w):
                return None
            if suite == "newpath":
                xs, us, phi = extra
                return posw.check_newpath_lemma(log, xs, us, phi, chi, n, w)
            return posw.check_extract_lemma(log, n, w, chi, extra[0])
        return run

    @staticmethod
    def _sweep(log: dict, phi: int):
        def run():
            return posw.check_extract_lemma(log, SWEEP_N, SWEEP_W, SWEEP_CHI, phi, completeness=True)
        return run

    def warm(self) -> None:
        for op in self.ops()[:50]:
            op.run()


# simulate: adversary circuits against both oracles


# (|X|, M, k, rounds); every shape runs once per batch
CIRCUIT_SHAPES = ((4, 2, 1, 1), (4, 2, 2, 2), (4, 4, 1, 2), (4, 4, 2, 1),
                  (5, 2, 1, 2), (5, 2, 2, 1), (5, 4, 1, 1), (5, 4, 2, 1))
CIRCUIT_VARIANTS = 6
# eleven circuits a batch: an odd count puts p50 and p90 on one circuit
# each instead of between two of very different size
GROVER_SIZES = (8, 9, 10)
TV_TOL = 1e-8
P_TOL = 1e-12


def _random_unitary(rng, dim: int) -> np.ndarray:
    a = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
                  for _ in range(dim)])
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _domain(size: int, order: int, cyclic: bool) -> oracle.OracleDomain:
    spec = GroupSpec.cyclic(order) if cyclic else GroupSpec.bits(order.bit_length() - 1)
    return oracle.OracleDomain(tuple(format(i, "04b") for i in range(size)), spec)


def random_circuit(shape: tuple, variant: int) -> oracle.AdversaryCircuit:
    """k superposed query inputs with group-valued responses, random gates
    between the rounds; odd variants use the cyclic range group."""
    size, order, k, rounds = shape
    rng = random.Random("circuit-%d-%d-%d-%d-%d" % (*shape, variant))
    inputs, responses = tuple(range(k)), tuple(range(k, 2 * k))
    steps = []
    for j in range(k):
        steps.append(oracle.GateStep(_random_unitary(rng, size), (inputs[j],)))
        steps.append(oracle.GateStep(_random_unitary(rng, order), (responses[j],)))
    for _ in range(rounds):
        steps.append(oracle.QueryStep(out_regs=responses, in_regs=inputs))
        for j in range(k):
            steps.append(oracle.GateStep(_random_unitary(rng, size * order),
                                         (inputs[j], responses[j])))
    return oracle.AdversaryCircuit(
        domain=_domain(size, order, cyclic=bool(variant % 2)),
        reg_dims=(size,) * k + (order,) * k,
        steps=tuple(steps),
        output_regs=inputs,
    )


def grover_circuit(size: int) -> oracle.AdversaryCircuit:
    return oracle.grover_preimage_circuit(_domain(size, 2, cyclic=False), rounds=1)


def preimage_relation(xs, ys) -> bool:
    return all(y == 0 for y in ys)


def claimed_zero(xs) -> tuple:
    return (0,) * len(xs)


def simulate_circuit(circuit) -> tuple:
    """(p, p', TV distance of the adversary marginals, gap check) for one circuit."""
    std = oracle.run_adversary(circuit, "standard")
    cmp_state = oracle.run_adversary(circuit, "compressed")
    tv = 0.5 * float(np.abs(std.adversary_marginal() - cmp_state.adversary_marginal()).sum())
    p, p_prime = oracle.relation_probabilities(circuit, preimage_relation, claimed_zero)
    holds = oracle.zhandry_gap_check(p, p_prime, len(circuit.output_regs), circuit.domain.spec.order)
    return p, p_prime, tv, holds


def circuit_key(shape: tuple, variant: int) -> str:
    return "%d-%d-%d-%d-v%d" % (*shape, variant)


class Simulate:
    name = "simulate"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"simulate-{seed}")
        golden = load_golden()["simulate"]
        self.cases = []
        for shape in CIRCUIT_SHAPES:
            variant = rng.randrange(CIRCUIT_VARIANTS)
            self.cases.append((random_circuit(shape, variant), golden[circuit_key(shape, variant)]))
        # a fixed order: peak memory depends on which circuit follows which
        for size in GROVER_SIZES:
            self.cases.append((grover_circuit(size), golden[f"grover-{size}"]))

    def ops(self) -> list:
        return [Op("circuit", self._case(c, g), units=1) for c, g in self.cases]

    @staticmethod
    def _case(circuit, expected: dict):
        def run():
            p, p_prime, tv, holds = simulate_circuit(circuit)
            return (holds and tv <= TV_TOL and abs(p - expected["p"]) <= P_TOL
                    and abs(p_prime - expected["p_prime"]) <= P_TOL)
        return run

    def warm(self) -> None:
        simulate_circuit(random_circuit(CIRCUIT_SHAPES[0], 0))


WORKLOADS = {w.name: w for w in (Capacity, Posw, Lemmas, Simulate)}

