"""Non-interactive sequential-work prover, challenge derivation, verifier, and
the binary proof wire format.

The prover labels the DAG bottom-up with N = 2^(n+1) - 1 sequential oracle
queries, commits to the root label, derives t challenge leaves from the
commitment by one logical challenge query, and opens the authentication path
of every challenge leaf.  The verifier recomputes the challenge and checks
every ancestor label equation of every challenge leaf.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import dag
from .backend import LABEL_TAG, RoBackend, encode_vertex, label_bytes, label_from_bytes

MAGIC = b"QPSW"
VERSION = 1


@dataclass(frozen=True)
class PoswParams:
    n: int  # tree depth; N = 2^(n+1) - 1 vertices
    w: int  # label width in bits

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tree depth must be at least 1")
        if not 8 <= self.w <= 512:
            raise ValueError("label width must be between 8 and 512 bits")

    @property
    def vertex_count(self) -> int:
        return (1 << (self.n + 1)) - 1


@dataclass(frozen=True)
class PoswProof:
    n: int
    t: int
    w: int
    phi: int
    tau: tuple  # per challenge leaf, 2n labels in authentication-path order

    @property
    def size_bits(self) -> int:
        return self.w * (1 + self.t * 2 * self.n)


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


def compute_labeling(chi: int, params: PoswParams, backend: RoBackend) -> dict:
    """Honest labeling in the sequential leftmost-leaf-first order; exactly one
    oracle query per vertex.

    Every label is encoded once.  A vertex's skip-edge body (the labels of the
    left siblings of its right-child ancestors) follows skip(p0) = skip(p) and
    skip(p1) = skip(p) + label(p0); bodies are kept only for the current root
    path, and a child's bytes are dropped once its parent is labelled, so at
    most O(n) encoded labels are alive."""
    if backend.w != params.w:
        raise ValueError("backend width does not match parameters")
    n, w = params.n, params.w
    head = LABEL_TAG + label_bytes(chi, w)
    labels: dict = {}
    enc: dict = {}  # label bytes not yet consumed by the parent
    skip: dict = {dag.ROOT: b""}  # skip bodies of internal vertices on the root path

    def skip_body(u: str) -> bytes:
        if u in skip:
            return skip[u]
        p = u[:-1]
        body = skip_body(p) + enc[p + "0"] if u[-1] == "1" else skip_body(p)
        if len(u) < n:
            skip[u] = body
        return body

    for v in dag.prover_order(n):
        if len(v) < n:
            # the leftmost leaf below v has already memoised skip[v]
            body = enc.pop(v + "0") + enc.pop(v + "1") + skip.pop(v)
        else:
            body = skip_body(v)
        label = backend.label_query(v, head + encode_vertex(v) + body)
        labels[v] = label
        enc[v] = label_bytes(label, w)
    return labels


def derive_challenge(chi: int, phi: int, t: int, n: int, backend: RoBackend) -> list:
    """The t challenge leaves parsed from the first t*n bits of the
    counter-extended challenge output (big-endian n-bit chunks, duplicates kept)."""
    if t < 1:
        raise ValueError("challenge count must be positive")
    bits = backend.challenge_query(chi, phi, t * n)
    return [bits[i * n : (i + 1) * n] for i in range(t)]


def prove(chi: int, params: PoswParams, t: int, backend: RoBackend) -> PoswProof:
    labels = compute_labeling(chi, params, backend)
    phi = labels[dag.ROOT]
    challenge = derive_challenge(chi, phi, t, params.n, backend)
    tau = tuple(
        tuple(labels[u] for u in dag.authentication_path(v, params.n)) for v in challenge
    )
    return PoswProof(n=params.n, t=t, w=params.w, phi=phi, tau=tau)


def verify(chi: int, params: PoswParams, t: int, proof: PoswProof, backend: RoBackend) -> VerifyResult:
    """Recompute the challenge from the commitment and check every ancestor
    label equation of every challenge leaf against the oracle."""
    if (proof.n, proof.t, proof.w) != (params.n, t, params.w):
        return VerifyResult(False, "malformed: parameter mismatch")
    if not 0 <= proof.phi < (1 << params.w):
        return VerifyResult(False, "malformed: commitment out of range")
    if len(proof.tau) != t:
        return VerifyResult(False, "malformed: wrong number of openings")
    challenge = derive_challenge(chi, proof.phi, t, params.n, backend)
    head = LABEL_TAG + label_bytes(chi, params.w)
    for i, v in enumerate(challenge):
        path = dag.authentication_path(v, params.n)
        opening = proof.tau[i]
        if len(opening) != 2 * params.n:
            return VerifyResult(False, f"malformed: opening {i} has wrong length")
        if any(not 0 <= l < (1 << params.w) for l in opening):
            return VerifyResult(False, f"malformed: opening {i} label out of range")
        labels = dict(zip(path, opening))
        labels[dag.ROOT] = proof.phi
        # the root is no vertex's in-neighbour, so phi is compared, never framed
        enc = {u: label_bytes(l, params.w) for u, l in zip(path, opening)}
        for u in dag.ancestors(v):
            needed = dag.in_neighbors(u, params.n)
            if any(x not in labels for x in needed):
                return VerifyResult(False, f"malformed: opening {i} misses labels at {u or 'root'}")
            payload = head + encode_vertex(u) + b"".join(enc[x] for x in needed)
            if labels[u] != backend.label_query(u, payload):
                return VerifyResult(False, f"inconsistent at {u or 'root'}")
    return VerifyResult(True)


def serialize_proof(proof: PoswProof) -> bytes:
    nb = (proof.w + 7) // 8
    out = bytearray()
    out += MAGIC
    out += struct.pack(">BBHH", VERSION, proof.n, proof.t, proof.w)
    out += label_bytes(proof.phi, proof.w)
    for opening in proof.tau:
        if len(opening) != 2 * proof.n:
            raise ValueError("malformed proof: opening length")
        for label in opening:
            out += label_bytes(label, proof.w)
    return bytes(out)


def deserialize_proof(data: bytes) -> PoswProof:
    if len(data) < 10 or data[:4] != MAGIC:
        raise ValueError("not a proof file")
    version, n, t, w = struct.unpack(">BBHH", data[4:10])
    if version != VERSION:
        raise ValueError(f"unsupported proof version {version}")
    if n < 1 or t < 1 or not 8 <= w <= 512:
        raise ValueError("proof header out of range")
    nb = (w + 7) // 8
    expect = 10 + nb * (1 + t * 2 * n)
    if len(data) != expect:
        raise ValueError("proof length does not match header")
    pos = 10
    phi = label_from_bytes(data[pos : pos + nb], w)
    pos += nb
    tau = []
    for _ in range(t):
        opening = []
        for _ in range(2 * n):
            opening.append(label_from_bytes(data[pos : pos + nb], w))
            pos += nb
        tau.append(tuple(opening))
    return PoswProof(n=n, t=t, w=w, phi=phi, tau=tuple(tau))
