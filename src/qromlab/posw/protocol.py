"""Non-interactive sequential-work prover, challenge derivation, verifier, and
the binary proof wire format.

The prover labels the DAG bottom-up with N = 2^(n+1) - 1 sequential oracle
queries, commits to the root label, derives t challenge leaves from the
commitment by one logical challenge query, and opens the authentication path
of every challenge leaf.  The verifier recomputes the challenge and checks
every ancestor label equation of every challenge leaf.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

from . import dag
from .backend import LABEL_TAG, RoBackend, depth_prefixes, label_bytes, label_from_bytes

MAGIC = b"QPSW"
VERSION = 1
MAX_CHALLENGES = 0xFFFF  # the largest t the header holds


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


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


def compute_labeling(chi: int, params: PoswParams, backend: RoBackend) -> dict:
    """Honest labeling in the sequential leftmost-leaf-first order; exactly one
    oracle query per vertex.  Returns vertex -> label, in vertex order."""
    levels = _label_levels(chi, params, backend)
    return dict(zip(dag.all_vertices(params.n), itertools.chain.from_iterable(levels)))


def _label_levels(chi: int, params: PoswParams, backend: RoBackend) -> list:
    """The honest labeling as per-depth lists: levels[d][j] is the label of
    the depth-d vertex whose bits read as the number j.

    Every label is encoded once, into per-depth state for the current root
    path: left[d] and right[d] hold the bytes of the last labelled left and
    right child at depth d, and skip[d] the skip-edge body (the labels of the
    left siblings of its right-child ancestors) of the path's depth-d vertex.
    An internal vertex at depth d frames left[d+1] + right[d+1] + skip[d], a
    leaf frames skip[n].  Labelling a left child p0 at depth d hands
    skip(p1) = skip(p) + label(p0) to its right sibling and that sibling's
    left spine, which costs amortised O(1) per vertex.  Post-order visits
    each depth's vertices in index order, so the length of a depth's list is
    the index of its next vertex."""
    if backend.w != params.w:
        raise ValueError("backend width does not match parameters")
    n, w = params.n, params.w
    nbytes, bound = (w + 7) // 8, 1 << w
    prefixes = depth_prefixes(LABEL_TAG + label_bytes(chi, w), n)
    widths = [(d + 7) // 8 for d in range(n + 1)]
    query = backend.label_query
    levels: list = [[] for _ in range(n + 1)]
    left = [b""] * (n + 1)
    right = [b""] * (n + 1)
    skip = [b""] * (n + 1)
    for v in dag.prover_order(n):
        d = len(v)
        level = levels[d]
        j = len(level)
        body = skip[n] if d == n else left[d + 1] + right[d + 1] + skip[d]
        label = query(v, prefixes[d] + j.to_bytes(widths[d], "big") + body)
        # a preloaded table oracle can hold any value, so check as label_bytes does
        if not 0 <= label < bound:
            raise ValueError(f"label {label} does not fit in {w} bits")
        level.append(label)
        if not d:
            break  # the root is labelled last
        data = label.to_bytes(nbytes, "big")
        if j & 1:
            right[d] = data
        else:
            left[d] = data
            skip[d:] = [skip[d - 1] + data] * (n + 1 - d)
    return levels


def derive_challenge(chi: int, phi: int, t: int, n: int, backend: RoBackend) -> list:
    """The t challenge leaves parsed from the first t*n bits of the
    counter-extended challenge output (big-endian n-bit chunks, duplicates kept)."""
    if t < 1:
        raise ValueError("challenge count must be positive")
    bits = backend.challenge_query(chi, phi, t * n)
    return [bits[i * n : (i + 1) * n] for i in range(t)]


def prove(chi: int, params: PoswParams, t: int, backend: RoBackend) -> PoswProof:
    levels = _label_levels(chi, params, backend)
    (phi,) = levels[0]
    challenge = derive_challenge(chi, phi, t, params.n, backend)
    # an authentication path holds no root, so every vertex on it has an index
    tau = tuple(
        tuple(levels[len(u)][int(u, 2)] for u in dag.authentication_path(v, params.n))
        for v in challenge
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
    n, w = params.n, params.w
    nbytes, bound = (w + 7) // 8, 1 << w
    challenge = derive_challenge(chi, proof.phi, t, n, backend)
    head = LABEL_TAG + label_bytes(chi, w)
    prefixes = None
    for i, v in enumerate(challenge):
        opening = proof.tau[i]
        if len(opening) != 2 * n:
            return VerifyResult(False, f"malformed: opening {i} has wrong length")
        if any(not 0 <= l < bound for l in opening):
            return VerifyResult(False, f"malformed: opening {i} label out of range")
        if prefixes is None:
            # built at the first query, where a depth past 255 first raises
            prefixes = depth_prefixes(head, n)
        # position 2(d-1) + b of the opening holds the depth-d vertex on the
        # leaf's authentication path whose last bit is b
        enc = [l.to_bytes(nbytes, "big") for l in opening]
        # the leaf's in-neighbours are its skip sources, and those of its
        # depth-d ancestor are the ones no longer than d: build every
        # ancestor's skip body once, top down.  Every in-neighbour of an
        # ancestor lies on the authentication path, so enc holds them all;
        # a skip source at depth d is a left child, at position 2(d-1).
        skip = [b""] * (n + 1)
        for x in dag.in_neighbors(v, n):
            d = len(x)
            skip[d:] = [skip[d - 1] + enc[2 * d - 2]] * (n + 1 - d)
        leaf = int(v, 2)
        for d in range(n, -1, -1):
            j = leaf >> (n - d)
            body = skip[n] if d == n else enc[2 * d] + enc[2 * d + 1] + skip[d]
            # the root is no vertex's in-neighbour, so phi is compared, never framed
            label = opening[2 * d - 2 + (j & 1)] if d else proof.phi
            u = v[:d]
            payload = prefixes[d] + j.to_bytes((d + 7) // 8, "big") + body
            if label != backend.label_query(u, payload):
                return VerifyResult(False, f"inconsistent at {u or 'root'}")
    return VerifyResult(True)


def serialize_proof(proof: PoswProof) -> bytes:
    for field, value, limit in (("n", proof.n, 0xFF), ("t", proof.t, MAX_CHALLENGES), ("w", proof.w, 0xFFFF)):
        if not 0 <= value <= limit:
            raise ValueError(f"proof header cannot hold {field}={value}: it takes 0..{limit}")
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
