"""Random-oracle backends for the sequential-work protocol.

Labels, statements, and commitments are w-bit values handled as ints.  Oracle
inputs are framed byte strings: a label query is tagged 0x00 and carries the
statement, a length-prefixed vertex, and the in-neighbor labels in order; a
challenge query is tagged 0x01 and carries the statement, the commitment, and
a 32-bit block counter.  The table backend samples lazily and exposes its
database for the security-analysis lemmas; the crypto backend derives labels
from SHA-256 in counter mode and exposes nothing.

`RoBackend.label_query` takes a label query already framed as
`label_payload` frames it and only evaluates and records it.  The prover and
verifier build those frames from label bytes encoded once per label (the
prover keeps per-depth child labels and skip-edge bodies for its root path,
the verifier builds an opening's skip bodies once, top down), so no label is
re-encoded for every query it feeds, and frame each vertex from its depth and
index behind `depth_prefixes`, so no vertex string is parsed per query;
callers holding int labels frame them with `label_payload`.

A backend records each logical query in flat columns (vertex, payload, and
the invocation count of each challenge query), not as an object per query:
`trace` builds the TraceEntry list on read and keeps it until `reset_trace`,
and `oracle_work` counts from the columns without building it.  No fresh
flag is kept per query: a query is fresh when it is the first time this
backend answered its payload (for a challenge query, any of its block
payloads), and `trace` derives that from the payload column when it is read,
against one set of the payloads answered before, which only a read or a
`reset_trace` fills.  So evaluating a query does no freshness bookkeeping,
and a run that never reads the trace never builds the set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from hashlib import sha256

LABEL_TAG = b"\x00"
CHALLENGE_TAG = b"\x01"


def label_bytes(value: int, w: int) -> bytes:
    if not 0 <= value < (1 << w):
        raise ValueError(f"label {value} does not fit in {w} bits")
    return value.to_bytes((w + 7) // 8, "big")


def label_from_bytes(data: bytes, w: int) -> int:
    if len(data) != (w + 7) // 8:
        raise ValueError("label has the wrong byte length")
    value = int.from_bytes(data, "big")
    if value >> w:
        raise ValueError(f"label bytes exceed {w} bits")
    return value


def encode_vertex(v: str) -> bytes:
    if len(v) > 255:
        raise ValueError("vertex too deep to encode")
    packed = int(v, 2).to_bytes((len(v) + 7) // 8, "big") if v else b""
    return bytes([len(v)]) + packed


def depth_prefixes(head: bytes, n: int) -> list:
    """head followed by the depth byte of encode_vertex, for each depth 0..n.

    The vertex at depth d whose bits read as the number j frames as
    prefixes[d] + j.to_bytes((d + 7) // 8, "big"), byte for byte head +
    encode_vertex(v), so a caller that knows each vertex's depth and index
    parses no vertex string per query.  A depth past 255 raises
    encode_vertex's ValueError."""
    return [head + encode_vertex("0" * d)[:1] for d in range(n + 1)]


def label_payload(chi: int, v: str, in_labels, w: int) -> bytes:
    body = b"".join(label_bytes(l, w) for l in in_labels)
    return LABEL_TAG + label_bytes(chi, w) + encode_vertex(v) + body


def challenge_payload(chi: int, phi: int, counter: int, w: int) -> bytes:
    return CHALLENGE_TAG + label_bytes(chi, w) + label_bytes(phi, w) + counter.to_bytes(4, "big")


def parse_label_payload(payload: bytes, w: int):
    """Inverse of label_payload: (chi, vertex, labels) or None if not label-framed.

    One pass over the frame: it accepts exactly the byte strings that
    label_payload produces, so a statement or label wider than w bits, a
    vertex with set padding bits, and a truncated vertex or label are refused.
    One-byte statements and labels are read straight from the bytes, and the
    w-bit bound is tested once, on the largest label.
    """
    nb = (w + 7) // 8
    size = len(payload)
    if size < nb + 2 or payload[0] != LABEL_TAG[0]:
        return None
    depth = payload[nb + 1]
    start = nb + 2 + (depth + 7) // 8  # first label byte
    if size < start or (size - start) % nb:
        return None
    packed = int.from_bytes(payload[nb + 2 : start], "big")
    if packed >> depth:
        return None
    if nb == 1:
        chi = payload[1]
        labels = tuple(payload[start:])
    else:
        chi = int.from_bytes(payload[1 : nb + 1], "big")
        labels = tuple(int.from_bytes(payload[i : i + nb], "big") for i in range(start, size, nb))
    if w % 8 and (chi >> w or labels and max(labels) >> w):
        return None
    return chi, format(packed, "b").zfill(depth) if depth else "", labels


def parse_challenge_payload(payload: bytes, w: int):
    nb = (w + 7) // 8
    if len(payload) != 1 + 2 * nb + 4 or payload[:1] != CHALLENGE_TAG:
        return None
    try:
        chi = label_from_bytes(payload[1 : 1 + nb], w)
        phi = label_from_bytes(payload[1 + nb : 1 + 2 * nb], w)
    except ValueError:
        return None
    counter = int.from_bytes(payload[1 + 2 * nb :], "big")
    return chi, phi, counter


@dataclass(slots=True)
class TraceEntry:
    kind: str  # "label" | "challenge"
    vertex: str | None
    payload: bytes
    fresh: bool
    invocations: int = 1


class RoBackend:
    """Shared query plumbing: framing, the query trace, and w-bit outputs.

    The trace is held as columns, one slot per logical query: the vertex
    (None for a challenge query) and the framed payload (a challenge query's
    first block), plus the invocation count of each challenge query keyed by
    its slot.  `trace` turns them into TraceEntry objects when it is read,
    deriving each fresh flag from `_answered`, the payloads of every slot
    that a read or a `reset_trace` has covered."""

    def __init__(self, w: int):
        if not 8 <= w <= 512:
            raise ValueError("label width must be between 8 and 512 bits")
        self.w = w
        self._answered: set = set()
        self._vertices: list = []
        self._payloads: list = []
        self._challenges: dict = {}  # slot -> oracle invocations of that challenge query
        self._entries: list = []

    def _evaluate(self, payload: bytes) -> int:
        raise NotImplementedError

    def label_query(self, v: str, payload: bytes) -> int:
        """Evaluate the label query for vertex v, framed as label_payload
        frames it, and record it in the trace."""
        value = self._evaluate(payload)
        self._vertices.append(v)
        self._payloads.append(payload)
        return value

    def challenge_query(self, chi: int, phi: int, bits_needed: int) -> str:
        """Counter-extended challenge output, one logical query in the trace."""
        if bits_needed < 1:
            raise ValueError(f"a challenge query needs at least 1 bit, not {bits_needed}")
        count = -(-bits_needed // self.w)
        payloads = [challenge_payload(chi, phi, counter, self.w) for counter in range(count)]
        bits = "".join(format(self._evaluate(payload), f"0{self.w}b") for payload in payloads)
        self._challenges[len(self._payloads)] = count
        self._vertices.append(None)
        self._payloads.append(payloads[0])
        return bits[:bits_needed]

    def _answer(self, start: int) -> list:
        """The fresh flag of each slot from `start` on, adding the payloads
        each slot evaluated to `_answered` as it goes: a label slot's own, a
        challenge slot's blocks (its first payload with the 4-byte counter
        set to 0..count-1).  A slot is fresh when one of them was not yet
        answered."""
        answered, payloads, challenges = self._answered, self._payloads, self._challenges
        flags = []
        for i in range(start, len(payloads)):
            payload = payloads[i]
            count = challenges.get(i)
            if count is None:
                flags.append(payload not in answered)
                answered.add(payload)
            else:
                blocks = {payload[:-4] + counter.to_bytes(4, "big") for counter in range(count)}
                flags.append(not blocks <= answered)
                answered |= blocks
        return flags

    @property
    def trace(self) -> list:
        """The queries since the last reset_trace, one TraceEntry each, in
        query order.  The list is built on first read and extended by later
        reads, so reads with no query between them return the same list and
        the same entries.  An entry is fresh when it evaluated a payload that
        this backend had not answered before it."""
        entries = self._entries
        start = len(entries)
        for i, fresh in enumerate(self._answer(start), start):
            count = self._challenges.get(i)
            kind, count = ("label", 1) if count is None else ("challenge", count)
            entries.append(TraceEntry(kind, self._vertices[i], self._payloads[i], fresh, count))
        return entries

    def oracle_work(self) -> tuple:
        """(label queries, oracle invocations, bytes framed) since the last
        reset_trace, read from the columns without building entries.  Every
        block of a challenge query frames a payload as long as its first, the
        one its trace entry holds, so a challenge counts that length once per
        invocation."""
        payloads, challenges = self._payloads, self._challenges
        labels = len(payloads) - len(challenges)
        framed = sum(map(len, payloads))
        framed += sum(len(payloads[slot]) * (count - 1) for slot, count in challenges.items())
        return labels, labels + sum(challenges.values()), framed

    def reset_trace(self) -> None:
        """Start an empty trace.  The slots no read has covered are answered
        first, so freshness carries across resets."""
        self._answer(len(self._entries))
        self._vertices.clear()
        self._payloads.clear()
        self._challenges.clear()
        self._entries = []


class TableBackend(RoBackend):
    """Lazily sampled random oracle keeping the full query database."""

    def __init__(self, w: int, seed: int = 0):
        super().__init__(w)
        self._rng = random.Random(seed)
        self._db: dict = {}

    def _evaluate(self, payload: bytes) -> int:
        db = self._db
        if payload in db:
            return db[payload]
        value = db[payload] = self._rng.getrandbits(self.w)
        return value

    def database(self) -> dict:
        """Snapshot of the lazily sampled database, payload -> w-bit value."""
        return dict(self._db)


class CryptoBackend(RoBackend):
    """Deterministic SHA-256-based oracle, expanded in counter mode to w bits:
    the output is the top w bits of SHA-256(key | payload | counter) for the
    32-bit counters 0, 1, ... needed to cover w bits."""

    def __init__(self, w: int, key: bytes = b""):
        super().__init__(w)
        self.key = key
        blocks = -(-w // 256)
        # counters past the first block; empty for w <= 256
        self._extra_counters = [c.to_bytes(4, "big") for c in range(1, blocks)]
        self._shift = 256 * blocks - w

    def _evaluate(self, payload: bytes) -> int:
        message = self.key + payload
        stream = sha256(message + b"\0\0\0\0").digest()
        for counter in self._extra_counters:
            stream += sha256(message + counter).digest()
        return int.from_bytes(stream, "big") >> self._shift
