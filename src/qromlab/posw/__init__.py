"""Complete non-interactive Simple Proof of Sequential Work with its
security-analysis extraction machinery."""

from . import dag
from .backend import (
    CryptoBackend,
    RoBackend,
    TableBackend,
    challenge_payload,
    label_payload,
    parse_challenge_payload,
    parse_label_payload,
)
from .extract import (
    ExtractResult,
    check_extract_lemma,
    check_leaves_lemma,
    check_newpath_lemma,
    db_has_collision,
    extract,
    longest_posw_chain,
    path_to_chain,
)
from .protocol import (
    MAX_CHALLENGES,
    PoswParams,
    PoswProof,
    VerifyResult,
    compute_labeling,
    derive_challenge,
    deserialize_proof,
    prove,
    serialize_proof,
    verify,
)

__all__ = [
    "CryptoBackend",
    "ExtractResult",
    "MAX_CHALLENGES",
    "PoswParams",
    "PoswProof",
    "RoBackend",
    "TableBackend",
    "VerifyResult",
    "challenge_payload",
    "check_extract_lemma",
    "check_leaves_lemma",
    "check_newpath_lemma",
    "compute_labeling",
    "dag",
    "db_has_collision",
    "derive_challenge",
    "deserialize_proof",
    "extract",
    "label_payload",
    "longest_posw_chain",
    "parse_challenge_payload",
    "parse_label_payload",
    "path_to_chain",
    "prove",
    "serialize_proof",
    "verify",
]
