"""Three-party equality-testing protocol: key material, round logic, state.

The dealer (TTP) hands each party a key file; the parties later submit
one-time-pad-encrypted digest vectors of their data, the TTP announces
whether the data matched, and on dispute each party reveals its data so
the TTP can rule on who originally told the truth.
"""

from .core import (
    ET_DISTINCT,
    ET_EQUAL,
    Verdict,
    count_matches,
    decrypt_vector,
    dr_verdict,
    encrypt_vector,
    et_compare,
    hash_vector_for,
    match_count,
)
from .keys import (
    ROLE_ALICE,
    ROLE_BOB,
    ROLE_TTP,
    MacMaterial,
    PartyKeys,
    TtpSecret,
    generate_keys,
    load_keys,
    load_party_keys,
    load_ttp_secret,
    save_keys,
)
from .session import SessionRecord, SessionStore

__all__ = [
    "ET_DISTINCT",
    "ET_EQUAL",
    "MacMaterial",
    "PartyKeys",
    "ROLE_ALICE",
    "ROLE_BOB",
    "ROLE_TTP",
    "SessionRecord",
    "SessionStore",
    "TtpSecret",
    "Verdict",
    "count_matches",
    "decrypt_vector",
    "dr_verdict",
    "encrypt_vector",
    "et_compare",
    "generate_keys",
    "hash_vector_for",
    "load_keys",
    "load_party_keys",
    "load_ttp_secret",
    "match_count",
    "save_keys",
]
