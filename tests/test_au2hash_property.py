"""Property test of hash_vector against Horner over degrees 1-27 and every
path; skipped where hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etdr.au2hash import hash_vector, poly_hash  # noqa: E402
from oracles import horner_oracle, pack_digests  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hash_vector_matches_horner(data):
    # sizes on both sides of the list-path cutoff; keys 0, 1 and 2^l - 1 always
    degree = data.draw(st.integers(1, 27), label="degree")
    q = 1 << degree
    keys = [0, 1, q - 1] + data.draw(st.lists(st.integers(0, q - 1), max_size=13), label="keys")
    bits = data.draw(st.integers(1, 40 * degree), label="bits")
    v = data.draw(st.sampled_from([0, (1 << bits) - 1]) | st.integers(0, (1 << bits) - 1), label="v")
    want = [poly_hash(k, v, bits, degree) for k in keys]
    assert want[:3] == [horner_oracle(k, v, bits, degree) for k in keys[:3]]
    assert hash_vector(keys, v, bits, degree) == pack_digests(want, degree)
