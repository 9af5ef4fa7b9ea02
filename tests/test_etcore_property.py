"""Property tests of the referee's checks on packed digest vectors against
lane-by-lane oracles, at every digest width from 1 to 27 bits; skipped
where hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etdr.au2hash import hash_vector, poly_hash  # noqa: E402
from etdr.bits import Message  # noqa: E402
from etdr.etproto import core  # noqa: E402
from etdr.params import experimental_params  # noqa: E402
from oracles import (  # noqa: E402
    count_matches_oracle,
    dr_verdict_oracle,
    et_compare_oracle,
    pack_digests,
    unpack_digests,
)


def lane(width):
    """A lane value, often 0, all ones or the top bit alone."""
    edges = st.sampled_from([0, (1 << width) - 1, 1 << (width - 1)])
    return edges | st.integers(0, (1 << width) - 1)


def lanes(width, count):
    return st.lists(lane(width), min_size=count, max_size=count)


def near(data, width, values):
    """`values` with some lanes kept and the rest redrawn."""
    other = data.draw(lanes(width, len(values)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return [x if k else y for x, y, k in zip(values, other, keep)]


@pytest.mark.parametrize("l", range(1, 28))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_packed_checks_match_lane_oracles(l, data):
    n = data.draw(st.integers(1, 12), label="n")
    params = experimental_params(8, n, l)
    big_n = params.subkey_count
    a = data.draw(lanes(l, big_n), label="a")
    b = near(data, l, a)
    shared = tuple(sorted(data.draw(
        st.lists(st.integers(0, big_n - 1), min_size=n, max_size=n, unique=True),
        label="shared",
    )))
    packed_a, packed_b = pack_digests(a, l), pack_digests(b, l)
    assert core.count_matches(params, packed_a, packed_b) == count_matches_oracle(a, b)
    want = core.ET_EQUAL if et_compare_oracle(shared, a, b) else core.ET_DISTINCT
    assert core.et_compare(params, shared, packed_a, packed_b) == want


@pytest.mark.parametrize("l", range(1, 28))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_dispute_counts_split_alice_and_bob_lanes(l, data):
    # up to 12 blocks a claim, so the list path or numpy may hash the 2N lanes
    n = data.draw(st.integers(1, 4), label="n")
    r = data.draw(st.integers(1, 12 * l), label="r")
    params = experimental_params(r, n, l)
    big_n = params.subkey_count
    keys = st.lists(st.integers(0, (1 << l) - 1), min_size=big_n, max_size=big_n)
    subkeys_a = tuple(data.draw(keys, label="subkeys_a"))
    subkeys_b = tuple(data.draw(keys, label="subkeys_b"))
    claim = data.draw(st.integers(0, (1 << r) - 1))
    # distinct claims, so the ruling reads digests
    claims = [Message(claim, r), Message(claim ^ data.draw(st.integers(1, (1 << r) - 1)), r)]

    def digests(subkeys, claim):
        return [poly_hash(k, claim.value, r, l) for k in subkeys]

    def submission(subkeys, claim):
        """A claim's digests, whole or with some lanes redrawn."""
        exact = digests(subkeys, claim)
        return exact if data.draw(st.booleans()) else near(data, l, exact)

    vec_a = submission(subkeys_a, claims[0])
    vec_b = submission(subkeys_b, data.draw(st.sampled_from(claims)))
    counts = tuple(
        count_matches_oracle(digests(subkeys, claim), vec)
        for subkeys, vec, claim in (
            (subkeys_a, vec_a, claims[0]),
            (subkeys_a, vec_a, claims[1]),
            (subkeys_b, vec_b, claims[0]),
            (subkeys_b, vec_b, claims[1]),
        )
    )

    def read(subkeys, claim):
        return hash_vector(subkeys, claim.value, r, l)

    got = core.dr_verdict(params, *claims, pack_digests(vec_a, l), pack_digests(vec_b, l),
                          subkeys_a, subkeys_b, read)
    assert got == dr_verdict_oracle(*claims, big_n, *counts)
    if counts[0] == counts[3] == big_n:
        # the cross counts are the zero lanes of the claims' difference under
        # Alice's subkeys followed by Bob's, split at N
        difference = Message(claims[0].value ^ claims[1].value, r)
        lanes = unpack_digests(read((*subkeys_a, *subkeys_b), difference), l, 2 * big_n)
        assert (lanes[:big_n].count(0), lanes[big_n:].count(0)) == counts[1:3]
