"""Parameter derivation, budgets, and epsilon parsing."""

from fractions import Fraction

import pytest

from etdr.errors import ParameterError
from etdr.params import (
    Params,
    ceil_log2,
    derive_params,
    experimental_params,
    parse_epsilon,
)


def test_ceil_log2_exact_powers_and_neighbours():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(256) == 8
    assert ceil_log2(257) == 9
    assert ceil_log2(255) == 8
    assert ceil_log2(2**50) == 50
    assert ceil_log2(2**50 + 1) == 51


def test_ceil_log2_fractions():
    assert ceil_log2(Fraction(1, 2)) == -1
    assert ceil_log2(Fraction(1, 3)) == -1
    assert ceil_log2(Fraction(3, 4)) == 0
    assert ceil_log2(Fraction(5, 4)) == 1
    # huge exact rational: 16^3 / eps^3 with eps = 10^-12
    assert ceil_log2(Fraction(16, Fraction(1, 10**12)) ** 3) == 132


def test_ceil_log2_rejects_nonpositive():
    with pytest.raises(ParameterError):
        ceil_log2(0)
    with pytest.raises(ParameterError):
        ceil_log2(Fraction(-1, 2))


def test_parse_epsilon_forms():
    assert parse_epsilon("1/16") == Fraction(1, 16)
    assert parse_epsilon("2^-4") == Fraction(1, 16)
    assert parse_epsilon("0.0625") == Fraction(1, 16)
    assert parse_epsilon("1e-12") == Fraction(1, 10**12)
    assert parse_epsilon(" 2^-40 ") == Fraction(1, 2**40)


def test_parse_epsilon_rejects_garbage():
    for bad in ("", "abc", "2^x", "1/0", "--3"):
        with pytest.raises((ParameterError, ZeroDivisionError)):
            parse_epsilon(bad)


def test_derive_params_small_corner():
    p = derive_params(256, Fraction(1, 16))
    assert (p.shared_count, p.subkey_bits, p.subkey_count) == (24, 8, 48)
    assert p.total_key_bits == 2048
    assert p.et_comm_bits == 1028
    assert p.dr_comm_bits == 772
    assert p.tag_bits == 32
    assert p.digest_vector_bits == 384


def test_derive_params_large_corner():
    p = derive_params(2**50, Fraction(1, 10**12))
    assert (p.shared_count, p.subkey_bits, p.subkey_count) == (132, 50, 264)
    assert p.et_comm_bits == 27860


def test_key_accounting_identity():
    # per-party split must reproduce the closed-form total exactly
    for r, eps in [(256, Fraction(1, 16)), (1024, Fraction(1, 256)),
                   (2**20, Fraction(1, 10**6))]:
        p = derive_params(r, eps)
        per_party = p.et_key_bits_per_party + p.sc_key_bits_per_party
        assert 2 * per_party == p.total_key_bits
        assert p.sc_key_bits_per_party == p.digest_vector_bits + p.mac_key_bits_per_party


def test_derive_params_domain_errors():
    with pytest.raises(ParameterError):
        derive_params(255, Fraction(1, 16))
    with pytest.raises(ParameterError):
        derive_params(256, Fraction(1, 8))
    with pytest.raises(ParameterError):
        derive_params(256, Fraction(0))
    with pytest.raises(ParameterError):
        derive_params(256, Fraction(-1, 16))


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(data_bits=8, epsilon=None, shared_count=2,
               subkey_bits=2, subkey_count=5)
    with pytest.raises(ParameterError):
        Params(data_bits=0, epsilon=None, shared_count=2,
               subkey_bits=2, subkey_count=4)
    with pytest.raises(ParameterError):
        Params(data_bits=8, epsilon=Fraction(2), shared_count=2,
               subkey_bits=2, subkey_count=4)


def test_experimental_params_tiny():
    p = experimental_params(data_bits=4, shared_count=2, subkey_bits=2)
    assert p.subkey_count == 4
    assert p.epsilon is None
    assert p.tag_bits == 4
    assert p.digest_vector_bits == 8
