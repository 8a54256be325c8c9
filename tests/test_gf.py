import pytest

from relalg.gf import factor_prime_power, field_make, is_prime_power

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    f = field_make(q)
    els = list(f.elements())
    for x in els:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
        for y in els:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in els:
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_multiplicative_group_order(q):
    f = field_make(q)
    for x in range(1, q):
        assert f.pow(x, q - 1) == 1


def test_moduli_are_lexicographically_least():
    assert field_make(4).modulus == (1, 1)  # x^2 + x + 1
    assert field_make(8).modulus == (1, 1, 0)  # x^3 + x + 1
    assert field_make(9).modulus == (1, 0)  # x^2 + 1
    assert field_make(16).modulus == (1, 1, 0, 0)  # x^4 + x + 1


def test_arithmetic_examples():
    g3 = field_make(3)
    assert g3.add(2, 2) == 1
    g4 = field_make(4)
    # index 2 encodes the generator X; X*X reduces to X+1 (index 3)
    assert g4.mul(2, 2) == 3
    g5 = field_make(5)
    assert g5.inv(2) == 3


def test_prime_power_detection():
    assert is_prime_power(9) and is_prime_power(128) and is_prime_power(2)
    assert not is_prime_power(6) and not is_prime_power(1) and not is_prime_power(12)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(60) is None


def test_field_make_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 100):
        with pytest.raises(ValueError):
            field_make(q)
    with pytest.raises(ValueError):
        field_make(1 << 17)


def test_inverse_of_zero():
    f = field_make(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_index_encoding_round_trip():
    f = field_make(9)
    for x in range(9):
        assert f._encode(f.coeffs(x)) == x


def test_multiplication_table_is_a_cache_hidden_from_repr():
    f = field_make(9)
    assert repr(f) == "FieldSpec(q=9, p=3, k=2, modulus=(1, 0))"
    with pytest.raises(ValueError, match="larger than 256"):
        field_make(257)
    # GF(9) = GF(3)[X]/(X^2 + 1): (a + bX)(c + dX) = (ac - bd) + (ad + bc)X
    for x in range(9):
        for y in range(9):
            (a, b), (c, d) = divmod(x, 3)[::-1], divmod(y, 3)[::-1]
            assert f.mul(x, y) == (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)


@pytest.mark.parametrize("q", [2, 4, 7, 9])
def test_every_operation_refuses_indices_out_of_range(q):
    f = field_make(q)
    for bad in (-1, q, q + 1, 10 * q):
        for op in (f.add, f.sub, f.mul):
            for args in ((0, bad), (bad, 0), (1, bad), (bad, 1)):
                with pytest.raises(ValueError, match="out of range"):
                    op(*args)
        for op in (f.neg, f.inv, lambda x: f.pow(x, 3)):
            with pytest.raises(ValueError, match="out of range"):
                op(bad)
