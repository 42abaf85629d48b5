import pytest
from hypothesis import given, strategies as st

from oracles import mols_by_formula
from squaregap.latin import (
    are_orthogonal,
    build_latin,
    build_mols_family,
    is_latin,
    require_prime,
    smallest_divisor,
)

PRIMES = [3, 5, 7, 11, 13]

# Frozen order-3 family: slope-1 and slope-2 squares written out in full.
ORDER3_L1 = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
ORDER3_L2 = [[1, 3, 2], [2, 1, 3], [3, 2, 1]]

# Frozen order-5 family, all four squares.
ORDER5 = {
    1: [[1, 2, 3, 4, 5], [2, 3, 4, 5, 1], [3, 4, 5, 1, 2], [4, 5, 1, 2, 3], [5, 1, 2, 3, 4]],
    2: [[1, 3, 5, 2, 4], [2, 4, 1, 3, 5], [3, 5, 2, 4, 1], [4, 1, 3, 5, 2], [5, 2, 4, 1, 3]],
    3: [[1, 4, 2, 5, 3], [2, 5, 3, 1, 4], [3, 1, 4, 2, 5], [4, 2, 5, 3, 1], [5, 3, 1, 4, 2]],
    4: [[1, 5, 4, 3, 2], [2, 1, 5, 4, 3], [3, 2, 1, 5, 4], [4, 3, 2, 1, 5], [5, 4, 3, 2, 1]],
}


def test_smallest_divisor():
    assert smallest_divisor(2) == 2
    assert smallest_divisor(9) == 3
    assert smallest_divisor(91) == 7  # 7 * 13
    assert smallest_divisor(97) == 97
    with pytest.raises(ValueError):
        smallest_divisor(1)


def test_is_prime():
    primes = [n for n in range(2, 30) if smallest_divisor(n) == n]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_require_prime_names_a_witness_divisor():
    require_prime(7)  # no exception
    for n in (2, 1, 0, -7):
        with pytest.raises(ValueError, match=f"n must be a prime >= 3, got {n}$"):
            require_prime(n)
    with pytest.raises(ValueError, match=r"got -10{58}\.\.\. \(1002 characters\)$"):
        require_prime(-10 ** 1000)
    with pytest.raises(ValueError, match=r"9 = 3 \* 3"):
        require_prime(9)
    with pytest.raises(ValueError, match=r"91 = 7 \* 13"):
        require_prime(91)


def test_order3_family_matches_frozen_squares():
    assert build_latin(3, 1) == tuple(map(tuple, ORDER3_L1))
    assert build_latin(3, 2) == tuple(map(tuple, ORDER3_L2))


def test_order5_family_matches_frozen_squares():
    for slope, expected in ORDER5.items():
        assert build_latin(5, slope) == tuple(map(tuple, expected))


def test_family_matches_the_entry_formula():
    # the builder reads stepped slices of a ring; the oracle evaluates every entry
    for n in (p for p in range(3, 62) if smallest_divisor(p) == p):
        assert build_mols_family(n) == mols_by_formula(n), n


def test_entry_accessor_is_one_based():
    sq = build_latin(3, 1)
    for j, k in [(1, 1), (2, 3), (3, 2)]:  # row j, column k, counted from 1
        assert sq[j - 1][k - 1] == 1


def test_first_column_is_identity():
    # k = 1 contributes nothing, so column 1 reads 1..n in every square
    for n in PRIMES:
        for i in range(1, n):
            col = [row[0] for row in build_latin(n, i)]
            assert col == list(range(1, n + 1))


@pytest.mark.parametrize("n", PRIMES)
def test_family_is_latin_and_pairwise_orthogonal(n):
    family = build_mols_family(n)
    assert len(family) == n - 1
    for sq in family:
        assert is_latin(sq)
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            assert are_orthogonal(family[a], family[b])


def test_orthogonality_is_symmetric():
    family = build_mols_family(5)
    a, b = family[0], family[2]
    assert are_orthogonal(a, b) == are_orthogonal(b, a)


def test_square_not_orthogonal_to_itself():
    sq = build_latin(5, 2)
    assert not are_orthogonal(sq, sq)


def test_squares_of_two_orders_are_refused():
    with pytest.raises(ValueError, match="^order mismatch: 3 vs 5$"):
        are_orthogonal(build_latin(3, 1), build_latin(5, 1))


def test_is_latin_rejects_repeats():
    bad_row = [[1, 1, 3], [2, 3, 1], [3, 2, 2]]
    assert not is_latin(bad_row)
    bad_col = [[1, 2, 3], [1, 3, 2], [2, 1, 3]]  # column 1 repeats 1
    assert not is_latin(bad_col)


def test_is_latin_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        is_latin([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        is_latin([[1, 2, 3]])  # not square


def test_composite_orders_rejected():
    for n in (4, 6, 8, 9, 10, 12):
        with pytest.raises(ValueError):
            build_latin(n, 1)
        with pytest.raises(ValueError):
            build_mols_family(n)


def test_slope_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_latin(5, 0)
    with pytest.raises(ValueError):
        build_latin(5, 5)


def test_entries_are_read_only():
    sq = build_latin(3, 1)
    with pytest.raises(TypeError):
        sq[0][0] = 9


def test_latin_square_equality_and_hash():
    a = build_latin(5, 2)
    b = build_latin(5, 2)
    c = build_latin(5, 3)
    assert a == b and hash(a) == hash(b)
    assert a != c


@given(st.sampled_from(PRIMES), st.data())
def test_any_slope_gives_a_latin_square(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert is_latin(build_latin(n, i))


@given(st.sampled_from([5, 7, 11]), st.data())
def test_distinct_slopes_are_orthogonal(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    result = are_orthogonal(build_latin(n, i), build_latin(n, j))
    assert result == (i != j)
