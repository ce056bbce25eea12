import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import DimensionMismatch, SubsetMask
from ocrs.bitset import full_mask, iter_bits, mask_of, popcount, sliced, unsliced

from conftest import column


def test_constructors_and_contents():
    s = SubsetMask.from_elements(5, [0, 3])
    assert s.bits == 0b01001
    assert 3 in s and 1 not in s
    assert s.elements() == [0, 3]
    assert s.cardinality() == len(s) == 2
    assert SubsetMask.full(3).bits == 0b111
    assert not SubsetMask.empty(4)


def test_bits_must_fit_ground_set():
    with pytest.raises(ValueError):
        SubsetMask(3, 0b1000)
    with pytest.raises(ValueError):
        SubsetMask(2, -1)


def test_set_algebra():
    a = SubsetMask(4, 0b0110)
    b = SubsetMask(4, 0b0011)
    assert (a & b).bits == 0b0010
    assert (a | b).bits == 0b0111
    assert (a - b).bits == 0b0100
    assert (~a).bits == 0b1001
    assert a.issubset(a | b)
    assert a.add(3).bits == 0b1110
    assert a.remove(1).bits == 0b0100
    with pytest.raises(KeyError):
        a.remove(0)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        SubsetMask(3, 1) & SubsetMask(4, 1)


def test_immutability_and_hash():
    s = SubsetMask(3, 0b101)
    with pytest.raises(AttributeError):
        s.bits = 0
    assert hash(s) == hash(SubsetMask(3, 0b101))
    assert s == SubsetMask(3, 0b101)
    assert s != SubsetMask(4, 0b101)


def test_bit_helpers():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 2]) == 0b101
    assert full_mask(4) == 0b1111
    assert popcount(0b1011) == 3


@st.composite
def trial_sets(draw):
    """n in 1..70 and a list of sets over it, often with empty trials, at
    the end too."""
    n = draw(st.integers(1, 70))
    bits = st.integers(0, (1 << n) - 1)
    sets = draw(st.lists(st.one_of(st.just(0), bits), max_size=40))
    return n, sets + [0] * draw(st.integers(0, 3))


class TestSliced:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trial_sets())
    def test_round_trip(self, case):
        n, sets = case
        words = sliced(sets, n)
        assert len(words) == n
        assert [column(words, t) for t in range(len(sets))] == sets
        assert all(w >> len(sets) == 0 for w in words)
        assert unsliced(words, len(sets)) == sets

    def test_no_trials_and_no_elements(self):
        assert sliced([], 3) == [0, 0, 0]
        assert unsliced([0, 0, 0], 0) == []
        assert sliced([0, 0], 0) == []
        assert unsliced([], 2) == [0, 0]
