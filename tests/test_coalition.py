import dataclasses

import pytest
from hypothesis import given, strategies as st

from promptshap.coalition import Coalition, check_masks, hex_keys
from promptshap.errors import PreconditionError


def test_constructors_and_membership():
    c = Coalition(0b101, 3)
    assert c.indices() == (0, 2)
    assert Coalition(0, 4).indices() == ()
    assert Coalition(0b1111, 4).indices() == (0, 1, 2, 3)
    assert Coalition(0b101, 3) == Coalition(0b101, 3) != Coalition(0b101, 4)


def test_validation():
    with pytest.raises(PreconditionError):
        Coalition(0, 0)
    with pytest.raises(PreconditionError):
        Coalition(-1, 3)
    with pytest.raises(PreconditionError):
        Coalition(0b1000, 3)


def test_hex_known_values():
    # little-endian bytes, zero-padded to ceil(n/8), lowercase
    assert hex_keys([0b101], 3) == ["05"]
    assert hex_keys([0], 3) == ["00"]
    assert hex_keys([255], 8) == ["ff"]
    assert hex_keys([1 << 8], 9) == ["0001"]
    assert hex_keys([0xfff], 12) == ["ff0f"]
    # a batch is keyed in order
    assert hex_keys([0b101, 0, 1 << 8], 9) == ["0500", "0000", "0001"]
    assert hex_keys([], 3) == []


@given(st.integers(min_value=1, max_value=80), st.data())
def test_hex_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    width = (n + 7) // 8
    [s] = hex_keys([mask], n)
    assert len(s) == 2 * width
    assert int.from_bytes(bytes.fromhex(s), "little") == mask
    assert hex_keys([mask, 0], n) == [s, "00" * width]


@given(st.integers(min_value=1, max_value=30), st.data())
def test_indices_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    c = Coalition(mask, n)
    assert sum(1 << i for i in c.indices()) == mask
    assert list(c.indices()) == sorted(c.indices())


def test_check_masks_names_the_first_mask_outside_the_players():
    with pytest.raises(PreconditionError, match="coalition mask -0x1 has bits outside"):
        check_masks([0, -1], 3)
    with pytest.raises(PreconditionError, match="coalition mask 0x8 has bits outside"):
        check_masks([7, 8, -1], 3)


def test_coalition_is_frozen():
    c = Coalition(0b11, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.mask = 0
    assert not hasattr(c, "__dict__")
