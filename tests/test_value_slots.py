"""The value types built by the million keep no per-instance dict.

``MacAddress``, ``Point`` and ``Ssid`` are frozen dataclasses with
hand-written ``__slots__``; each still pickles and copies (spawn-mode
shard processes pickle the localizer factory and its AP database).
"""

import copy
import pickle

import pytest

from repro.geometry.point import Point
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid

VALUES = [MacAddress(0x001B63000A0F), Point(12.5, -3.0), Ssid("campus")]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
class TestSlottedValues:
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, value, protocol):
        restored = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert restored == value
        assert type(restored) is type(value)
        assert hash(restored) == hash(value)

    def test_copy_and_deepcopy(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert copy.deepcopy([value, value]) == [value, value]

    def test_still_frozen(self, value):
        field = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_mac_text_unchanged():
    for value in (0, 1, 0x001B63000A0F, 0x0A0B0C0D0E0F, (1 << 48) - 1):
        octets = [(value >> shift) & 0xFF for shift in (40, 32, 24, 16, 8, 0)]
        assert str(MacAddress(value)) == ":".join(f"{o:02x}" for o in octets)
    assert MacAddress.parse(str(MacAddress(0xA1B2C3D4E5F6))) == \
        MacAddress(0xA1B2C3D4E5F6)
