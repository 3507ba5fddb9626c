"""IPv4 and MAC addresses with allocators.

Thin immutable wrappers around integers — hashable, ordered, cheap to
compare — with the dotted/colon formats used in logs and tests.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address stored as a 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 value out of range: {self.value:#x}")

    def __hash__(self) -> int:
        # Addresses are dict keys on every flow-table lookup; the
        # non-negative 32-bit value is its own perfect hash, cheaper
        # than the generated hash((self.value,)) tuple round-trip.
        return self.value

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"malformed IPv4 address {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


@dataclasses.dataclass(frozen=True, order=True)
class MACAddress:
    """An Ethernet MAC address stored as a 48-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC value out of range: {self.value:#x}")

    def __hash__(self) -> int:
        # Same reasoning as IPv4Address: the 48-bit value fits a hash
        # slot directly.
        return self.value

    @classmethod
    def parse(cls, text: str) -> "MACAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"malformed MAC address {text!r}")
        value = 0
        for part in parts:
            octet = int(part, 16)
            if not 0 <= octet <= 255:
                raise ValueError(f"malformed MAC address {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return ":".join(
            f"{(self.value >> shift) & 0xFF:02x}" for shift in (40, 32, 24, 16, 8, 0)
        )

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"


class IPAllocator:
    """Hands out sequential addresses from a /24-style base."""

    def __init__(self, base: str = "10.0.0.0") -> None:
        self._next = IPv4Address.parse(base).value + 1

    def allocate(self) -> IPv4Address:
        addr = IPv4Address(self._next)
        self._next += 1
        return addr


#: The locally-administered block :class:`MACAllocator` counts up from.
MAC_BASE = 0x02_00_00_00_00_00


class MACAllocator:
    """Hands out sequential locally-administered MACs."""

    def __init__(self) -> None:
        self._next = MAC_BASE + 1

    def allocate(self) -> MACAddress:
        mac = MACAddress(self._next)
        self._next += 1
        return mac
