"""IPv4 addresses and their allocator.

A thin immutable wrapper around an integer — hashable, ordered, cheap
to compare — with the dotted format used in logs and tests.
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


class IPAllocator:
    """Hands out sequential addresses from a /24-style base."""

    def __init__(self, base: str = "10.0.0.0") -> None:
        self._next = IPv4Address.parse(base).value + 1

    def allocate(self) -> IPv4Address:
        addr = IPv4Address(self._next)
        self._next += 1
        return addr
