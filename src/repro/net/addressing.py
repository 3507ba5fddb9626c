"""IPv4 addresses and their allocator.

An address is a built-in ``int`` that prints dotted: it hashes,
compares and orders in C, as every flow-table key the switch builds
holds two of them.
"""

from __future__ import annotations


class IPv4Address(int):
    """An IPv4 address: a 32-bit ``int`` whose ``str`` is dotted.

    It hashes, compares and orders as its integer, so
    ``IPv4Address.parse("0.0.0.5") == 5`` and ``hash(ip) == int(ip)``;
    arithmetic on it gives a plain ``int``.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "IPv4Address":
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 value out of range: {value:#x}")
        return super().__new__(cls, value)

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
        return ".".join(str((self >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


class IPAllocator:
    """Hands out sequential addresses from a /24-style base."""

    def __init__(self, base: str = "10.0.0.0") -> None:
        self._next = IPv4Address.parse(base) + 1

    def allocate(self) -> IPv4Address:
        addr = IPv4Address(self._next)
        self._next += 1
        return addr
