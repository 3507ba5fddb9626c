"""Discrete-event network substrate.

Models the parts of the C³ testbed's data plane that the transparent
edge approach exercises: hosts with a TCP-handshake + HTTP model,
point-to-point links with latency and bandwidth, and (in
:mod:`repro.net.openflow`) an OpenFlow switch whose flow table the SDN
controller programs.

The measured quantity throughout the reproduction is ``time_total`` as
defined by the paper's *timecurl* script: from the moment the client
starts establishing a TCP connection until the full HTTP response has
arrived.
"""

from repro.net.addressing import IPv4Address
from repro.net.packet import (
    DataResponse,
    HTTPRequest,
    HTTPResponse,
    Packet,
    TCPFlags,
    TCPSegment,
)
from repro.net.link import Link
from repro.net.device import NetDevice, NetworkInterface
from repro.net.host import ConnectionRefused, ConnectionTimeout, Host, HTTPResult

__all__ = [
    "ConnectionRefused",
    "ConnectionTimeout",
    "DataResponse",
    "HTTPRequest",
    "HTTPResponse",
    "HTTPResult",
    "Host",
    "IPv4Address",
    "Link",
    "NetDevice",
    "NetworkInterface",
    "Packet",
    "TCPFlags",
    "TCPSegment",
]
