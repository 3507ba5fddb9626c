"""Testbed assembly: the Carinthian Computing Continuum (C³) model."""

from repro.testbed.c3 import C3Testbed, TestbedConfig
from repro.testbed.federation import FederatedTestbed
from repro.testbed.site import FederationConfig, Site

__all__ = [
    "C3Testbed",
    "FederatedTestbed",
    "FederationConfig",
    "Site",
    "TestbedConfig",
]
