"""Deterministic simulation: events, shared resources, network."""

from .events import Event, EventSimulator
from .network import (
    DEFAULT_HOP_NS,
    LinkFaultPolicy,
    NetStats,
    SimNetwork,
    message_checksum,
)
from .resources import BandwidthResource, FIFOServer, ServerSnapshot

__all__ = [
    "BandwidthResource",
    "DEFAULT_HOP_NS",
    "Event",
    "EventSimulator",
    "FIFOServer",
    "LinkFaultPolicy",
    "NetStats",
    "ServerSnapshot",
    "SimNetwork",
    "message_checksum",
]
