"""Deterministic simulation: events, shared resources, network."""

from .events import Event, EventSimulator
from .network import (
    DEFAULT_HOP_NS,
    LinkFaultPolicy,
    NetStats,
    SimNetwork,
    message_checksum,
)
from .resources import (
    BandwidthResource,
    EngineCostModel,
    FIFOServer,
    ServerSnapshot,
    cost_model_for,
)

__all__ = [
    "BandwidthResource",
    "DEFAULT_HOP_NS",
    "EngineCostModel",
    "Event",
    "EventSimulator",
    "FIFOServer",
    "LinkFaultPolicy",
    "NetStats",
    "ServerSnapshot",
    "SimNetwork",
    "cost_model_for",
    "message_checksum",
]
