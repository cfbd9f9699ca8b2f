"""Network substrate: envelopes, codec, channel models, and the
lock-step / asyncio execution backends.  The asyncio transport loads
:mod:`asyncio` on its first run, not on import."""

from repro.net.asyncio_net import AsyncCluster, frame, unframe
from repro.net.channel import (
    CHANNEL_MODELS,
    RELIABLE_CHANNEL,
    ChannelModel,
    ChannelState,
    JitteredChannel,
    LossyChannel,
    MobilityChannel,
    ReliableChannel,
)
from repro.net.codec import (
    ByteReader,
    PayloadCodec,
    codec_for_payload,
    decode_envelope,
    encode_envelope,
    pack_node_id,
    register_payload_codec,
)
from repro.net.message import Envelope, Outgoing, Payload, RawPayload
from repro.net.simulator import RoundProtocol, SyncNetwork
from repro.net.stats import TrafficStats

__all__ = [
    "AsyncCluster",
    "frame",
    "unframe",
    "CHANNEL_MODELS",
    "RELIABLE_CHANNEL",
    "ChannelModel",
    "ChannelState",
    "JitteredChannel",
    "LossyChannel",
    "MobilityChannel",
    "ReliableChannel",
    "ByteReader",
    "PayloadCodec",
    "codec_for_payload",
    "decode_envelope",
    "encode_envelope",
    "pack_node_id",
    "register_payload_codec",
    "Envelope",
    "Outgoing",
    "Payload",
    "RawPayload",
    "RoundProtocol",
    "SyncNetwork",
    "TrafficStats",
]
