"""Network substrate: envelopes, codec, channel models, and the
lock-step / asyncio execution backends (registered in
:data:`repro.net.channel.BACKENDS`)."""

from repro.net.asyncio_net import AsyncCluster, frame, unframe
from repro.net.channel import (
    BACKENDS,
    CHANNEL_MODELS,
    RELIABLE_CHANNEL,
    ChannelModel,
    ChannelState,
    JitteredChannel,
    LossyChannel,
    MobilityChannel,
    NetworkBackend,
    ReliableChannel,
    channel_model,
    register_backend,
    register_channel_model,
    resolve_backend,
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
    "BACKENDS",
    "CHANNEL_MODELS",
    "RELIABLE_CHANNEL",
    "ChannelModel",
    "ChannelState",
    "JitteredChannel",
    "LossyChannel",
    "MobilityChannel",
    "NetworkBackend",
    "ReliableChannel",
    "channel_model",
    "register_backend",
    "register_channel_model",
    "resolve_backend",
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
