"""CONGEST-model simulator (system S3 of DESIGN.md).

Synchronous rounds, one O(log n)-bit message per edge per direction per
round (enforced by construction via per-edge FIFOs plus a per-message
word audit), persistent node memory across phases, and round/message
metrics distinguishing *measured* from *charged* costs.
"""

from .message import Message, check_message_size, payload_words
from .metrics import PhaseMetrics, RunMetrics
from .network import (
    CongestNetwork,
    PhaseResult,
    DEFAULT_MAX_WORDS,
)
from .node import Inbox, NodeContext, NodeProgram, single_message
from .trace import MessageTracer, TraceEvent, kind_filter, node_filter

__all__ = [
    "Message",
    "check_message_size",
    "payload_words",
    "PhaseMetrics",
    "RunMetrics",
    "CongestNetwork",
    "PhaseResult",
    "DEFAULT_MAX_WORDS",
    "Inbox",
    "NodeContext",
    "NodeProgram",
    "single_message",
    "MessageTracer",
    "TraceEvent",
    "kind_filter",
    "node_filter",
]
