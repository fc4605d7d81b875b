"""CONGEST-model simulator (system S3 of DESIGN.md).

Synchronous rounds, one O(log n)-bit message per edge per direction per
round (enforced by construction via per-edge FIFOs plus a per-message
word audit), persistent node memory across phases, and round/message
metrics distinguishing *measured* from *charged* costs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".message": ("Message", "check_message_size", "payload_words"),
    ".metrics": ("PhaseMetrics", "RunMetrics"),
    ".network": ("CongestNetwork", "PhaseResult", "DEFAULT_MAX_WORDS"),
    ".node": ("Inbox", "NodeContext", "NodeProgram", "single_message"),
    ".trace": ("MessageTracer", "TraceEvent", "kind_filter", "node_filter"),
})
