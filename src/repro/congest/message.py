"""Messages and bandwidth accounting for the CONGEST model.

In the CONGEST model every node may send, per round and per incident
edge, one message of ``O(log n)`` bits.  We model an ``O(log n)``-bit
quantity as one *word*: node identifiers, round numbers, counters bounded
by ``poly(n)``, and quantised weights each fit in a constant number of
words.  A message is a ``kind`` tag plus a small tuple payload; its cost
in words is audited by :func:`payload_words`, and the network enforces a
configurable ``max_words_per_message`` so that accidentally smuggling a
linear-size payload into "one message" raises instead of silently
breaking the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import BandwidthExceededError


@dataclass(frozen=True, slots=True)
class Message:
    """A single CONGEST message.

    Attributes
    ----------
    kind:
        Protocol tag, e.g. ``"bfs"`` or ``"lca-list"``.  Tags are drawn
        from a constant-size alphabet per algorithm, so they cost O(1)
        bits and are *not* charged words.
    payload:
        Tuple of scalars (ints, floats, strings, small tuples).  Charged
        one word per scalar, recursively.
    words:
        Size of the payload in words, computed once at construction (the
        payload of a frozen message never changes).  The engine reads
        this both at the strict-mode send audit and at delivery
        (metrics) — previously two full recursive recounts per hop; a
        multicast message shared across many edges pays the count
        exactly once.

    The class is slotted: the engine allocates one instance per logical
    message (shared across multicast fan-out and relays), and at
    simulator volumes the ``__dict__``-free layout is a measurable share
    of the per-message cost.
    """

    kind: str
    payload: tuple = ()
    words: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Flat tuples of scalars are the overwhelmingly common payload;
        # count them inline and only recurse for nested containers.
        total = 0
        for item in self.payload:
            if type(item) in _SCALAR_TYPES:
                total += 1
            elif item is not None:
                total += payload_words(item)
        object.__setattr__(self, "words", total)

    # Frozen+slotted dataclasses only pickle out of the box from Python
    # 3.11; the explicit state hooks keep messages picklable on 3.10
    # (node memory containing messages may cross the process backend).
    def __getstate__(self) -> tuple:
        return (self.kind, self.payload, self.words)

    def __setstate__(self, state: tuple) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "kind", state[0])
        setattr_(self, "payload", state[1])
        setattr_(self, "words", state[2])


#: Scalar payload types charged exactly one word (exact type match is the
#: fast path; subclasses fall through to the isinstance check below).
_SCALAR_TYPES = frozenset((int, float, str, bool))


def payload_words(value: Any) -> int:
    """Recursively count the word cost of a payload.

    Scalars cost one word; tuples/lists/frozensets cost the sum of their
    elements (a length prefix is absorbed into the constant).  ``None``
    costs zero (absence flag).
    """
    if value is None:
        return 0
    if type(value) in _SCALAR_TYPES:
        return 1
    if isinstance(value, (tuple, list, frozenset)):
        total = 0
        for item in value:
            if type(item) in _SCALAR_TYPES:
                total += 1
            elif item is not None:
                total += payload_words(item)
        return total
    if isinstance(value, (int, float, str)):
        return 1
    raise BandwidthExceededError(
        f"payload element of type {type(value).__name__} has no defined "
        f"CONGEST size; send scalars or tuples of scalars"
    )


def check_message_size(message: Message, max_words: int) -> None:
    """Raise :class:`BandwidthExceededError` when the message is too big."""
    words = message.words
    if words > max_words:
        raise BandwidthExceededError(
            f"message kind={message.kind!r} carries {words} words, "
            f"exceeding the per-message budget of {max_words} words "
            f"(one word models O(log n) bits)"
        )
