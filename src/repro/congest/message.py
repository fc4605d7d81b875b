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

from typing import Any

from ..errors import BandwidthExceededError


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
        Size of the payload in words, counted once in ``__init__``; the
        send-time size check and the delivery-time metrics read it.

    **Immutability contract.**  A message is a value: nothing rebinds
    its attributes after ``__init__``.  One instance is shared by every
    edge of a multicast and every hop of a relay, and ``words`` is never
    recounted.  The contract is kept by convention — a plain
    ``__slots__`` class builds faster than a frozen dataclass — and no
    library code assigns to a message.  Equality and hashing are by
    ``(kind, payload)``; a message pickles as its constructor call.
    """

    __slots__ = ("kind", "payload", "words")

    def __init__(self, kind: str, payload: tuple = ()) -> None:
        self.kind = kind
        self.payload = payload
        # Flat tuples of scalars are the overwhelmingly common payload;
        # count them inline and only recurse for nested containers.
        total = 0
        for item in payload:
            if type(item) in _SCALAR_TYPES:
                total += 1
            elif item is not None:
                total += payload_words(item)
        self.words = total

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.payload) == (other.kind, other.payload)

    def __hash__(self) -> int:
        return hash((self.kind, self.payload))

    def __repr__(self) -> str:
        return f"Message(kind={self.kind!r}, payload={self.payload!r})"

    def __reduce__(self) -> tuple:
        return (Message, (self.kind, self.payload))


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
