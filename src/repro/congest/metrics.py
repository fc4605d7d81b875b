"""Round and message accounting for CONGEST runs.

Two kinds of cost appear in the library:

* **measured** rounds — counted by actually running a phase on the
  simulator;
* **charged** rounds — analytic costs of substituted subroutines (e.g.
  the published Kutten–Peleg MST bound), recorded separately so reports
  can always distinguish the two (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class PhaseMetrics:
    """Costs of a single phase run to quiescence.

    ``wall_time`` is the real-clock duration of the ``run_phase`` call in
    seconds.  It is excluded from equality (``compare=False``): two runs
    are *the same computation* when rounds/messages/words agree, however
    long the simulator took — the equivalence suite compares
    ``PhaseMetrics`` objects directly and must not depend on timing.

    Slotted: a result keeps one instance per phase (an exact CONGEST
    solve runs about 120), and an instance without a ``__dict__`` takes
    about two thirds of the memory.
    """

    name: str
    rounds: int = 0
    messages: int = 0
    words: int = 0
    max_message_words: int = 0
    max_edge_backlog: int = 0
    wall_time: float = field(default=0.0, compare=False)

    def merge_message(self, words: int) -> None:
        self.messages += 1
        self.words += words
        if words > self.max_message_words:
            self.max_message_words = words


@dataclass
class RunMetrics:
    """Accumulated costs of a multi-phase computation."""

    phases: list[PhaseMetrics] = field(default_factory=list)
    charged_rounds: int = 0
    charged_notes: list[str] = field(default_factory=list)

    @property
    def measured_rounds(self) -> int:
        return sum(p.rounds for p in self.phases)

    @property
    def total_rounds(self) -> int:
        """Measured plus charged rounds — the figure comparable to the
        paper's bound."""
        return self.measured_rounds + self.charged_rounds

    @property
    def total_messages(self) -> int:
        return sum(p.messages for p in self.phases)

    @property
    def total_words(self) -> int:
        return sum(p.words for p in self.phases)

    @property
    def max_message_words(self) -> int:
        return max((p.max_message_words for p in self.phases), default=0)

    @property
    def max_edge_backlog(self) -> int:
        return max((p.max_edge_backlog for p in self.phases), default=0)

    @property
    def wall_time(self) -> float:
        """Total simulator wall-clock seconds across measured phases.

        A simulator-speed observable: a protocol's rounds and messages
        are deterministic, so a jump here (at constant rounds) is a
        round-loop regression — visible in ``summary()`` and
        ``extras["congest"]`` without rerunning a benchmark.
        """
        return sum(p.wall_time for p in self.phases)

    def add_phase(self, phase: PhaseMetrics) -> None:
        self.phases.append(phase)

    def charge(self, rounds: int, note: str) -> None:
        """Record an analytic (non-simulated) round cost."""
        if rounds < 0:
            raise ValueError("charged rounds must be non-negative")
        self.charged_rounds += rounds
        self.charged_notes.append(f"{note}: {rounds} rounds (charged)")

    def extend(self, other: "RunMetrics") -> None:
        """Fold another run's costs into this one."""
        self.phases.extend(other.phases)
        self.charged_rounds += other.charged_rounds
        self.charged_notes.extend(other.charged_notes)

    def summary(self) -> dict:
        """Compact dictionary used by benchmarks and reports."""
        return {
            "measured_rounds": self.measured_rounds,
            "charged_rounds": self.charged_rounds,
            "total_rounds": self.total_rounds,
            "messages": self.total_messages,
            "words": self.total_words,
            "max_message_words": self.max_message_words,
            "wall_time": round(self.wall_time, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.summary()
        return (
            f"RunMetrics(rounds={s['total_rounds']} "
            f"[{s['measured_rounds']} measured + {s['charged_rounds']} charged], "
            f"messages={s['messages']})"
        )
