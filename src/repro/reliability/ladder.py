"""Degradation ladder: the guard's one stored health state.

:class:`DegradationLadder` is a two-state machine:

    HEALTHY (RAAL serves) ⇄ FALLBACK (the analytic chain serves)

* **Trip**: :meth:`DegradationLadder.trip_drift` drops to FALLBACK when
  the quality feedback loop's drift detector reports that the learned
  model no longer matches observed runtimes.
* **Probe**: FALLBACK climbs back to HEALTHY after ``hold_seconds`` on
  dwell time alone (no learned-model answers accrue while fallen back).
  If the feedback stream still reports drift, the next sample re-trips
  the ladder, so the guard cycles probe/re-trip until the model is fixed
  or retrained.

The ladder does not choose a precision: RAAL always serves at the
predictor's configured tier. An open RAAL circuit breaker is not stored
here either — the guard reads it from the breaker when reporting health.

Every transition updates the ``health.state`` gauge (0 = healthy,
1 = fallback), emits a ``ladder_transition`` event, bumps the exact
``transitions`` count and is appended to ``history``, which keeps only
the latest :data:`HISTORY_CAP` transitions: under persistent drift the
ladder cycles probe/re-trip for as long as the service runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import ReproError

__all__ = ["LadderConfig", "DegradationLadder", "LadderTransition",
           "LADDER_STATES", "HISTORY_CAP"]

#: State names, indexed by the ``health.state`` gauge value.
LADDER_STATES: tuple[str, ...] = ("healthy", "fallback")

_GAUGE_HELP = "Degradation ladder state (0=healthy, 1=fallback)"

#: Transitions kept in :attr:`DegradationLadder.history`.
HISTORY_CAP = 256


@dataclass(frozen=True)
class LadderConfig:
    """Dwell of one degradation ladder."""

    #: Time spent in FALLBACK before probing back to HEALTHY.
    hold_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.hold_seconds < 0:
            raise ReproError(
                f"hold_seconds must be non-negative, got {self.hold_seconds}")


@dataclass(frozen=True)
class LadderTransition:
    """One recorded state change (for tests, doctor, and benchmarks)."""

    at: float
    old: str
    new: str
    reason: str


class DegradationLadder:
    """Two-state health machine: drift trips it, dwell probes it back."""

    def __init__(self, config: LadderConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or LadderConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._fallback = False
        self._last_transition = clock()
        #: The latest :data:`HISTORY_CAP` transitions, oldest first.
        self.history: deque[LadderTransition] = deque(maxlen=HISTORY_CAP)
        #: Every transition since construction (``history`` forgets).
        self.transitions = 0
        obs.set_gauge("health.state", 0, help=_GAUGE_HELP)

    @property
    def state(self) -> str:
        """Current state name (``healthy`` or ``fallback``)."""
        return LADDER_STATES[self._fallback]

    def in_fallback(self) -> bool:
        """Whether the next request must skip the learned model.

        Reading it also runs the dwell probe, so a fallen-back ladder
        climbs back even though no learned-model answers are served.
        """
        with self._lock:
            if (self._fallback and self._clock() - self._last_transition
                    >= self.config.hold_seconds):
                self._transition(False, "fallback probe after hold")
            return self._fallback

    def trip_drift(self, reason: str) -> None:
        """Model-wide accuracy drift: drop to FALLBACK (analytic serve)."""
        with self._lock:
            if self._fallback:
                return
            obs.inc("ladder.drift_trips_total",
                    help="Drift-detector-driven drops to fallback")
            self._transition(True, f"drift trip: {reason}")

    def _transition(self, fallback: bool, reason: str) -> None:
        old = self.state
        self._fallback = fallback
        self._last_transition = self._clock()
        self.history.append(LadderTransition(
            at=self._last_transition, old=old, new=self.state, reason=reason))
        self.transitions += 1
        obs.set_gauge("health.state", int(fallback), help=_GAUGE_HELP)
        obs.inc("ladder.transitions_total",
                help="Degradation ladder state changes")
        obs.emit_event("ladder", "ladder_transition", old=old,
                       new=self.state, reason=reason)
