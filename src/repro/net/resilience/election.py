"""Bully-style leader election among receivers sharing one sender.

When N receivers subscribe to one broker, each runs a
``ReconfigurationUnit`` and — absent coordination — each would feel
entitled to ship plan updates upstream.  Per-subscriber plans (PR 6)
keep the *splits* independent, but reconfiguration *ownership* still
needs a single writer when receivers coordinate a shared view of the
fleet.  This module provides that single writer: a classic bully
election (highest rank wins) run over ``ELECTION 0x22`` frames relayed
through the broker.

Protocol (three ops, all carried in :class:`repro.net.framing.Election`
frames):

* ``election`` — a member challenges: "anyone outrank me?"  Every
  higher-ranked member replies ``ok`` and starts its own election;
  lower-ranked members go quiet.
* ``ok`` — a higher-ranked member exists; the challenger steps down to
  follower and waits for a coordinator announcement.
* ``coordinator`` — the winner announces itself, then re-announces
  every ``coordinator_interval`` as a leader heartbeat.  A follower
  that hears nothing for ``leader_timeout`` declares the leader dead
  and starts a new election — this is the ownership handoff on leader
  death, observed via the same staleness idea as the health machine.

Rank is the tuple ``(priority, member_id)`` so priorities dominate and
the id string tie-breaks deterministically.  The member is sans-I/O:
``send`` is an injected callable (the receiver endpoint queues frames
onto its connections), ``tick()`` is driven by the endpoint's existing
async loop, and the clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs.quality import keep_tail

__all__ = [
    "ROLE_CANDIDATE",
    "ROLE_FOLLOWER",
    "ROLE_LEADER",
    "ElectionConfig",
    "ElectionMember",
    "OP_COORDINATOR",
    "OP_ELECTION",
    "OP_OK",
]

OP_ELECTION = "election"
OP_OK = "ok"
OP_COORDINATOR = "coordinator"

ROLE_FOLLOWER = "follower"
ROLE_CANDIDATE = "candidate"
ROLE_LEADER = "leader"


@dataclass(frozen=True)
class ElectionConfig:
    """Timing knobs for :class:`ElectionMember`."""

    #: how long a candidate waits for an ``ok`` before declaring victory
    challenge_timeout: float = 0.5
    #: leader heartbeat (coordinator re-announce) period
    coordinator_interval: float = 0.5
    #: follower staleness bound before it declares the leader dead
    leader_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.challenge_timeout <= 0:
            raise ValueError("challenge_timeout must be positive")
        if self.coordinator_interval <= 0:
            raise ValueError("coordinator_interval must be positive")
        if self.leader_timeout <= self.coordinator_interval:
            raise ValueError(
                "leader_timeout must exceed coordinator_interval"
            )


class ElectionMember:
    """One receiver's view of the bully election.

    ``send(op, term)`` is called for every outbound announcement; the
    injected callable is expected to broadcast to all other members
    (the receiver endpoint relays via the broker).  Drive
    :meth:`on_message` with inbound Election frames and :meth:`tick`
    periodically; read :attr:`role` / :attr:`is_leader` /
    :attr:`leader_id`.
    """

    def __init__(
        self,
        member_id: str,
        priority: int,
        *,
        send: Callable[[str, int], None],
        config: Optional[ElectionConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[
            Callable[["ElectionMember", dict], None]
        ] = None,
    ) -> None:
        self.member_id = member_id
        self.priority = priority
        self.send = send
        self.config = config if config is not None else ElectionConfig()
        self.clock = clock
        self.on_transition = on_transition
        self.role = ROLE_FOLLOWER
        self.term = 0
        self.leader_id: Optional[str] = None
        self.leader_rank: Optional[Tuple[int, str]] = None
        self.last_leader_heard: Optional[float] = None
        self.challenge_deadline: Optional[float] = None
        self.next_coordinator_at: Optional[float] = None
        #: the newest role changes; ``transitions_total`` counts them all
        self.transitions: List[dict] = []
        self.transitions_total = 0
        self.elections_started = 0
        self.elections_won = 0
        self.stepdowns = 0
        self.messages_seen = 0

    # -- queries -------------------------------------------------------

    @property
    def rank(self) -> Tuple[int, str]:
        return (self.priority, self.member_id)

    @property
    def is_leader(self) -> bool:
        return self.role == ROLE_LEADER

    # -- lifecycle -----------------------------------------------------

    def start_election(self, reason: str = "startup") -> None:
        """Challenge the field; victory unless someone outranks us."""
        now = self.clock()
        self.term += 1
        self.elections_started += 1
        self.challenge_deadline = now + self.config.challenge_timeout
        self._become(ROLE_CANDIDATE, f"election started ({reason})", now)
        self.send(OP_ELECTION, self.term)

    def on_message(
        self, op: str, term: int, member: str, priority: int
    ) -> None:
        """Feed one inbound Election frame (already demultiplexed)."""
        if member == self.member_id:
            return  # broker relays can echo our own broadcasts
        self.messages_seen += 1
        now = self.clock()
        rank = (priority, member)
        if term > self.term:
            self.term = term
        if op == OP_ELECTION:
            if rank < self.rank:
                # Outranked challenger: suppress it and assert ourselves.
                self.send(OP_OK, self.term)
                if self.role == ROLE_LEADER:
                    # Already the leader — just re-announce.
                    self.send(OP_COORDINATOR, self.term)
                elif self.role != ROLE_CANDIDATE:
                    self.start_election("outranked a challenger")
            else:
                # A higher rank is electing; stand down and await its
                # coordinator announcement (bounded by leader_timeout).
                if self.role != ROLE_FOLLOWER:
                    self._become(
                        ROLE_FOLLOWER,
                        f"higher-ranked challenger {member}",
                        now,
                    )
                self.challenge_deadline = None
                self.last_leader_heard = now
        elif op == OP_OK:
            if rank > self.rank and self.role == ROLE_CANDIDATE:
                self._become(
                    ROLE_FOLLOWER, f"suppressed by {member}", now
                )
                self.challenge_deadline = None
                self.last_leader_heard = now
        elif op == OP_COORDINATOR:
            if rank > self.rank:
                if self.role == ROLE_LEADER:
                    self.stepdowns += 1
                if self.role != ROLE_FOLLOWER or self.leader_id != member:
                    self._become(
                        ROLE_FOLLOWER, f"coordinator {member}", now
                    )
                self.leader_id = member
                self.leader_rank = rank
                self.challenge_deadline = None
                self.last_leader_heard = now
            else:
                # A lower-ranked member thinks it leads (stale victory
                # after a partition heal): usurp it.
                if self.role == ROLE_LEADER:
                    self.send(OP_COORDINATOR, self.term)
                elif self.role != ROLE_CANDIDATE:
                    self.start_election(
                        f"usurping lower-ranked coordinator {member}"
                    )

    def tick(self) -> None:
        """Advance timers; call periodically (endpoint async loop)."""
        now = self.clock()
        if self.role == ROLE_CANDIDATE:
            if (
                self.challenge_deadline is not None
                and now >= self.challenge_deadline
            ):
                # Nobody outranked us within the window: we win.
                self.elections_won += 1
                self.leader_id = self.member_id
                self.leader_rank = self.rank
                self.challenge_deadline = None
                self.next_coordinator_at = (
                    now + self.config.coordinator_interval
                )
                self._become(ROLE_LEADER, "challenge window elapsed", now)
                self.send(OP_COORDINATOR, self.term)
        elif self.role == ROLE_LEADER:
            if (
                self.next_coordinator_at is not None
                and now >= self.next_coordinator_at
            ):
                self.next_coordinator_at = (
                    now + self.config.coordinator_interval
                )
                self.send(OP_COORDINATOR, self.term)
        else:  # follower
            if (
                self.last_leader_heard is not None
                and now - self.last_leader_heard
                > self.config.leader_timeout
            ):
                self.leader_id = None
                self.leader_rank = None
                self.start_election("leader timed out")
            elif self.last_leader_heard is None:
                # Never heard from anyone — bootstrap an election.
                self.start_election("no known leader")

    # -- internals -----------------------------------------------------

    def _become(self, role: str, reason: str, now: float) -> None:
        record = {
            "at": now,
            "member": self.member_id,
            "from": self.role,
            "to": role,
            "term": self.term,
            "reason": reason,
        }
        self.role = role
        keep_tail(self.transitions, record)
        self.transitions_total += 1
        if self.on_transition is not None:
            self.on_transition(self, record)

    def to_dict(self) -> dict:
        return {
            "member": self.member_id,
            "priority": self.priority,
            "role": self.role,
            "term": self.term,
            "leader": self.leader_id,
            "elections_started": self.elections_started,
            "elections_won": self.elections_won,
            "stepdowns": self.stepdowns,
            "messages_seen": self.messages_seen,
            "transitions": list(self.transitions),
            "transitions_total": self.transitions_total,
        }
