"""Security-aware pruning of a trusted task's period menu.

A candidate period p' = n*p + k' (p = the task's minimum period) is judged
against each untrusted task tau_j with execution time e_j:

  * strict:  k' == e_j        -> the victim never preempts tau_j, zero
                                 inferability added by the extra rate;
  * relaxed: e_j <= k' <= p-1 -> preemptions are delayed/reduced, lowering
                                 the inferability ratio versus running at p;
  * otherwise inadmissible.

The strict verdict implies the relaxed one.
"""

from __future__ import annotations

import logging
from enum import Enum

from .taskmodel import TrustedTask, UntrustedTask

log = logging.getLogger(__name__)


class Verdict(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"
    INADMISSIBLE = "inadmissible"


def admissible(p_prime: int, p_base: int, attacker: UntrustedTask) -> Verdict:
    """Classify candidate period p' > p_base against one untrusted task."""
    if p_prime <= p_base:
        raise ValueError(f"candidate {p_prime} must exceed base period {p_base}")
    k = p_prime % p_base
    if k == attacker.wcet:
        return Verdict.STRICT
    if attacker.wcet <= k <= p_base - 1:
        return Verdict.RELAXED
    return Verdict.INADMISSIBLE


def prune_security(
    task: TrustedTask,
    performance_periods: list[int],
    untrusted: list[UntrustedTask],
) -> list[int]:
    """Keep the base period plus the candidates that are at least
    relaxed-admissible for every untrusted task (the designer does not know
    which one is compromised)."""
    base = task.min_period
    if base not in performance_periods:
        raise ValueError(f"task {task.id}: base period missing from candidates")
    kept = [base]
    for p in sorted(performance_periods):
        if p != base and all(
            admissible(p, base, u) is not Verdict.INADMISSIBLE for u in untrusted
        ):
            kept.append(p)
    if len(kept) == 1 and len(performance_periods) > 1:
        log.warning(
            "task %d: security pruning degenerated the menu to {%d}", task.id, base
        )
    return kept
