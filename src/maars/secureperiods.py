"""Security-aware pruning of a trusted task's period menu.

A candidate period p' = n*p + k' (p = the task's minimum period) is judged
against each untrusted task tau_j with execution time e_j:

  * strict:  k' == e_j        -> the victim never preempts tau_j, zero
                                 inferability added by the extra rate;
  * relaxed: e_j <= k' <= p-1 -> preemptions are delayed/reduced, lowering
                                 the inferability ratio versus running at p;
  * otherwise inadmissible.

Strict implies relaxed, and k' = p' mod p is never above p-1, so p' is
admissible (strict or relaxed) exactly when p' mod p >= e_j.
"""

from __future__ import annotations

import logging

from .taskmodel import TrustedTask, UntrustedTask

log = logging.getLogger(__name__)


def admissible(p_prime: int, p_base: int, attacker: UntrustedTask) -> bool:
    """Whether candidate period p' > p_base is admissible against one
    untrusted task."""
    if p_prime <= p_base:
        raise ValueError(f"candidate {p_prime} must exceed base period {p_base}")
    return p_prime % p_base >= attacker.wcet


def prune_security(
    task: TrustedTask,
    performance_periods: list[int],
    untrusted: list[UntrustedTask],
) -> list[int]:
    """Keep the base period plus the candidates that are admissible for
    every untrusted task (the designer does not know which one is
    compromised)."""
    base = task.min_period
    if base not in performance_periods:
        raise ValueError(f"task {task.id}: base period missing from candidates")
    kept = [base]
    for p in sorted(performance_periods):
        if p != base and all(admissible(p, base, u) for u in untrusted):
            kept.append(p)
    if len(kept) == 1 and len(performance_periods) > 1:
        log.warning(
            "task %d: security pruning degenerated the menu to {%d}", task.id, base
        )
    return kept
