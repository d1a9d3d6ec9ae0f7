"""Crash-storm recovery: prove recovery converges under interruption.

A *crash storm* keeps killing the machine **during recovery itself**:
power comes back, the recovery routine starts walking the log, and dies
again after a handful of line writes — repeatedly, with a different
(seeded) survival budget each attempt.  ATOM's recovery must be
idempotent and monotone for this to be safe (the paper's recovery walks
the same durable structures however often it is restarted; undoing an
entry twice writes the same old value twice), so the storm's durable
image must converge to exactly the state one uninterrupted recovery
would have produced.

:func:`storm_recover` drives :meth:`repro.runtime.system.System.recover`
with per-attempt ``write_budget`` values derived from a seed
(:func:`storm_budget`), until a pass completes.  Budgets grow
geometrically with the attempt number, so termination is guaranteed
long before ``max_attempts``; an unbudgeted backstop pass runs if not.
The final :class:`StormReport` carries the convergence verdict:
``fixpoint`` is True iff one more *full* recovery pass changes no
durable line — read from that pass's own writes
(``RecoveryReport.lines_changed``: each written line against the bytes
it held before the pass), not from a digest of the whole image.

Budget derivation is SHA-256 based (never ``hash()``/``random``): the
same seed produces the same storm in every interpreter and pool worker,
so storm outcomes key the content-addressed campaign cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def storm_budget(seed: int, attempt: int) -> int:
    """Durable-write budget of storm ``attempt`` (0-based) for ``seed``.

    A seeded base in ``[1, 4]`` shifted left by the attempt number:
    successive crashes land at varied, growing depths into the pass, so
    early attempts die inside the ADR clear / first undo writes while
    later ones reach deep into the walk — and the growth guarantees an
    attempt eventually outlasts the whole pass.
    """
    digest = hashlib.sha256(f"crash-storm:{seed}:{attempt}".encode()).digest()
    base = 1 + int.from_bytes(digest[:4], "big") % 4
    return base << attempt


@dataclass
class StormReport:
    """Outcome of one crash-storm recovery (see :func:`storm_recover`)."""

    seed: int
    #: Budgeted recovery passes driven (including the completing one).
    attempts: int = 0
    #: Passes that died with work left (``attempts - 1`` normally).
    interrupted_attempts: int = 0
    #: The per-attempt write budgets, in order.
    budgets: list[int] = field(default_factory=list)
    #: One more full recovery pass changed no durable line — recovery
    #: reached a fixpoint despite the interruptions.
    fixpoint: bool = False
    #: Merged :class:`~repro.atom.recovery.RecoveryReport` over every
    #: attempt (scrub/undo counters accumulate across passes).
    report: object = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "attempts": self.attempts,
            "interrupted_attempts": self.interrupted_attempts,
            "budgets": list(self.budgets),
            "fixpoint": self.fixpoint,
        }


def storm_recover(system, cut=None, *, seed: int = 0,
                  max_attempts: int = 64) -> StormReport:
    """Recover through a seeded storm of mid-recovery crashes.

    Call in place of ``system.recover(cut)``: with ``cut`` (a
    ``System.power_cut``) the storm recovers the cut and leaves the
    machine as it was, without it the machine's own image after
    ``system.crash()``.  The merged report of every attempt lands on
    ``StormReport.report`` (its ``interrupted`` flag reflects only the
    *final* attempt, so a converged storm reads as a completed
    recovery).  ``StormReport.fixpoint`` comes from one more full pass
    after the storm: its report's ``lines_changed`` must be 0.
    """
    storm = StormReport(seed=seed)
    merged = None
    report = None
    for attempt in range(max_attempts):
        budget = storm_budget(seed, attempt)
        storm.budgets.append(budget)
        storm.attempts += 1
        report = system.recover(cut, write_budget=budget)
        if merged is None:
            merged = report
        else:
            merged.merge(report)
        if not report.interrupted:
            break
        storm.interrupted_attempts += 1
    else:
        # Geometric budgets make this unreachable in practice; recover
        # unbudgeted rather than hand back a half-recovered machine.
        storm.attempts += 1
        storm.budgets.append(0)
        report = system.recover(cut)
        merged.merge(report)
    # Convergence probe: a further full pass must be a no-op.
    probe = system.recover(cut)
    storm.fixpoint = not probe.interrupted and probe.lines_changed == 0
    merged.interrupted = report.interrupted
    storm.report = merged
    return storm
