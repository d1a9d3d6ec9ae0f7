"""Leveled structured logging for the harness and campaign fabric.

A deliberately tiny logger — no handlers, no formatters, no global
registry beyond one module-level threshold — because the harness needs
exactly three things:

* **Levels** so ``--verbose`` / ``--quiet`` work uniformly across every
  CLI (``python -m repro.harness``, ``perf``, ``litmus``, ``faults``,
  ``trace``).
* **Structured fields**: every message carries ``key=value`` pairs so
  campaign warnings ("worker 3 exited mid-batch ... index=2
  workload=hash") stay grep-able and the chaos tests can assert on
  them.
* **stderr at call time**: output goes to whatever ``sys.stderr`` is
  *when the record is emitted*, so pytest's capture fixtures and
  redirected campaign runs both see it.

The stdlib ``logging`` module is avoided on purpose: its handler state
is process-global and survives fork into campaign workers in
surprising ways, and the harness only ever logs human-facing warnings
— there is nothing to gain from its machinery here.
"""

from __future__ import annotations

import os
import sys

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning",
                ERROR: "error"}
_NAME_LEVELS = {name: level for level, name in _LEVEL_NAMES.items()}

#: Module-level threshold.  Warnings stay visible by default — the
#: campaign fabric's supervision messages are part of its contract
#: (the chaos net asserts on them).
_level = _NAME_LEVELS.get(os.environ.get("REPRO_LOG_LEVEL", ""), WARNING)


def set_level(level: int | str) -> None:
    """Set the global threshold (int constant or name like ``"debug"``)."""
    global _level
    if isinstance(level, str):
        try:
            level = _NAME_LEVELS[level.lower()]
        except KeyError:
            raise ValueError(f"unknown log level {level!r}") from None
    _level = int(level)


class Logger:
    """Named emitter; create via :func:`get_logger`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _emit(self, level: int, msg: str, fields: dict) -> None:
        if level < _level:
            return
        parts = [f"{_LEVEL_NAMES.get(level, level)}:", msg]
        if fields:
            parts.append(" ".join(f"{k}={v}" for k, v in fields.items()))
        # sys.stderr looked up at call time: pytest capfd and campaign
        # log redirection both rely on this.
        print(" ".join(parts), file=sys.stderr, flush=True)

    def debug(self, msg: str, **fields) -> None:
        self._emit(DEBUG, msg, fields)

    def info(self, msg: str, **fields) -> None:
        self._emit(INFO, msg, fields)

    def warning(self, msg: str, **fields) -> None:
        self._emit(WARNING, msg, fields)

    def error(self, msg: str, **fields) -> None:
        self._emit(ERROR, msg, fields)


_loggers: dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    """Return the (cached) logger for ``name``."""
    try:
        return _loggers[name]
    except KeyError:
        return _loggers.setdefault(name, Logger(name))


# -- CLI integration ----------------------------------------------------------

def add_log_flags(parser) -> None:
    """Attach ``--verbose`` / ``--quiet`` to an argparse parser."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--verbose", "-v", action="store_true",
                       help="emit info/debug diagnostics on stderr")
    group.add_argument("--quiet", "-q", action="store_true",
                       help="suppress warnings (errors still shown)")


def apply_log_flags(args) -> None:
    """Apply parsed ``--verbose`` / ``--quiet`` to the global level."""
    if getattr(args, "verbose", False):
        set_level(DEBUG)
    elif getattr(args, "quiet", False):
        set_level(ERROR)
