"""The litmus DSL: programs over symbolic lines plus postconditions.

A :class:`LitmusSpec` is fully declarative and serialisable — it round-
trips through :meth:`~LitmusSpec.to_dict`/:meth:`~LitmusSpec.from_dict`
so specs can key the content-addressed campaign cache and cross process
boundaries to pool workers.

**Variables** are symbolic cache lines: ``vars`` maps each name to a
line index inside one contiguous region the litmus workload allocates
from the simulated NVM heap.  Placement is part of the spec on purpose —
conflict tests place variables a cache-way-stride apart to force real
dirty evictions (line index 256 = 16 KB apart lands in the same L1 set,
the same L2 bank *and* the same L2 set on the scaled-down machine).

**Instructions** are plain tuples (canonicalisable), built with the
module-level helpers::

    [begin(), store("A", 1), store("B", 1), commit()]

=====================  ======================================================
``begin()``            open an atomically durable region
``commit()``           close it (``Atomic_End``); the txn's durability point
``store(var, v)``      store the u64 ``v`` to ``var``'s line
``load(var)``          load ``var`` (timing only; values cannot branch)
``flush(var)``         explicit write-back of ``var``'s line
``compute(cycles)``    pure computation (spaces crash points apart)
``lock(id)``           acquire software lock ``id``
``unlock(id)``         release it
``fill(var, v, n)``    one store of ``n`` consecutive lines starting at
                       ``var``, each line's words = ``v`` (tearing tests)
``loadr(var, reg)``    load ``var`` into the program register ``reg``
``br_ne(reg, v, n)``   if ``reg != v``, skip the next ``n`` instructions
                       — the conditional op: a loaded value feeding a
                       branch, so programs express dependent control
                       flow (conditional stores, skipped transactions)
=====================  ======================================================

Atomic regions cannot nest: the hardware flattens nesting, but the
golden model tracks exactly one open transaction per core, so a nested
``begin`` would silently drop the outer region's writes from the write
set — :meth:`LitmusSpec.validate` rejects it outright.

**Postconditions** are boolean expressions over the variable names,
evaluated against the recovered durable values (``"A == 1 and B == 0"``).
They are compiled through a whitelisted :mod:`ast` walk — names,
integer/boolean constants, comparisons (including ``in``/``not in`` over
literal tuples), ``and``/``or``/``not`` and ``+ - * % & | ^`` arithmetic;
anything else (calls, attributes, subscripts) is rejected — so spec files
and CLI inputs can never execute arbitrary code.

* ``forbidden`` — states the design must make unreachable.
* ``allowed`` — optional *exhaustive* allow-list: when non-empty, a
  recovered state matching neither list is reported as ``unlisted`` and
  counts as a violation too.
* ``expect_violation`` — design values (e.g. ``["non-atomic"]``) where
  reaching a forbidden state is the *expected* outcome; these cells
  prove the checker detects violations rather than failing the run.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.common.errors import ReproError


class LitmusError(ReproError):
    """A litmus spec is malformed (bad program, var, or condition)."""


# -- instruction builders ------------------------------------------------------


def begin() -> tuple:
    return ("begin",)


def commit() -> tuple:
    return ("commit",)


def store(var: str, value: int) -> tuple:
    return ("store", var, value)


def load(var: str) -> tuple:
    return ("load", var)


def flush(var: str) -> tuple:
    return ("flush", var)


def compute(cycles: int) -> tuple:
    return ("compute", cycles)


def lock(lock_id: int) -> tuple:
    return ("lock", lock_id)


def unlock(lock_id: int) -> tuple:
    return ("unlock", lock_id)


def fill(var: str, value: int, lines: int) -> tuple:
    return ("fill", var, value, lines)


def loadr(var: str, reg: str) -> tuple:
    return ("loadr", var, reg)


def br_ne(reg: str, value: int, skip: int) -> tuple:
    return ("br_ne", reg, value, skip)


#: opcode -> operand arity (operand types checked in validate()).
_OPCODES = {
    "begin": 0, "commit": 0, "store": 2, "load": 1, "flush": 1,
    "compute": 1, "lock": 1, "unlock": 1, "fill": 3, "loadr": 2,
    "br_ne": 3,
}

#: Opcodes whose first operand names a variable.
_VAR_OPS = {"store", "load", "flush", "fill", "loadr"}


# -- condition compiler --------------------------------------------------------

_ALLOWED_NODES = (
    ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not,
    ast.USub, ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt,
    ast.GtE, ast.In, ast.NotIn, ast.Name, ast.Load, ast.Constant,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.BitAnd,
    ast.BitOr, ast.BitXor, ast.Tuple, ast.List,
)


#: Compiled conditions kept per process.  Every litmus point validates
#: its spec, so the catalog recompiles the same few expressions
#: thousands of times; the bound keeps a long-lived pool worker running
#: ``litmus gen`` batches (fresh expressions per program) from growing
#: the cache without limit.
CONDITION_CACHE_SIZE = 1024


def compile_condition(expr: str,
                      variables: Sequence[str]) -> Callable[[dict], bool]:
    """Compile a postcondition into ``fn(state) -> bool``.

    ``state`` maps variable names to recovered u64 values.  Raises
    :class:`LitmusError` for syntax errors, disallowed constructs, or
    names outside ``variables``.  Memoised per process on ``(expr,
    frozenset(variables))``; a rejected condition is never cached, so
    it raises on every call.
    """
    return _compile_condition(expr, frozenset(variables))


@functools.lru_cache(maxsize=CONDITION_CACHE_SIZE)
def _compile_condition(expr: str,
                       names: frozenset[str]) -> Callable[[dict], bool]:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise LitmusError(f"bad condition {expr!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise LitmusError(
                f"condition {expr!r}: {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Constant) and not isinstance(
                node.value, (int, bool)):
            raise LitmusError(
                f"condition {expr!r}: only integer constants allowed"
            )
        if isinstance(node, ast.Name) and node.id not in names:
            raise LitmusError(
                f"condition {expr!r}: unknown variable {node.id!r} "
                f"(have: {', '.join(sorted(names))})"
            )
    code = compile(tree, "<litmus-condition>", "eval")

    def evaluate(state: dict) -> bool:
        return bool(eval(code, {"__builtins__": {}}, state))  # noqa: S307

    return evaluate


# -- the spec ------------------------------------------------------------------


@dataclass
class LitmusSpec:
    """One declarative crash-consistency scenario."""

    name: str
    description: str
    #: Per-core instruction sequences (core i runs ``cores[i]``).
    cores: list[list[tuple]]
    #: Symbolic line placement: var name -> line index in the region.
    vars: dict[str, int]
    forbidden: list[str] = field(default_factory=list)
    #: Optional exhaustive allow-list (see module docstring).
    allowed: list[str] = field(default_factory=list)
    #: Designs (by value) where forbidden outcomes are expected reachable.
    expect_violation: list[str] = field(default_factory=list)
    #: Initial u64 values for variables (default 0).
    init: dict[str, int] = field(default_factory=dict)
    #: Per-spec log geometry overrides (e.g. tiny bucket counts to force
    #: log wraparound), applied to ``SystemConfig.log`` before building.
    log_overrides: dict = field(default_factory=dict)
    #: Simulated cores (defaults to the thread count, min 2).
    num_cores: int | None = None
    max_cycles: int = 10_000_000

    # -- derived ----------------------------------------------------------------

    @property
    def threads(self) -> int:
        return len(self.cores)

    @property
    def span_lines(self) -> int:
        """Lines the variable region must cover (incl. fill tails)."""
        span = max(self.vars.values(), default=0) + 1
        for program in self.cores:
            for instr in program:
                if instr[0] == "fill":
                    span = max(span, self.vars[instr[1]] + instr[3])
        return span

    def machine_cores(self) -> int:
        return self.num_cores if self.num_cores is not None else max(
            2, self.threads
        )

    def _var_writers(self) -> dict[str, set[int]]:
        """var name -> set of core ids that (may) write it."""
        line_to_var = {idx: name for name, idx in self.vars.items()}
        writers: dict[str, set[int]] = {name: set() for name in self.vars}
        for tid, program in enumerate(self.cores):
            for instr in program:
                if instr[0] == "store":
                    writers[instr[1]].add(tid)
                elif instr[0] == "fill":
                    base = self.vars[instr[1]]
                    for off in range(instr[3]):
                        var = line_to_var.get(base + off)
                        if var is not None:
                            writers[var].add(tid)
        return writers

    def txn_writes(self) -> list[list[list[tuple[str, int]]]]:
        """Statically extracted per-core, per-txn (var, value) writes.

        Each core program is interpreted abstractly: stores apply to a
        core-local value image (stores hit the volatile image at issue,
        so a core's own loads always see its latest values), ``loadr``
        captures the current value into a register, and ``br_ne``
        follows the resolved direction.  ``fill`` writes every covered
        variable.  Raises :class:`LitmusError` for a branch guarded by
        a variable other cores write — its direction depends on cross-
        core timing, which no static extraction can resolve (the litmus
        workload records write sets dynamically for exactly that case).
        """
        line_to_var = {idx: name for name, idx in self.vars.items()}
        writers = self._var_writers()
        out: list[list[list[tuple[str, int]]]] = []
        for tid, program in enumerate(self.cores):
            txns: list[list[tuple[str, int]]] = []
            current: list[tuple[str, int]] | None = None
            local = {name: self.init.get(name, 0) for name in self.vars}
            regs: dict[str, int] = {}
            reg_src: dict[str, str] = {}
            pc = 0
            while pc < len(program):
                instr = program[pc]
                pc += 1
                op = instr[0]
                if op == "begin":
                    current = []
                elif op == "commit":
                    txns.append(current or [])
                    current = None
                elif op == "store":
                    if current is not None:
                        current.append((instr[1], instr[2]))
                    local[instr[1]] = instr[2]
                elif op == "fill":
                    base = self.vars[instr[1]]
                    for off in range(instr[3]):
                        var = line_to_var.get(base + off)
                        if var is not None:
                            if current is not None:
                                current.append((var, instr[2]))
                            local[var] = instr[2]
                elif op == "loadr":
                    regs[instr[2]] = local[instr[1]]
                    reg_src[instr[2]] = instr[1]
                elif op == "br_ne":
                    src = reg_src.get(instr[1])
                    if src is not None and writers.get(src, set()) - {tid}:
                        raise LitmusError(
                            f"{self.name}: core {tid}: branch on register "
                            f"{instr[1]!r} loaded from {src!r}, which "
                            f"other cores write — direction depends on "
                            f"cross-core timing, so the static write set "
                            f"is undefined (the litmus workload records "
                            f"writes dynamically instead)"
                        )
                    if regs[instr[1]] != instr[2]:
                        pc += instr[3]
            out.append(txns)
        return out

    # -- validation -------------------------------------------------------------

    def validate(self) -> "LitmusSpec":
        if not self.name:
            raise LitmusError("spec needs a name")
        if not self.cores:
            raise LitmusError(f"{self.name}: needs at least one core program")
        if not self.vars:
            raise LitmusError(f"{self.name}: needs at least one variable")
        for var, idx in self.vars.items():
            if not isinstance(idx, int) or idx < 0:
                raise LitmusError(
                    f"{self.name}: var {var!r} line index must be >= 0"
                )
        placed = list(self.vars.values())
        if len(set(placed)) != len(placed):
            raise LitmusError(f"{self.name}: two variables share a line")
        for tid, program in enumerate(self.cores):
            depth = 0
            regs: set[str] = set()
            for index, instr in enumerate(program):
                op = instr[0] if instr else None
                if op not in _OPCODES:
                    raise LitmusError(
                        f"{self.name}: core {tid}: unknown op {instr!r}"
                    )
                if len(instr) - 1 != _OPCODES[op]:
                    raise LitmusError(
                        f"{self.name}: core {tid}: {op} takes "
                        f"{_OPCODES[op]} operands, got {instr!r}"
                    )
                if op in _VAR_OPS and instr[1] not in self.vars:
                    raise LitmusError(
                        f"{self.name}: core {tid}: unknown var {instr[1]!r}"
                    )
                if op == "begin":
                    depth += 1
                    if depth > 1:
                        raise LitmusError(
                            f"{self.name}: core {tid}: nested atomic "
                            f"regions are not supported — the hardware "
                            f"flattens them, but the golden model tracks "
                            f"one open transaction per core, so the "
                            f"outer region's writes would be dropped; "
                            f"commit the open region before op {index}"
                        )
                elif op == "commit":
                    depth -= 1
                    if depth < 0:
                        raise LitmusError(
                            f"{self.name}: core {tid}: commit without begin"
                        )
                elif op == "loadr":
                    if not isinstance(instr[2], str) or not instr[2]:
                        raise LitmusError(
                            f"{self.name}: core {tid}: loadr register "
                            f"must be a non-empty string, got {instr!r}"
                        )
                    regs.add(instr[2])
                elif op == "br_ne":
                    if instr[1] not in regs:
                        raise LitmusError(
                            f"{self.name}: core {tid}: br_ne on register "
                            f"{instr[1]!r} before any loadr defines it"
                        )
                    skip = instr[3]
                    if not isinstance(skip, int) or skip < 1:
                        raise LitmusError(
                            f"{self.name}: core {tid}: br_ne skip count "
                            f"must be >= 1, got {instr!r}"
                        )
                    if index + 1 + skip > len(program):
                        raise LitmusError(
                            f"{self.name}: core {tid}: br_ne at op "
                            f"{index} skips past the end of the program"
                        )
                    # The skipped range must be region-balanced: taking
                    # the branch must not jump out of (or half-way into)
                    # an atomic region.
                    delta = 0
                    for skipped in program[index + 1:index + 1 + skip]:
                        if skipped and skipped[0] == "begin":
                            delta += 1
                        elif skipped and skipped[0] == "commit":
                            delta -= 1
                        if delta < 0:
                            break
                    if delta != 0:
                        raise LitmusError(
                            f"{self.name}: core {tid}: br_ne at op "
                            f"{index} skips an unbalanced begin/commit "
                            f"range (it would jump across an atomic "
                            f"region boundary)"
                        )
            if depth != 0:
                raise LitmusError(
                    f"{self.name}: core {tid}: unclosed atomic region"
                )
        for var in self.init:
            if var not in self.vars:
                raise LitmusError(f"{self.name}: init of unknown var {var!r}")
        for expr in list(self.forbidden) + list(self.allowed):
            compile_condition(expr, list(self.vars))
        if not self.forbidden and not self.allowed:
            raise LitmusError(f"{self.name}: needs a postcondition")
        return self

    # -- (de)serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-encodable form (cache key + worker transport)."""
        return {
            "name": self.name,
            "description": self.description,
            "cores": [[list(i) for i in prog] for prog in self.cores],
            "vars": dict(self.vars),
            "forbidden": list(self.forbidden),
            "allowed": list(self.allowed),
            "expect_violation": list(self.expect_violation),
            "init": dict(self.init),
            "log_overrides": dict(self.log_overrides),
            "num_cores": self.num_cores,
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LitmusSpec":
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            cores=[[tuple(i) for i in prog] for prog in payload["cores"]],
            vars=dict(payload["vars"]),
            forbidden=list(payload.get("forbidden", [])),
            allowed=list(payload.get("allowed", [])),
            expect_violation=list(payload.get("expect_violation", [])),
            init=dict(payload.get("init", {})),
            log_overrides=dict(payload.get("log_overrides", {})),
            num_cores=payload.get("num_cores"),
            max_cycles=payload.get("max_cycles", 10_000_000),
        ).validate()
