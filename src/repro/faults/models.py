"""Declarative fault models and the injector that applies them.

A :class:`FaultModel` describes *one way power can fail badly*.  Models
are plain dataclasses that round-trip through ``to_dict``/``from_dict``
— exactly like litmus specs — so they key the content-addressed
campaign cache and cross process boundaries to pool workers.

=====================  ======================================================
``controller-loss``    one memory controller loses power (its queued
                       writes vanish) while every other controller
                       drains its write queue cleanly before the
                       machine stops.  Consistency must still hold: the
                       surviving drains only *add* persisted state
                       relative to a whole-machine cut.
``torn-log-write``     the log-region line on the channel wires at the
                       failure persists only a prefix of its bytes over
                       the old cell contents.  Recovery's header
                       checksum must reject a torn header; consistency
                       must still hold either way.
``adr-truncation``     the ADR power budget cuts the critical-structure
                       flush loop after K cache lines.  Undo for that
                       controller is impossible; recovery must *detect*
                       the truncated block (checksum) instead of
                       parsing garbage.
``log-corruption``     media corruption: bytes of the newest durable
                       record header flip after the crash.  Recovery
                       must detect the corrupt header (checksum), never
                       undo from it, and stay idempotent.
``torn-data-write``    the in-flight *data*-line write persists only a
                       prefix.  Data lines carry no format checksum, so
                       detection needs the per-line checksum plane
                       (``MemoryConfig.line_checksums``); without it
                       the mixed-epoch line is silent corruption.
``bit-rot``            seeded media decay: after the crash, touched
                       durable lines flip one bit each at a
                       configurable rate (restrictable to the data,
                       log, or ADR region).  Same detection story as
                       torn data: sound only with the checksum plane.
``correlated-loss``    k-of-n correlated power loss: several memory
                       controllers lose their queued writes in one
                       event while the survivors drain cleanly —
                       the multi-controller generalization of
                       ``controller-loss``, consistency-preserving for
                       the same reason.
``a+b`` (composite)    :class:`MultiFault` — several models strike in
                       the *same* power failure (e.g.
                       ``controller-loss+torn-log-write``: one
                       controller loses its queue while another's
                       in-flight log line tears).  Consistency is
                       required iff every member preserves it;
                       detection is expected iff any member expects it.
=====================  ======================================================

Two axes classify every model and drive the sweep's verdicts:

* ``preserves_consistency`` — the durable structure must still pass the
  golden-model differential check after recovery.  True for
  ``controller-loss`` and ``torn-log-write`` (both only remove or
  invalidate state a whole-machine cut could also have removed); false
  for ``adr-truncation`` and ``log-corruption``, which destroy
  information recovery *needs* — there the contract is detection.
* ``expects_detection`` — whenever the fault actually applied, the
  recovery pass must report at least one validation hit
  (``checksum_rejected``, ``adr_invalid``, or ``line_checksum_rejected``
  in the :class:`~repro.faults.analytics.RecoveryCost`).

A third axis, ``detection_needs_checksums``, marks the media models
(``torn-data-write``, ``bit-rot``) whose damage lands outside any
checksummed *format* structure: the detection contract only binds when
the per-line checksum plane is enabled — without it the sweep counts
the unflagged damage in the silent-corruption bucket instead.

Two classes bridge into the machine.  :class:`FaultTaps` record the
log and data writes at the memory controllers (issue/persist, so they
always know the oldest in-flight line — the one "on the wires") while
the machine runs.  A :class:`FaultInjector` reads them at one power
failure and implements the hook points that
:meth:`repro.runtime.system.System.power_cut` and
:meth:`~repro.runtime.system.System.crash` call, in the same order, on
the image each one leaves for recovery.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

from repro.atom import adr
from repro.atom.record import RecordHeader
from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE_BYTES
from repro.config import Design


@dataclass
class FaultModel:
    """Base class: one declarative partial-failure scenario."""

    kind = "abstract"
    #: Post-recovery golden-model consistency must still hold.
    preserves_consistency = True
    #: Whenever the fault applies, recovery must report a detection.
    expects_detection = False
    #: The detection contract binds only when the per-data-line checksum
    #: plane is enabled (media models whose damage has no format CRC).
    detection_needs_checksums = False

    def applicable(self, design: Design) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


def _uses_undo_log(design: Design) -> bool:
    """Designs whose crash state includes an undo log + ADR block."""
    from repro.atom.designs import design_uses_logm

    return design_uses_logm(design)


@dataclass
class ControllerLoss(FaultModel):
    """Single-controller power loss; the others drain cleanly."""

    kind = "controller-loss"
    preserves_consistency = True
    expects_detection = False

    #: The controller that loses its queued writes.
    controller: int = 0

    def applicable(self, design: Design) -> bool:
        return True  # every design has per-controller write queues


def torn_prefix_from_seed(seed: int) -> int:
    """Deterministic tear point in ``[1, 63]`` derived from a seed.

    SHA-256 based (not ``hash()``) so the same seed maps to the same
    prefix in every interpreter and worker process — the derived length
    is part of the model's ``to_dict`` and therefore of the cache key.
    """
    digest = hashlib.sha256(f"torn-prefix:{seed}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (CACHE_LINE_BYTES - 1)


@dataclass
class TornLogWrite(FaultModel):
    """The in-flight log line persists only a prefix of its bytes."""

    kind = "torn-log-write"
    preserves_consistency = True
    expects_detection = False  # detection requires the tear to hit a header

    #: Controller whose in-flight log write tears; ``None`` picks the
    #: first controller (by id) with a log write on the wires.
    controller: int | None = None
    #: Bytes of the line that reach the cells before power dies.
    prefix_bytes: int = 60
    #: When set, ``prefix_bytes`` is *derived* from this seed
    #: (:func:`torn_prefix_from_seed`): randomized tear points that stay
    #: deterministic per seed and key the campaign cache.
    prefix_seed: int | None = None

    def __post_init__(self) -> None:
        if self.prefix_seed is not None:
            self.prefix_bytes = torn_prefix_from_seed(self.prefix_seed)
        if not 1 <= self.prefix_bytes < CACHE_LINE_BYTES:
            # 0 bytes is a dropped write, 64 a completed one — neither
            # is a *tear*, and both would mis-mark the point 'applied'.
            raise ConfigError(
                f"torn-log-write prefix_bytes must be in "
                f"[1, {CACHE_LINE_BYTES - 1}], got {self.prefix_bytes}"
            )

    def applicable(self, design: Design) -> bool:
        # Only the undo designs parse log bytes back; REDO's commit
        # bookkeeping is persist-event keyed (see repro.atom.redo).
        return _uses_undo_log(design)


@dataclass
class AdrTruncation(FaultModel):
    """The ADR flush loop dies after ``lines`` cache lines."""

    kind = "adr-truncation"
    preserves_consistency = False
    expects_detection = True

    controller: int = 0
    lines: int = 1

    def __post_init__(self) -> None:
        if self.lines < 1:
            # A zero-line flush leaves the block's previous contents —
            # after a first crash that is all zeros, which parses as
            # "never flushed" rather than "truncated": undetectable by
            # design, so the model refuses to encode it.
            raise ConfigError("adr-truncation needs lines >= 1 (a 0-line "
                              "budget is indistinguishable from no flush)")

    def applicable(self, design: Design) -> bool:
        return _uses_undo_log(design)


@dataclass
class LogCorruption(FaultModel):
    """Bytes of the newest durable record header flip after the crash."""

    kind = "log-corruption"
    preserves_consistency = False
    expects_detection = True

    #: Controller whose log region corrupts; ``None`` picks the first
    #: one holding a durable valid header of an in-flight update.
    controller: int | None = None
    #: Leading header bytes XOR-flipped (address words live there).
    flip_bytes: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.flip_bytes <= CACHE_LINE_BYTES:
            raise ConfigError(
                f"log-corruption flip_bytes must be in "
                f"[1, {CACHE_LINE_BYTES}], got {self.flip_bytes}"
            )

    def applicable(self, design: Design) -> bool:
        return _uses_undo_log(design)


@dataclass
class TornDataWrite(FaultModel):
    """The in-flight data-line write persists only a prefix of its bytes.

    The data-path analogue of ``torn-log-write``: the oldest submitted
    (post-gate) data write of a failed controller lands as a
    mixed-epoch line.  Unlike log lines, data lines carry no format
    checksum, so the detection contract binds only with the per-line
    checksum plane (``detection_needs_checksums``); without it the tear
    is silent corruption the sweep must account, never report ``ok``.
    """

    kind = "torn-data-write"
    preserves_consistency = False  # a torn committed line is garbage
    expects_detection = True
    detection_needs_checksums = True

    #: Controller whose in-flight data write tears; ``None`` picks the
    #: first controller (by id) with a data write on the wires.
    controller: int | None = None
    #: Bytes of the line that reach the cells before power dies.
    prefix_bytes: int = 60
    #: When set, ``prefix_bytes`` is derived from this seed
    #: (:func:`torn_prefix_from_seed`), exactly like torn-log-write.
    prefix_seed: int | None = None

    def __post_init__(self) -> None:
        if self.prefix_seed is not None:
            self.prefix_bytes = torn_prefix_from_seed(self.prefix_seed)
        if not 1 <= self.prefix_bytes < CACHE_LINE_BYTES:
            raise ConfigError(
                f"torn-data-write prefix_bytes must be in "
                f"[1, {CACHE_LINE_BYTES - 1}], got {self.prefix_bytes}"
            )

    def applicable(self, design: Design) -> bool:
        return True  # every design persists data lines


#: Valid ``regions`` values for :class:`BitRot`.
BIT_ROT_REGIONS = ("all", "data", "log", "adr")

#: (seed, line) draws :func:`_rot_draw` keeps per process: a run's
#: bit-rot points draw for the same lines under one seed.
_ROT_DRAWS_MAX = 1 << 16


@functools.lru_cache(maxsize=_ROT_DRAWS_MAX)
def _rot_draw(seed: int, base: int) -> tuple[int, int, int]:
    """``(decay value, byte offset, bit mask)`` of a line, from SHA-256.

    The line rots when the decay value is below the rate's threshold,
    by flipping the masked bit of the byte at the offset.
    """
    digest = hashlib.sha256(f"bit-rot:{seed}:{base}".encode()).digest()
    return (int.from_bytes(digest[:4], "big"),
            digest[4] % CACHE_LINE_BYTES, 1 << (digest[5] % 8))


@dataclass
class BitRot(FaultModel):
    """Seeded media decay: post-crash bit flips across durable lines.

    Every *touched* durable line in the selected region independently
    rots with probability ``rate``; a rotting line has one seed-derived
    bit flipped.  Decisions are SHA-256-derived from ``(seed, addr)`` —
    deterministic per seed across interpreters and pool workers, so the
    model keys the campaign cache.  Detection is sound only with the
    per-line checksum plane; format CRCs (record headers, ADR blocks)
    catch the subset of flips that land on them.
    """

    kind = "bit-rot"
    preserves_consistency = False
    expects_detection = True
    detection_needs_checksums = True

    seed: int = 0
    #: Per-line decay probability in (0, 1].
    rate: float = 0.02
    #: Restrict decay to one region: all | data | log | adr.
    regions: str = "all"

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(
                f"bit-rot rate must be in (0, 1], got {self.rate}"
            )
        if self.regions not in BIT_ROT_REGIONS:
            raise ConfigError(
                f"bit-rot regions must be one of "
                f"{', '.join(BIT_ROT_REGIONS)}, got {self.regions!r}"
            )

    def applicable(self, design: Design) -> bool:
        if self.regions in ("log", "adr"):
            return _uses_undo_log(design)
        return True


@dataclass
class CorrelatedControllerLoss(FaultModel):
    """k-of-n correlated power loss: several controllers die together.

    One failure event (a shared power rail, a PSU domain) takes out
    ``controllers`` at once — their queued writes vanish — while every
    survivor drains cleanly.  Consistency must still hold by the same
    argument as single ``controller-loss``: the lost queues only remove
    state a whole-machine cut could also have removed, and Invariant 2
    holds per controller.
    """

    kind = "correlated-loss"
    preserves_consistency = True
    expects_detection = False

    #: Controllers that lose their queues in the one event (>= 2; a
    #: single id is plain ``controller-loss``).
    controllers: list = field(default_factory=lambda: [0, 1])

    def __post_init__(self) -> None:
        try:
            ids = sorted({int(c) for c in self.controllers})
        except (TypeError, ValueError):
            raise ConfigError(
                f"correlated-loss controllers must be a list of ints, "
                f"got {self.controllers!r}"
            ) from None
        if len(ids) < 2:
            raise ConfigError(
                "correlated-loss needs at least two distinct controllers "
                "(use controller-loss for a single one)"
            )
        if ids[0] < 0:
            raise ConfigError("correlated-loss controller ids must be >= 0")
        self.controllers = ids

    def applicable(self, design: Design) -> bool:
        return True  # every design has per-controller write queues


@dataclass
class MultiFault(FaultModel):
    """Composite: several member models strike in one power failure.

    Members may be model instances or ``to_dict`` payloads (they are
    resolved on construction), must be at least two, of distinct kinds,
    and may not themselves be composites.  The instance ``kind`` is the
    ``+``-join of the member kinds, so ``fault_from_dict({"kind":
    "controller-loss+torn-log-write"})`` builds the default-parameter
    composite and the round-trip through ``to_dict`` is loss-free.
    """

    models: list

    def __post_init__(self) -> None:
        if not isinstance(self.models, (list, tuple)):
            raise ConfigError("multi-fault needs a list of member models")
        resolved = []
        for member in self.models:
            if isinstance(member, dict):
                member = fault_from_dict(member)
            if isinstance(member, MultiFault):
                raise ConfigError("multi-fault members cannot themselves "
                                  "be composites — flatten the kinds into "
                                  "one a+b+c instead")
            if not isinstance(member, FaultModel):
                raise ConfigError(f"multi-fault member {member!r} is not "
                                  f"a fault model")
            resolved.append(member)
        if len(resolved) < 2:
            raise ConfigError("a composite fault needs at least two "
                              "member models (use the member directly "
                              "otherwise)")
        kinds = [m.kind for m in resolved]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"duplicate member kinds in composite "
                              f"fault {'+'.join(kinds)!r}")
        self.models = resolved
        self.kind = "+".join(kinds)

    @property
    def preserves_consistency(self) -> bool:  # type: ignore[override]
        return all(m.preserves_consistency for m in self.models)

    @property
    def expects_detection(self) -> bool:  # type: ignore[override]
        return any(m.expects_detection for m in self.models)

    @property
    def detection_needs_checksums(self) -> bool:  # type: ignore[override]
        # The composite's detection contract is checksum-gated only when
        # *every* detection-expecting member needs the plane: one format
        # CRC hit (e.g. adr-truncation) satisfies the contract alone.
        needing = [m for m in self.models if m.expects_detection]
        return bool(needing) and all(
            m.detection_needs_checksums for m in needing
        )

    def applicable(self, design: Design) -> bool:
        return all(m.applicable(design) for m in self.models)

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "models": [m.to_dict() for m in self.models]}


#: kind -> model class (the declarative registry, mirror of the litmus
#: catalog's by-name map).  Composites are spelled ``a+b`` and resolved
#: by :func:`fault_from_dict`, not listed here.
FAULT_MODELS: dict[str, type[FaultModel]] = {
    cls.kind: cls
    for cls in (ControllerLoss, TornLogWrite, AdrTruncation, LogCorruption,
                TornDataWrite, BitRot, CorrelatedControllerLoss)
}


def fault_from_dict(payload: dict) -> FaultModel:
    """Inverse of :meth:`FaultModel.to_dict` (cache/worker transport)."""
    payload = dict(payload)
    kind = payload.pop("kind", None)
    if "models" in payload:
        members = payload.pop("models")
        if payload:
            raise ConfigError(f"bad composite fault parameters: "
                              f"unexpected {', '.join(sorted(payload))}")
        return MultiFault(models=members)
    if kind is not None and "+" in kind:
        if payload:
            raise ConfigError(
                f"composite fault {kind!r} takes no flat parameters — "
                f"pass per-member dicts under 'models' instead"
            )
        return MultiFault(
            models=[{"kind": k} for k in kind.split("+") if k]
        )
    cls = FAULT_MODELS.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown fault model {kind!r} "
            f"(have: {', '.join(sorted(FAULT_MODELS))}; compose with "
            f"'+', e.g. controller-loss+torn-log-write)"
        )
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} parameters: {exc}") from None


def default_fault_models() -> list[FaultModel]:
    """One instance of every registered model, default parameters."""
    return [cls() for cls in FAULT_MODELS.values()]


def partition_applicable(
    models: list[FaultModel], designs: list[Design],
) -> tuple[list[FaultModel], list[tuple[FaultModel, str]]]:
    """Split ``models`` into (usable, dropped-with-reason) for ``designs``.

    A model is usable when it applies to at least one selected design.
    Each dropped model pairs with the reason string the front-ends show;
    this is the single source of the inapplicability policy the faults
    and litmus CLIs share (see :func:`resolve_inapplicable`).
    """
    usable: list[FaultModel] = []
    dropped: list[tuple[FaultModel, str]] = []
    names = ", ".join(getattr(d, "value", str(d)) for d in designs)
    for model in models:
        if any(model.applicable(d) for d in designs):
            usable.append(model)
        else:
            dropped.append((model, f"fault model '{model.kind}' applies to "
                                   f"none of the selected designs ({names})"))
    return usable, dropped


def resolve_inapplicable(
    models: list[FaultModel], designs: list[Design], *, strict: bool,
) -> tuple[list[FaultModel], list[str]]:
    """Apply the shared strict/drop policy to an inapplicable selection.

    ``strict=True`` raises :class:`ConfigError` on the first model that
    applies to no selected design; otherwise the model is dropped and
    its reason returned for the caller to print as a warning.
    """
    usable, dropped = partition_applicable(models, designs)
    if dropped and strict:
        raise ConfigError(
            f"{dropped[0][1]} (pass --drop-inapplicable to skip such "
            f"models instead)"
        )
    return usable, [reason for _, reason in dropped]


class FaultTaps:
    """Passive recorders of the writes a power failure can catch in flight.

    Installed on a machine before it runs (:meth:`install`), the taps
    keep, per controller, an exact FIFO of the log-region lines
    (:attr:`log`) and of the post-gate data lines (:attr:`data_lines`)
    written but not yet persisted, and make the channels track the
    writes in the device, which a clean shutdown drain must complete
    first.  Together they cover every fault model.  The taps schedule
    no event and change no timing, so a tapped run is the untapped run.

    A :class:`FaultInjector` reads them at the cut, so a run built with
    one tap set serves the points of every model.
    """

    def __init__(self):
        #: mc_id -> OrderedDict[addr, payload] of in-flight log writes.
        self.log: dict[int, OrderedDict[int, bytes]] = {}
        #: mc_id -> OrderedDict[addr, payload] of in-flight data writes.
        self.data_lines: dict[int, OrderedDict[int, bytes]] = {}

    def install(self, system) -> "FaultTaps":
        system.fault_taps = self
        for mc in system.controllers:
            mc.fault_taps = self
            for channel in mc.channels:
                channel.track_inflight_writes = True
        return self

    # -- controller taps (hot path only while installed) ----------------------

    def note_log_write(self, mc_id: int, addr: int, payload: bytes) -> None:
        self.log.setdefault(mc_id, OrderedDict())[addr] = payload

    def note_log_persisted(self, mc_id: int, addr: int) -> None:
        queue = self.log.get(mc_id)
        if queue is not None:
            queue.pop(addr, None)

    def note_data_write(self, mc_id: int, addr: int, payload: bytes) -> None:
        self.data_lines.setdefault(mc_id, OrderedDict())[addr] = payload

    def note_data_persisted(self, mc_id: int, addr: int) -> None:
        queue = self.data_lines.get(mc_id)
        if queue is not None:
            queue.pop(addr, None)


class FaultInjector:
    """Applies one :class:`FaultModel` at one power failure.

    The injector binds to a machine (:meth:`bind`), which checks the
    model against it and picks up the machine's :class:`FaultTaps`:
    the FIFOs of the lines that would be lost — or torn — when power
    dies.  Its hook points then act on one image in the crash order
    ``System.crash()`` follows: the loss models' survivors drain, the
    lost controllers drop their queues, a line on the wires tears, the
    ADR flush takes its line budget, and media damage lands after the
    cut.  ``System.power_cut(injector)`` drives them on the cut's copy
    of the durable plane and leaves the machine running; with the
    injector installed (:meth:`install`), ``System.crash()`` drives
    them on the machine's own image.  One injector serves one cut.

    A :class:`MultiFault` model is flattened into its members here: each
    hook point consults the (at most one) member of the relevant kind,
    so composites inject every member's damage in the same crash and
    :attr:`detail` accumulates one clause per member that fired.
    """

    def __init__(self, model: FaultModel):
        self.model = model
        members = model.models if isinstance(model, MultiFault) \
            else [model]
        self._loss = next(
            (m for m in members if isinstance(m, ControllerLoss)), None)
        self._corr_loss = next(
            (m for m in members
             if isinstance(m, CorrelatedControllerLoss)), None)
        self._torn = next(
            (m for m in members if isinstance(m, TornLogWrite)), None)
        self._torn_data = next(
            (m for m in members if isinstance(m, TornDataWrite)), None)
        self._adr = next(
            (m for m in members if isinstance(m, AdrTruncation)), None)
        self._corrupt = next(
            (m for m in members if isinstance(m, LogCorruption)), None)
        self._bit_rot = next(
            (m for m in members if isinstance(m, BitRot)), None)
        # Union of every loss member's controllers: the set that loses
        # its queues in the one power event.
        lost: set[int] = set()
        if self._loss is not None:
            lost.add(self._loss.controller)
        if self._corr_loss is not None:
            lost.update(self._corr_loss.controllers)
        self._lost_ids = frozenset(lost)
        #: The fault actually changed something (a vacuity marker: a
        #: torn-write point with no log write in flight applies nothing).
        #: For composites: *any* member changed something.
        self.applied = False
        #: Human-readable description of what was injected
        #: ("; "-joined, one clause per member that fired).
        self.detail = ""
        #: Torn-write bookkeeping: did the tear land on a header line?
        self.tore_header = False
        #: Writes completed by surviving controllers' clean drains.
        self.drained_writes = 0
        #: The loss member(s) already wrote their detail clause.
        self._loss_marked = False
        #: The bound machine's address layout and taps (see :meth:`bind`).
        self.layout = None
        self.taps: FaultTaps | None = None
        #: Controllers that took the clean quiet-drain path: every line
        #: they had queued is on the cells (and ``System.crash``'s drain
        #: leaves their tap FIFOs stale), so the tears skip them.
        self._drained_ids: set[int] = set()
        #: Media-damage ground truth: line base -> the post-damage line
        #: bytes this injector planted.  The sweep diffs it against the
        #: recovered image and the flagged ``corrupt_lines`` to count
        #: *silent* corruption (damage neither healed nor detected).
        self.damage: dict[int, bytes] = {}

    def _mark(self, detail: str) -> None:
        self.applied = True
        self.detail = f"{self.detail}; {detail}" if self.detail else detail

    # -- wiring ---------------------------------------------------------------

    def _named_controllers(self) -> list[tuple[FaultModel, int]]:
        """Every ``(member, controller id)`` the model names explicitly."""
        named = []
        for member in (self._loss, self._torn, self._torn_data, self._adr,
                       self._corrupt):
            if member is not None and member.controller is not None:
                named.append((member, member.controller))
        if self._corr_loss is not None:
            named.extend((self._corr_loss, mc_id)
                         for mc_id in self._corr_loss.controllers)
        return named

    def bind(self, system) -> "FaultInjector":
        """Check the model against ``system`` and read its taps.

        Raises :class:`ConfigError` when the model names a controller
        the machine lacks, or when the machine was built without
        :class:`FaultTaps`.
        """
        count = len(system.controllers)
        for member, mc_id in self._named_controllers():
            if not 0 <= mc_id < count:
                raise ConfigError(
                    f"fault model {member.kind!r} names controller "
                    f"{mc_id}, but the machine has {count} memory "
                    f"controller(s) (ids 0-{count - 1})"
                )
        if system.fault_taps is None:
            raise ConfigError(
                f"fault model {self.model.kind!r} needs a machine built "
                f"with fault taps (install FaultTaps before it runs)"
            )
        self.layout = system.layout
        self.taps = system.fault_taps
        return self

    def install(self, system) -> "FaultInjector":
        """Make ``system.crash()`` apply this injector.

        Installs :class:`FaultTaps` unless the machine already has
        them; call before the workload runs.
        """
        if system.fault_taps is None:
            FaultTaps().install(system)
        self.bind(system)
        system.fault_injector = self
        return self

    # -- crash-sequence hook points -------------------------------------------

    def controller_survives(self, mc_id: int) -> bool:
        """False for every controller that loses its queued writes."""
        if self._lost_ids:
            return mc_id not in self._lost_ids
        return True

    def wants_drain(self) -> bool:
        """Surviving controllers drain cleanly (loss models only)."""
        return bool(self._lost_ids)

    def note_drained(self, mc_id: int, writes: int) -> None:
        self._drained_ids.add(mc_id)
        self.drained_writes += writes
        if writes and self._lost_ids and not self._loss_marked:
            self._loss_marked = True
            lost = "+".join(str(c) for c in sorted(self._lost_ids))
            queues = "its queue" if len(self._lost_ids) == 1 \
                else "their queues"
            self._mark(
                f"controller {lost} lost {queues}; "
                f"survivors drained {writes}+ writes"
            )

    def note_controller_dropped(self, mc_id: int, dropped: int) -> None:
        if self._lost_ids and not self._loss_marked:
            # Even with empty survivor queues the loss itself applied if
            # a failed controller actually dropped work.
            if dropped:
                self._loss_marked = True
                self._mark(
                    f"controller {mc_id} dropped {dropped} queued requests"
                )

    def adr_budget_lines(self, mc_id: int) -> int | None:
        """ADR flush line budget for ``mc_id`` (None = full flush)."""
        if self._adr is not None and mc_id == self._adr.controller:
            return self._adr.lines
        return None

    def note_adr_truncated(self, mc_id: int) -> None:
        self._mark(
            f"ADR flush of controller {mc_id} truncated after "
            f"{self._adr.lines} line(s)"
        )

    def at_power_failure(self, image) -> None:
        """Apply the damage that happens *at* the cut to ``image``.

        Called after the channel queues are dropped (or drained) and
        before the ADR flush: the torn-write models persist a prefix of
        the line that was on the wires (the oldest in-flight write of
        the region — everything behind it in the FIFO is dropped
        wholesale, everything before it already persisted).
        Controllers that took the quiet-drain path are skipped: every
        line they had queued is already fully on the cells — there is
        nothing left to tear.
        """
        if self._torn is not None:
            self._tear_inflight_log(image)
        if self._torn_data is not None:
            self._tear_inflight_data(image)

    def _tear_inflight_log(self, image) -> None:
        inflight = self.taps.log
        targets = (
            [self._torn.controller] if self._torn.controller is not None
            else sorted(inflight)
        )
        for mc_id in targets:
            if mc_id in self._drained_ids:
                continue
            queue = inflight.get(mc_id)
            if not queue:
                continue
            addr, payload = next(iter(queue.items()))
            image.persist_torn(addr, payload, self._torn.prefix_bytes)
            self.tore_header = self._is_header_line(self.layout, addr)
            what = "header" if self.tore_header else "entry"
            self._mark(
                f"tore {what} line {addr:#x} on mc{mc_id} at "
                f"{self._torn.prefix_bytes}/{CACHE_LINE_BYTES} bytes"
            )
            return  # exactly one line is on the wires

    def _tear_inflight_data(self, image) -> None:
        inflight = self.taps.data_lines
        targets = (
            [self._torn_data.controller]
            if self._torn_data.controller is not None
            else sorted(inflight)
        )
        for mc_id in targets:
            if mc_id in self._drained_ids:
                continue
            queue = inflight.get(mc_id)
            if not queue:
                continue
            addr, payload = next(iter(queue.items()))
            changed = image.persist_torn(
                addr, payload, self._torn_data.prefix_bytes
            )
            if not changed:
                # The torn prefix matched the old cell contents byte for
                # byte — no mixed-epoch line exists, the point is
                # vacuous for this member.
                continue
            self.note_damage(image, addr)
            self._mark(
                f"tore data line {addr:#x} on mc{mc_id} at "
                f"{self._torn_data.prefix_bytes}/{CACHE_LINE_BYTES} bytes"
            )
            return  # exactly one line is on the wires

    def after_crash(self, image) -> None:
        """Apply post-crash media damage (log-corruption, bit-rot)."""
        if self._corrupt is not None:
            self._corrupt_newest_header(image)
        if self._bit_rot is not None:
            self._apply_bit_rot(image)

    def _corrupt_newest_header(self, image) -> None:
        target = self._newest_durable_header(image)
        if target is None:
            return
        addr, mc_id, seq = target
        line = bytearray(image.durable_read(addr, CACHE_LINE_BYTES))
        flip = self._corrupt.flip_bytes
        for i in range(flip):
            line[i] ^= 0xFF
        if image.damage(addr, bytes(line)):
            self.note_damage(image, addr)
        self._mark(
            f"flipped {flip} bytes of header seq={seq} at {addr:#x} "
            f"on mc{mc_id}"
        )

    def _apply_bit_rot(self, image) -> None:
        model = self._bit_rot
        layout = self.layout
        threshold = int(model.rate * float(2 ** 32))
        flipped = 0
        for base in image.touched_durable_lines():
            if not self._rot_region_ok(layout, base, model.regions):
                continue
            decay, offset, mask = _rot_draw(model.seed, base)
            if decay >= threshold:
                continue
            line = bytearray(image.durable_read(base, CACHE_LINE_BYTES))
            line[offset] ^= mask
            image.damage(base, bytes(line))
            self.note_damage(image, base)
            flipped += 1
        if flipped:
            self._mark(
                f"bit-rot flipped 1 bit in {flipped} durable line(s) "
                f"(rate={model.rate}, regions={model.regions})"
            )

    @staticmethod
    def _rot_region_ok(layout, addr: int, regions: str) -> bool:
        if regions == "all":
            return True
        if regions == "data":
            return not layout.is_log(addr)
        if not layout.is_log(addr):
            return False
        offset = addr - layout.log_region_base(layout.controller_of(addr))
        in_adr = 0 <= offset < layout.adr_block_bytes
        return in_adr if regions == "adr" else not in_adr

    def note_damage(self, image, addr: int) -> None:
        """Snapshot a just-damaged line as silent-corruption ground truth."""
        base = addr - (addr % CACHE_LINE_BYTES)
        self.damage[base] = bytes(image.durable_read(base, CACHE_LINE_BYTES))

    # -- target discovery ------------------------------------------------------

    def _is_header_line(self, layout, addr: int) -> bool:
        """True when ``addr`` is a record *header* line of a log region."""
        if not layout.is_log(addr):
            return False
        controller = layout.controller_of(addr)
        offset = addr - layout.log_region_base(controller) - layout.adr_block_bytes
        if offset < 0:
            return False  # inside the ADR block
        return (offset % layout.log.record_bytes) == (
            layout.log.entries_per_record * CACHE_LINE_BYTES
        )

    def _newest_durable_header(self, image):
        """Find the highest-seq durable valid header of an active update.

        Walks the (already flushed) ADR blocks of ``image`` exactly like
        recovery will, so the corrupted line is one recovery would
        otherwise have trusted.  Returns ``(header_addr, mc_id, seq)``
        or ``None``.
        """
        from repro.mem.layout import RecordAddress

        layout = self.layout
        cfg = layout.log
        targets = (
            [self._corrupt.controller]
            if self._corrupt.controller is not None
            else range(layout.num_controllers)
        )
        best = None
        for mc_id in targets:
            blob = image.durable_read(
                layout.adr_base(mc_id), layout.adr_block_bytes
            )
            try:
                images = adr.deserialize(blob)
            except Exception:  # noqa: BLE001 — no ADR, nothing to corrupt
                continue
            for aus in images:
                if not aus.active():
                    continue
                for bucket in aus.bucket_vec.iter_ones():
                    limit = (
                        aus.current_record if bucket == aus.current_bucket
                        else cfg.records_per_bucket
                    )
                    for index in range(limit):
                        rec = RecordAddress(mc_id, bucket, index)
                        addr = layout.record_header_addr(rec)
                        header = RecordHeader.decode(
                            image.durable_read(addr, CACHE_LINE_BYTES)
                        )
                        if not header.trustworthy or header.owner != aus.slot:
                            continue
                        if best is None or header.seq > best[2]:
                            best = (addr, mc_id, header.seq)
        return best
