"""Media-fault realism: checksum plane, torn data, bit rot, silent accounting.

The media models (``torn-data-write``, ``bit-rot``) damage lines with no
format CRC, so their contracts hinge on the per-data-line checksum
plane:

* plane **on** — recovery's scrub detects the damage
  (``line_checksum_rejected``), the cell verdict is ``detected``, and
  silent corruption is a hard failure;
* plane **off** — the same damage must land in the *silent* bucket
  (accounted against the injector's ground truth), never report ``ok``.

``correlated-loss`` is the consistency-preserving control: losing k
write queues at once only removes state a whole-machine cut could also
have removed.
"""

import weakref

import pytest

from repro.atom import recovery, redo
from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE_BYTES
from repro.config import Design
from repro.faults.models import (
    BitRot, ControllerLoss, CorrelatedControllerLoss, LogCorruption,
    MultiFault, TornDataWrite, TornLogWrite, default_fault_models,
    fault_from_dict, partition_applicable, resolve_inapplicable,
    torn_prefix_from_seed,
)
from repro.faults.sweep import (
    FaultCell, FaultOutcome, FaultSpec, FaultSweepResult, execute_fault_point,
    fault_grid,
)
from repro.harness import campaign as campaign_mod
from repro.mem.image import MemoryImage

LINE = CACHE_LINE_BYTES


class TestChecksumPlane:
    """Image-level semantics: legit persists maintain CRCs, damage
    paths leave them stale, verify_line fails exactly on damage."""

    def _image(self):
        return MemoryImage(16 * LINE, line_checksums=True)

    def test_persist_records_and_verifies(self):
        img = self._image()
        img.persist(0, b"\xaa" * LINE)
        assert img.verify_line(0)
        assert img.verify_line(13)  # any address within the line

    def test_damage_leaves_the_checksum_stale(self):
        img = self._image()
        img.persist(0, b"\xaa" * LINE)
        assert img.damage(3, b"\x00\x01")
        assert not img.verify_line(0)
        # A legitimate re-persist refreshes the metadata.
        img.persist(0, img.durable_line(0))
        assert img.verify_line(0)

    def test_persist_torn_lands_a_prefix_and_fails_verification(self):
        img = self._image()
        img.persist(LINE, b"\x11" * LINE)
        assert img.persist_torn(LINE, b"\x22" * LINE, 60)
        assert img.durable_line(LINE) == b"\x22" * 60 + b"\x11" * 4
        assert not img.verify_line(LINE)

    def test_vacuous_tears_report_unchanged(self):
        img = self._image()
        img.persist(LINE, b"\x22" * LINE)
        # Zero-byte prefix = a dropped write, and a prefix matching the
        # old cells byte for byte: neither changes durable contents.
        assert img.persist_torn(LINE, b"whatever", 0) is False
        assert img.persist_torn(LINE, b"\x22" * LINE, 60) is False
        assert img.verify_line(LINE)

    def test_damage_only_line_fails_verification(self):
        # A line only a damage path ever wrote has no recorded checksum
        # — verification must fail, not vacuously pass.
        img = self._image()
        assert img.damage(2 * LINE, b"\x05" * LINE)
        assert 2 * LINE in img.touched_durable_lines()
        assert not img.verify_line(2 * LINE)

    def test_plane_off_records_nothing(self):
        img = MemoryImage(4 * LINE, line_checksums=False)
        img.persist(0, b"\xaa" * LINE)
        assert img._line_crc == {}


class TestMediaFaultModels:
    def test_round_trips(self):
        for model in (
            TornDataWrite(),
            TornDataWrite(controller=1, prefix_seed=5),
            BitRot(seed=3, rate=0.5, regions="data"),
            CorrelatedControllerLoss(controllers=[0, 2]),
            MultiFault(models=[CorrelatedControllerLoss(), BitRot()]),
        ):
            clone = fault_from_dict(model.to_dict())
            assert clone == model
            assert clone.to_dict() == model.to_dict()

    def test_seeded_torn_data_derives_prefix(self):
        model = TornDataWrite(prefix_seed=11)
        assert model.prefix_bytes == torn_prefix_from_seed(11)

    def test_bad_parameters_rejected(self):
        for payload in (
            {"kind": "bit-rot", "rate": 0.0},
            {"kind": "bit-rot", "rate": 1.5},
            {"kind": "bit-rot", "regions": "tape"},
            {"kind": "torn-data-write", "prefix_bytes": 0},
            {"kind": "torn-data-write", "prefix_bytes": LINE},
            {"kind": "correlated-loss", "controllers": [0]},
            {"kind": "correlated-loss", "controllers": [0, 0]},
            {"kind": "correlated-loss", "controllers": [-1, 0]},
            {"kind": "correlated-loss", "controllers": "zero"},
        ):
            with pytest.raises(ConfigError):
                fault_from_dict(payload)

    def test_correlated_loss_normalizes_controller_ids(self):
        model = CorrelatedControllerLoss(controllers=[2, 0, 2, 1])
        assert model.controllers == [0, 1, 2]

    def test_applicability(self):
        for design in Design:
            assert TornDataWrite().applicable(design)
            assert CorrelatedControllerLoss().applicable(design)
            assert BitRot(regions="data").applicable(design)
            assert BitRot(regions="all").applicable(design)
        # Log/ADR decay only means anything on designs with an undo log.
        for design in (Design.REDO, Design.NON_ATOMIC):
            assert not BitRot(regions="log").applicable(design)
            assert not BitRot(regions="adr").applicable(design)
        assert BitRot(regions="log").applicable(Design.ATOM)
        assert BitRot(regions="adr").applicable(Design.ATOM_OPT)

    def test_detection_axes(self):
        for cls in (TornDataWrite, BitRot):
            assert cls.expects_detection
            assert cls.detection_needs_checksums
            assert not cls.preserves_consistency
        assert CorrelatedControllerLoss.preserves_consistency
        assert not CorrelatedControllerLoss.expects_detection

    def test_composite_detection_needs_checksums(self):
        # All detection-expecting members media -> plane-gated.
        assert MultiFault(
            models=[TornDataWrite(), BitRot()]
        ).detection_needs_checksums
        # One format-CRC member (log-corruption) can satisfy the
        # contract without the plane -> not gated.
        assert not MultiFault(
            models=[TornDataWrite(), LogCorruption()]
        ).detection_needs_checksums
        # No detection-expecting member at all -> not gated.
        assert not MultiFault(
            models=[ControllerLoss(), CorrelatedControllerLoss()]
        ).detection_needs_checksums


class TestSharedStrictnessPolicy:
    def test_partition_splits_and_explains(self):
        models = [TornLogWrite(), BitRot(regions="log"), ControllerLoss()]
        usable, dropped = partition_applicable(models, [Design.REDO])
        assert [m.kind for m in usable] == ["controller-loss"]
        assert [m.kind for m, _ in dropped] == ["torn-log-write", "bit-rot"]
        for _, reason in dropped:
            assert "applies to none" in reason
            assert "redo" in reason

    def test_partition_keeps_models_usable_on_any_selected_design(self):
        usable, dropped = partition_applicable(
            [TornLogWrite()], [Design.REDO, Design.ATOM])
        assert usable and not dropped

    def test_resolve_strict_raises_with_the_escape_hatch(self):
        with pytest.raises(ConfigError, match="--drop-inapplicable"):
            resolve_inapplicable([TornLogWrite()], [Design.NON_ATOMIC],
                                 strict=True)

    def test_resolve_drop_returns_reasons(self):
        usable, reasons = resolve_inapplicable(
            [TornLogWrite(), ControllerLoss()], [Design.NON_ATOMIC],
            strict=False)
        assert [m.kind for m in usable] == ["controller-loss"]
        assert len(reasons) == 1 and "torn-log-write" in reasons[0]


def _bit_rot_point(design=Design.ATOM_OPT, *, checksums, cycle=8_000):
    return execute_fault_point(FaultSpec(
        design=design, workload="hash",
        fault={"kind": "bit-rot", "rate": 1.0, "regions": "data", "seed": 1},
        crash_cycle=cycle, checksums=checksums,
    ))


class TestSilentAccounting:
    """End-to-end: the same damage is detected with the plane and
    accounted as silent without it — never 'ok'."""

    def test_bit_rot_with_checksums_is_detected(self):
        out = _bit_rot_point(checksums=True)
        assert out.ok, out.error
        assert out.applied
        assert out.detections > 0
        assert out.silent == 0

    def test_bit_rot_without_checksums_is_silent(self):
        out = _bit_rot_point(checksums=False)
        assert out.ok, out.error  # no detection contract without the plane
        assert out.applied
        assert out.detections == 0
        assert out.silent > 0

    def test_torn_data_with_checksums_is_detected(self):
        out = execute_fault_point(FaultSpec(
            design=Design.ATOM_OPT, workload="hash",
            fault={"kind": "torn-data-write"},
            crash_cycle=8_000, checksums=True,
        ))
        assert out.ok, out.error
        assert out.applied, "no data write in flight at this cycle"
        assert out.detections > 0
        assert out.silent == 0

    def test_correlated_loss_preserves_consistency(self):
        for design in (Design.ATOM, Design.REDO):
            out = execute_fault_point(FaultSpec(
                design=design, workload="hash",
                fault={"kind": "correlated-loss"},
                crash_cycle=8_000,
            ))
            assert out.ok, out.error
            assert out.applied
            assert out.idempotent

    def test_cell_verdict_precedence(self):
        spec = FaultSpec(design=Design.ATOM, workload="hash",
                         fault={"kind": "bit-rot"}, crash_cycle=1)

        def cell(**kw):
            c = FaultCell("atom", "hash", "bit-rot")
            c.absorb(FaultOutcome(spec=spec, **kw))
            return c.status

        assert cell(ok=True, applied=False) == "vacuous"
        assert cell(ok=True, applied=True) == "ok"
        assert cell(ok=True, applied=True, detections=3) == "detected"
        assert cell(ok=True, applied=True, detections=3,
                    contained=1) == "contained"
        # Unflagged damage outranks detections: the cell is never 'ok'
        # or merely 'detected' while silent lines survived.
        assert cell(ok=True, applied=True, detections=3, silent=2) == "silent"
        assert cell(ok=False, applied=True, silent=2) == "FAIL"

    def test_silent_cells_surface_in_the_artifact(self):
        spec = FaultSpec(design=Design.ATOM, workload="hash",
                         fault={"kind": "bit-rot"}, crash_cycle=1)
        sweep = FaultSweepResult(outcomes=[
            FaultOutcome(spec=spec, ok=True, applied=True, silent=3),
        ])
        payload = sweep.to_json()
        assert payload["summary"]["silent"] == 1
        assert payload["summary"]["silent_lines"] == 3
        (cell,) = payload["cells"]
        assert cell["status"] == "silent"
        assert cell["silent"] == 3
        assert "silent" in sweep.render()


#: image -> the durable lines ever written in it, kept beside the
#: image's own bookkeeping by :func:`_record_touched_lines`.
_TOUCHED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _record_touched_lines(patch) -> None:
    """Keep a reference touched-line set for every image made from now
    on: each persist and damage (tears included) adds the lines it
    writes, and a durable copy starts from its source's set."""
    make, persist, damage, copy = (
        MemoryImage.__init__, MemoryImage.persist, MemoryImage.damage,
        MemoryImage.durable_copy,
    )

    def lines(addr, size):
        return range(addr & -LINE, addr + size, LINE)

    def init(image, *args, **kwargs):
        make(image, *args, **kwargs)
        _TOUCHED[image] = set()

    def persisted(image, addr, data):
        persist(image, addr, data)
        _TOUCHED[image].update(lines(addr, len(data)))

    def damaged(image, addr, data):
        changed = damage(image, addr, data)
        _TOUCHED[image].update(lines(addr, len(data)))
        return changed

    def copied(image):
        dup = copy(image)
        _TOUCHED[dup] = set(_TOUCHED[image])
        return dup

    patch.setattr(MemoryImage, "__init__", init)
    patch.setattr(MemoryImage, "persist", persisted)
    patch.setattr(MemoryImage, "damage", damaged)
    patch.setattr(MemoryImage, "durable_copy", copied)


def _full_walk_scrub(image, layout):
    """Reference media scrub: verify every touched line, count per line.

    Walks a sort of the reference touched-line set, not the image's
    page masks.
    """
    counts = [0] * layout.num_controllers
    bad = []
    if image.line_checksums:
        for base in sorted(_TOUCHED[image]):
            counts[layout.controller_of(base)] += 1
            if not image.verify_line(base):
                bad.append(base)
    return counts, bad


class TestIncrementalScrubDifferential:
    """The suspect-line scrub and its page-mask counts change no outcome.

    Every default model on base, atom-opt and redo, with the checksum
    plane and a crash storm, is run twice: as shipped, and with the
    scrub replaced by a full walk over a reference set of the touched
    lines (per-line ``controller_of``, ``verify_line`` on every line).
    Storm passes interrupted over torn or rotten lines scrub what the
    shipped code skips verifying.  (The fixpoint and idempotence
    verdicts take no digest; ``tests/test_recovery_journal.py`` checks
    them against one.)
    """

    @pytest.fixture(autouse=True)
    def fresh_live_run(self):
        campaign_mod._drop_live_run()
        yield
        campaign_mod._drop_live_run()

    def test_outcomes_equal_the_full_walk_reference(self, monkeypatch):
        specs = fault_grid(
            designs=[Design.BASE, Design.ATOM_OPT, Design.REDO],
            workloads=["hash"], models=default_fault_models(),
            crash_cycles=range(2_000, 30_001, 7_000), checksums=True,
            storm=7,
        )
        shipped = [execute_fault_point(spec) for spec in specs]
        campaign_mod._drop_live_run()
        with monkeypatch.context() as patch:
            _record_touched_lines(patch)
            patch.setattr(recovery, "scrub_media", _full_walk_scrub)
            patch.setattr(redo, "scrub_media", _full_walk_scrub)
            reference = [execute_fault_point(spec) for spec in specs]
        assert len({o.spec.fault["kind"] for o in shipped}) == 7
        for fast, slow in zip(shipped, reference):
            assert fast == slow, fast.spec
        # Not vacuous: the scrub found damage and storms interrupted.
        assert sum(o.recovery_cost.get("line_checksum_rejected", 0)
                   for o in shipped) > 0
        assert sum(o.storm_interrupted for o in shipped) > 0
