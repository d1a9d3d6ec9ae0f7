"""Golden recovered outcomes of crash, fault and litmus points.

Every crash, fault and untraced litmus point is checked on a power cut
(``System.power_cut``) whose image is a private copy of the live run's
durable plane, and the destructive ``System.crash`` resets its image
through the same whole-image plane code.  The differential tests
(``test_power_cut.py``, ``test_fault_prefix.py``,
``test_litmus_prefix.py``) compare the two paths with each other, so a
bug in plane code both share can pass them.  This net pins what the
points recover to values captured from an earlier revision: per point,
a digest of its outcome payload together with the durable digest of
its recovered cut image, so a mismatch names the point that moved.

The points are a reduced storm fault matrix (every default model on
base, atom-opt and redo, on hash, with the checksum plane and storm
seed 7), a few crash-sweep cells and a few litmus cells, some of them
under a fault model and a storm.

Regenerating the goldens is a deliberate act (it redefines what the
points recover to):

    PYTHONPATH=src python tests/test_recovered_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import Design
from repro.faults.models import TornLogWrite, default_fault_models
from repro.faults.sweep import execute_fault_point, fault_grid
from repro.harness import campaign as campaign_mod
from repro.harness.cache import encode_outcome
from repro.harness.campaign import (CRASH_DESIGNS, crash_grid,
                                    execute_crash_point)
from repro.litmus.catalog import CATALOG
from repro.litmus.explorer import LitmusPoint, execute_litmus_point

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_recovered.json"

#: Litmus cells: (catalog test, design, fault model, storm seed).
LITMUS_CELLS = [
    ("atomicity-multiline", Design.ATOM_OPT, None, None),
    ("log-wraparound", Design.ATOM, None, None),
    ("redo-victim-parking", Design.REDO, None, None),
    ("cross-aus-ordering", Design.ATOM_OPT, TornLogWrite().to_dict(), 7),
]
#: Crash points per litmus cell, spread evenly over the program.
LITMUS_POINTS = 4


def _points():
    """``(key, thunk)`` for every pinned point, in execution order.

    Each run's points are adjacent and in ascending cycle order, as the
    sweeps submit them, so every run is simulated once.
    """
    faults = fault_grid(
        designs=[Design.BASE, Design.ATOM_OPT, Design.REDO],
        workloads=["hash"], models=default_fault_models(),
        crash_cycles=range(3_000, 21_001, 6_000), checksums=True, storm=7,
    )
    for spec in faults:
        key = (f"fault/{spec.design.value}/{spec.workload}/"
               f"{spec.fault['kind']}/{spec.crash_cycle}")
        yield key, lambda spec=spec: encode_outcome(execute_fault_point(spec))
    crashes = crash_grid(designs=CRASH_DESIGNS, workloads=["queue"],
                         crash_cycles=(4_000, 11_000, 18_000))
    for spec in crashes:
        key = f"crash/{spec.design.value}/{spec.workload}/{spec.crash_cycle}"
        yield key, lambda spec=spec: encode_outcome(
            execute_crash_point(spec))
    by_name = {test.name: test for test in CATALOG}
    for name, design, fault, storm in LITMUS_CELLS:
        probe = LitmusPoint(test=by_name[name].to_dict(), design=design,
                            crash_cycle=None)
        finish = execute_litmus_point(probe).finish
        step = finish // (LITMUS_POINTS + 1)
        for cycle in range(step, finish, step)[:LITMUS_POINTS]:
            point = dataclasses.replace(probe, crash_cycle=cycle,
                                        fault=fault, storm=storm)
            key = (f"litmus/{name}/{design.value}/"
                   f"{fault['kind'] if fault else 'plain'}/{cycle}")
            yield key, lambda point=point: encode_outcome(
                execute_litmus_point(point))


def recovered_digests(monkeypatch) -> dict[str, str]:
    """Run every pinned point; its key -> digest of what it recovered.

    A point's digest covers its outcome payload and the durable digest
    of its cut image after the point's checks (``None`` for a point
    that cut no power, such as an inapplicable fault model).
    """
    cut_digests: list[str] = []
    original = campaign_mod.cut_point

    def recording(key, cycle, start, check, injector=None):
        def checked(system, workload, cut):
            outcome = check(system, workload, cut)
            cut_digests.append(cut.image.durable_digest())
            return outcome
        return original(key, cycle, start, checked, injector)

    monkeypatch.setattr(campaign_mod, "cut_point", recording)
    campaign_mod._drop_live_run()
    digests = {}
    try:
        for key, run in _points():
            cut_digests.clear()
            payload = run()
            assert len(cut_digests) <= 1, key
            blob = json.dumps(
                [payload, cut_digests[0] if cut_digests else None],
                sort_keys=True,
            )
            digests[key] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    finally:
        campaign_mod._drop_live_run()
    return digests


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_recovered_outcomes_match_golden(golden, monkeypatch):
    measured = recovered_digests(monkeypatch)
    assert list(measured) == list(golden), "the pinned point set moved"
    moved = [key for key in golden if measured[key] != golden[key]]
    assert not moved, f"{len(moved)} point(s) recover differently: {moved}"


def test_golden_covers_every_kind_of_point(golden):
    kinds = {key.split("/")[0] for key in golden}
    assert kinds == {"fault", "crash", "litmus"}
    models = {key.split("/")[3] for key in golden if key.startswith("fault/")}
    assert models == {model.kind for model in default_fault_models()}


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        with pytest.MonkeyPatch.context() as patch:
            data = recovered_digests(patch)
        GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
        print(f"regenerated {GOLDEN_PATH} ({len(data)} points)")
