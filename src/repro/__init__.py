"""repro — a reproduction of "ATOM: Atomic Durability in Non-volatile
Memory through Hardware Logging" (Joshi, Nagarajan, Viglas, Cintra;
HPCA 2017).

Public API highlights::

    from repro import Design, SystemConfig, System
    from repro.workloads import make_workload
    from repro.harness import run_experiment

    cfg = SystemConfig.scaled_down(design=Design.ATOM_OPT)
    system = System(cfg)
    workload = make_workload("rbtree", system, entry_bytes=512,
                             txns_per_thread=10)
    workload.setup()
    system.start_threads(workload.threads())
    system.run()
    print(system.result().txn_throughput)

See README.md for the architecture overview and the paper-fidelity
table in ROADMAP.md for paper-versus-measured results.
"""

from repro.config import (
    CacheConfig,
    CoreConfig,
    DebugConfig,
    Design,
    HierarchyConfig,
    LogConfig,
    MemoryConfig,
    NocConfig,
    RedoConfig,
    SystemConfig,
)
from repro.runtime.system import SimResult, System

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "DebugConfig",
    "Design",
    "HierarchyConfig",
    "LogConfig",
    "MemoryConfig",
    "NocConfig",
    "RedoConfig",
    "SimResult",
    "System",
    "SystemConfig",
    "__version__",
]
