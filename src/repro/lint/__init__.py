"""Domain-specific static analysis for the readout reproduction.

``repro.lint`` encodes, as AST checks over the repo's own source, the
invariants the golden-snapshot tests can only sample at runtime:

- ``float-in-fpga`` / ``purity-stale-scope`` -- the Q16.16 datapath
  (``repro/fpga/*`` and the raw-carrier paths of ``repro/engine``) must
  stay float-free outside the explicitly dequantizing functions, and every
  scope entry must name an existing file and defined functions
  (:mod:`repro.lint.purity`).
- ``overflow-unproven`` / ``int64-overflow`` -- every multiply/accumulate
  site in the fixed-point datapath must carry a reviewed worst-case bound
  proving int64 intermediates cannot wrap (:mod:`repro.lint.overflow`).
- ``unguarded-write`` / ``blocking-under-lock`` -- fields in the
  ``GUARDED_BY`` registry may only be written under their lock, and
  blocking calls may not run while a registered lock is held
  (:mod:`repro.lint.locks`).
- ``wire-unhandled-frame`` -- every frame kind in ``repro/engine/wire.py``
  must be dispatched by ``ServingCore`` and decodable by
  ``AsyncRemoteEngineClient`` (:mod:`repro.lint.wirecheck`).

Run ``python -m repro.lint --help`` for the CLI; see the README's
"Static analysis" section for the rule catalog and pragma syntax.
"""

from repro.lint.findings import Finding, PragmaIndex, load_baseline, save_baseline
from repro.lint.runner import LintResult, default_repo_root, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "PragmaIndex",
    "default_repo_root",
    "load_baseline",
    "run_lint",
    "save_baseline",
]
