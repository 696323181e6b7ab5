"""Repo-specific correctness tooling: static lint + autograd audit.

The model runs on a hand-rolled autograd engine with one
implementation per op (the :mod:`repro.nn.functional` ops, their
compiled ``out=`` kernels and the fused levelised sweep), where bugs
corrupt results silently instead of crashing.  The finite-difference
gradcheck is the oracle every op answers to; this package makes that
and the other checks mechanical:

- :mod:`repro.check.rules` — the pluggable registry of AST lint rules
  enforcing repo invariants (stable digests instead of builtin
  ``hash()``, seeded RNGs, no broad excepts, no mutable defaults, no
  in-place ``Tensor.data`` mutation outside the audited whitelist);
- :mod:`repro.check.lint` — the file/waiver driver
  (``# repro-check: disable=<rule> -- justification``);
- :mod:`repro.check.gradcheck` — the autograd contract auditor: every
  op in :mod:`repro.nn.functional` plus the fused levelised-sweep node
  is finite-difference checked and screened for NaN/inf and dtype
  drift;
- :mod:`repro.check.dataflow` — per-function CFG construction and a
  generic forward dataflow engine over the AST;
- :mod:`repro.check.callgraph` — the package-wide import/call graph
  the whole-program analyses propagate facts across;
- :mod:`repro.check.analyses` — the shipped whole-program analyses
  (RNG-stream discipline, parallel-safety, artifact atomicity,
  trace-safety), run by ``repro check --dataflow``;
- :mod:`repro.check.contracts` — the static tensor-contract checker
  validating recorded compile traces (shapes, dtypes, aliasing)
  without executing a training step;
- :mod:`repro.check.cli` — ``repro check`` / ``python -m repro.check``.
"""

from .gradcheck import OpCase, check_case, run_gradcheck
from .lint import lint_file, run_lint
from .rules import (PROGRAM_RULES, RULES, Finding,
                    TENSOR_DATA_WHITELIST)

__all__ = [
    "Finding",
    "OpCase",
    "PROGRAM_RULES",
    "RULES",
    "TENSOR_DATA_WHITELIST",
    "check_case",
    "lint_file",
    "run_gradcheck",
    "run_lint",
]
