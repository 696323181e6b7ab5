"""Repo-specific correctness tooling: static lint + autograd audit.

The model runs on a hand-rolled autograd engine with one
implementation per op (the :mod:`repro.nn.ops` registry: a numpy
forward and backward per primitive, the fused levelised sweep
included, run by eager and compiled execution alike), where bugs
corrupt results silently instead of crashing.  The finite-difference
gradcheck is the oracle every op answers to; this package makes that
and the other checks mechanical:

- :mod:`repro.check.rules` — the pluggable registry of AST lint rules
  enforcing repo invariants, one file at a time: stable digests instead
  of builtin ``hash()``, seeded RNGs and a fixed RNG draw order, no
  broad excepts, no mutable defaults, no in-place ``Tensor.data``
  mutation outside the audited whitelist, nothing mutable handed to a
  worker pool, atomic artifact writes, and no ``backward()`` under
  ``no_grad()``;
- :mod:`repro.check.lint` — the file/waiver driver
  (``# repro-check: disable=<rule> -- justification``);
- :mod:`repro.check.gradcheck` — the autograd contract auditor: every
  registry op, every op in :mod:`repro.nn.functional` and the K-node
  alignment losses are finite-difference checked, screened for NaN/inf
  and dtype drift, run under ``no_grad()``, and traced, compiled and
  replayed against eager execution (where only view ops may share
  memory with an input);
- :mod:`repro.check.cli` — ``repro check`` / ``python -m repro.check``.
"""

from .gradcheck import OpCase, check_case, run_gradcheck
from .lint import lint_file, run_lint
from .rules import RULES, TENSOR_DATA_WHITELIST, Finding

__all__ = [
    "Finding",
    "OpCase",
    "RULES",
    "TENSOR_DATA_WHITELIST",
    "check_case",
    "lint_file",
    "run_gradcheck",
    "run_lint",
]
