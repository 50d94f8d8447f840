"""Domain-aware static analysis for the FLASH reproduction.

The numeric core of this codebase rests on invariants that ordinary
linters cannot see:

* :func:`repro.ntt.modmath.mulmod` is safe only because its float64
  quotient is within one of the true quotient, which makes the wrapped
  uint64 remainder exact -- a raw
  ``a * b % q`` on ``uint64`` arrays silently wraps for ``q`` above
  ~32 bits (MOD001);
* reducing a difference with ``%`` wraps *before* the reduction on
  unsigned arrays (MOD002);
* casting CRT-composed or product values to ``float64`` corrupts
  coefficients above ``2**53`` (DTYPE001);
* fixed-point FFT stages must respect per-stage bit-width budgets
  (:mod:`repro.lint.bitwidth`).

This package turns those paper-level invariants into CI-enforced
contracts: an AST rule engine with per-line suppressions
(``# repro-lint: disable=<ID>  reason``), text/JSON reporters, and a bit-width
dataflow analyzer for :class:`repro.fftcore.fixed_point.ApproxFftConfig`
stage configurations.  Run it as ``python -m repro lint [paths]``.
"""

from repro.lint.bitwidth import (
    BitwidthReport,
    StageReport,
    analyze_default_configs,
    analyze_design_space,
    analyze_fft_config,
)
from repro.lint.engine import LintResult, lint_paths, lint_source, module_for_path
from repro.lint.findings import Finding, Severity
from repro.lint.locks import ClassModel, ModuleModel, build_module_model
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import Rule, RuleContext, all_rules, get_rule, register_rule
from repro.lint.rules_concurrency import CONCURRENCY_RULE_IDS
from repro.lint.sanitizer import (
    RaceReport,
    RaceSanitizer,
    SanitizedLock,
    VectorClock,
    instrument,
)

# Importing the rule modules populates the registry.
from repro.lint import (  # noqa: F401, E402
    rules_concurrency,
    rules_dtype,
    rules_hygiene,
    rules_modular,
)

__all__ = [
    "BitwidthReport",
    "CONCURRENCY_RULE_IDS",
    "ClassModel",
    "Finding",
    "LintResult",
    "ModuleModel",
    "RaceReport",
    "RaceSanitizer",
    "Rule",
    "RuleContext",
    "SanitizedLock",
    "Severity",
    "StageReport",
    "VectorClock",
    "all_rules",
    "analyze_default_configs",
    "analyze_design_space",
    "analyze_fft_config",
    "build_module_model",
    "get_rule",
    "instrument",
    "lint_paths",
    "lint_source",
    "module_for_path",
    "register_rule",
    "render_json",
    "render_text",
]
