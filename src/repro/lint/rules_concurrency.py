"""Concurrency rules (RACE001, RACE002, LOCK001, DET001).

Serve's acceptor threads and its coalescer thread share mutable state
(stats counters, admission and breaker state), and ``PlanCache`` and
``ResilientSession`` keep their locks so that a caller sharing one
across threads stays correct.  These rules turn the repository's lock discipline -- learned from the code
itself by :mod:`repro.lint.locks` -- into a checked contract:

* RACE001 -- a shared attribute is mutated outside its inferred guard;
* RACE002 -- a compound read-modify-write (``self.hits += 1``) runs
  unguarded on a lock-disciplined class: lost updates even when each
  individual access looks benign;
* LOCK001 -- an attribute is guarded by *different* locks at different
  sites, which serializes nothing;
* DET001 -- nondeterminism inside parallel paths: unordered ``set``
  iteration (result order then depends on hash seeding) or wall-clock /
  PRNG calls inside worker-thread jobs, which make results depend on
  scheduling.

Scoped to the packages that actually run concurrent code.  The dynamic
counterpart (:mod:`repro.lint.sanitizer`) validates these findings
against real interleavings.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.locks import ClassModel, build_module_model, job_function_nodes
from repro.lint.rules import Rule, RuleContext, register_rule

#: Packages whose code runs on (or hands work to) worker threads.
CONCURRENCY_SCOPES = (
    "repro.runtime",
    "repro.faults",
    "repro.protocol",
    "repro.serve",
    "repro.obs",
)

#: Rule IDs that `python -m repro lint --concurrency` selects.
CONCURRENCY_RULE_IDS = ("RACE001", "RACE002", "LOCK001", "DET001")


class _ModelCache:
    """One :class:`ModuleModel` per RuleContext, shared by the four rules."""

    def get(self, ctx: RuleContext):
        model = getattr(ctx.tree, "_repro_concurrency_model", None)
        if model is None:
            model = build_module_model(ctx.tree)
            ctx.tree._repro_concurrency_model = model
        return model


_MODELS = _ModelCache()


def _is_compound(kind: str) -> bool:
    return kind in ("augassign", "rmw")


@register_rule
class UnguardedSharedWriteRule(Rule):
    """RACE001: shared attribute mutated outside its inferred guard."""

    rule_id = "RACE001"
    severity = Severity.ERROR
    description = (
        "attribute with an inferred lock guard is mutated outside that "
        "lock (or a worker-thread job writes shared state unguarded)"
    )
    scopes = CONCURRENCY_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        for cls in _MODELS.get(ctx).classes:
            findings.extend(self._check_class(ctx, cls))
        return findings

    def _check_class(self, ctx: RuleContext, cls: ClassModel) -> List[Finding]:
        findings = []
        guards = cls.guards()
        for w in cls.writes:
            if w.in_init or w.locks_held:
                continue
            if w.kind == "locked_call":
                findings.append(
                    self.finding(
                        ctx, w.node,
                        f"{cls.name}.{w.attr}() asserts the caller holds "
                        f"the lock, but {w.method}() calls it without one",
                    )
                )
                continue
            if _is_compound(w.kind):
                continue  # RACE002's territory
            guarded_by = guards.get(w.attr)
            if guarded_by:
                locks = "/".join(sorted(guarded_by))
                findings.append(
                    self.finding(
                        ctx, w.node,
                        f"{cls.name}.{w.attr} is written under self.{locks} "
                        f"elsewhere but mutated without it in {w.method}()",
                    )
                )
            elif w.in_job and cls.lock_disciplined:
                findings.append(
                    self.finding(
                        ctx, w.node,
                        f"{cls.name}.{w.attr} is mutated from a worker-"
                        f"thread job ({w.method}) with no lock held",
                    )
                )
        return findings


@register_rule
class CompoundUpdateRule(Rule):
    """RACE002: unguarded read-modify-write on a lock-disciplined class.

    ``self.hits += 1`` is a load, an add and a store; two threads
    interleaving them lose updates.  On a class that owns a lock, every
    compound update of instance state must run under it -- even counters
    that "only drift a little": the conformance tier asserts exact
    numbers.
    """

    rule_id = "RACE002"
    severity = Severity.ERROR
    description = (
        "compound read-modify-write (`self.x += ...`) outside the lock "
        "on a lock-disciplined class (lost updates under threads)"
    )
    scopes = CONCURRENCY_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        for cls in _MODELS.get(ctx).classes:
            shared = cls.lock_disciplined
            for w in cls.writes:
                if w.in_init or w.locks_held or not _is_compound(w.kind):
                    continue
                if not (shared or w.in_job):
                    continue
                where = (
                    "a worker-thread job" if w.in_job else f"{w.method}()"
                )
                findings.append(
                    self.finding(
                        ctx, w.node,
                        f"compound update of {cls.name}.{w.attr} in {where} "
                        "without the class lock: concurrent increments "
                        "lose updates",
                    )
                )
        return findings


@register_rule
class InconsistentGuardRule(Rule):
    """LOCK001: one attribute guarded by different locks at different sites."""

    rule_id = "LOCK001"
    severity = Severity.ERROR
    description = (
        "attribute is written under different locks at different sites; "
        "inconsistent guards serialize nothing"
    )
    scopes = CONCURRENCY_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        for cls in _MODELS.get(ctx).classes:
            # Discipline is consistent when one common lock is held at
            # every guarded write of the attribute (holding extra locks
            # at some sites is fine); an empty intersection across two or
            # more sites means no single lock serializes them.
            sites: dict = {}
            for w in cls.writes:
                if w.in_init or not w.locks_held:
                    continue
                sites.setdefault(w.attr, []).append(w)
            for attr, writes in sorted(sites.items()):
                if len(writes) < 2:
                    continue
                common = set(writes[0].locks_held)
                for w in writes[1:]:
                    common &= w.locks_held
                if common:
                    continue
                seen = sorted(
                    {name for w in writes for name in w.locks_held}
                )
                locks = ", ".join(f"self.{name}" for name in seen)
                findings.append(
                    self.finding(
                        ctx, writes[-1].node,
                        f"{cls.name}.{attr} is guarded by {locks} at "
                        "different sites with no common lock; pick one "
                        "lock per field",
                    )
                )
        return findings


_TIME_MODULES = ("time",)
_RANDOM_MODULES = ("random",)
#: time.* calls that are pure reads of configuration, not the wall clock.
_TIME_SAFE = frozenset({"sleep", "strftime", "gmtime", "localtime"})


def _set_iteration_target(node: ast.AST):
    """The iterable expression when ``node`` iterates something set-typed."""
    if isinstance(node, ast.For):
        return node.iter
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return node.generators[0].iter
    return None


#: Wrappers that preserve the order of their (first) argument, so a set
#: inside them still iterates in arbitrary order.
_ORDER_PRESERVING = ("enumerate", "list", "tuple", "iter", "reversed", "zip")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
        if node.func.id in _ORDER_PRESERVING and node.args:
            return _is_set_expr(node.args[0])
    return False


@register_rule
class ParallelNondeterminismRule(Rule):
    """DET001: nondeterminism feeding or inside parallel paths.

    Results must be byte-identical however work is scheduled across
    threads.  Iterating an unordered ``set`` makes job order depend
    on hash seeding, and wall-clock / PRNG reads inside a worker job make
    the result depend on scheduling.  Sort the iterable; draw randomness
    and timestamps in the submitting thread.
    """

    rule_id = "DET001"
    severity = Severity.WARNING
    description = (
        "nondeterminism in a parallel path: unordered set iteration, or "
        "time/random calls inside a worker-thread job"
    )
    scopes = CONCURRENCY_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        model = _MODELS.get(ctx)
        job_lines = set()
        for _, linenos in job_function_nodes(model):
            job_lines.update(linenos)

        for node in ast.walk(ctx.tree):
            target = _set_iteration_target(node)
            if target is not None and _is_set_expr(target):
                findings.append(
                    self.finding(
                        ctx, target,
                        "iterating an unordered set: order depends on hash "
                        "seeding; wrap in sorted(...) to keep parallel "
                        "job order deterministic",
                    )
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and getattr(node, "lineno", 0) in job_lines
            ):
                mod = node.func.value.id
                if mod in _TIME_MODULES and node.func.attr not in _TIME_SAFE:
                    findings.append(
                        self.finding(
                            ctx, node,
                            f"wall-clock read (time.{node.func.attr}) inside "
                            "a worker-thread job: results become "
                            "schedule-dependent; time in the submitting "
                            "thread instead",
                        )
                    )
                elif mod in _RANDOM_MODULES:
                    findings.append(
                        self.finding(
                            ctx, node,
                            f"PRNG call (random.{node.func.attr}) inside a "
                            "worker-thread job: draw randomness in the "
                            "submitting thread and pass it in",
                        )
                    )
        return findings
