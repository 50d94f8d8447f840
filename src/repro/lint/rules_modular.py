"""Modular-arithmetic rules (MOD001, MOD002).

These protect the invariant documented in :mod:`repro.ntt.modmath`: the
vectorized kernels support moduli up to 40 bits *only* because the
float64 quotient of a product is within one of the true quotient, which
makes the wrapped uint64 remainder exact.  A raw
``a * b % q`` on ``uint64`` arrays passes every test at toy moduli and
silently wraps at ``q`` around ``2**32`` -- exactly the 32/35/39-bit
regime the F1/CHAM baselines and our RNS bases operate in.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.rules import Rule, RuleContext, register_rule

#: Packages whose integer arithmetic lives in the modular domain.
MODULAR_SCOPES = ("repro.ntt", "repro.fftcore", "repro.he")


def _is_plain_int_expr(node: ast.AST) -> bool:
    """True when ``node`` is provably a Python ``int`` (exact arithmetic).

    Recognized: integer literals, ``int(...)`` / ``len(...)`` /
    ``round(...)`` calls, ``.bit_length()`` calls, and arithmetic composed
    purely of those.  Python ints are arbitrary-precision, so raw ``%`` on
    them cannot overflow and floored division handles negatives correctly.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and not isinstance(node.value, bool)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("int", "len", "round"):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "bit_length":
            return True
        return False
    if isinstance(node, ast.BinOp):
        return _is_plain_int_expr(node.left) and _is_plain_int_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_plain_int_expr(node.operand)
    return False


def _in_compare(ctx: RuleContext, node: ast.AST) -> bool:
    """True when ``node`` is a direct operand of a comparison.

    ``(q - 1) % (2 * n) != 0`` is the standard divisibility test on scalar
    parameters; flagging it would bury the real findings in noise.
    """
    parent = ctx.parent(node)
    return isinstance(parent, ast.Compare)


@register_rule
class RawModularProductRule(Rule):
    """MOD001: ``(a * b) % q`` / ``(a ** b) % q`` instead of mulmod/powmod.

    On ``uint64`` arrays the product wraps modulo ``2**64`` *before* the
    reduction once operands exceed 32 bits; use
    :func:`repro.ntt.modmath.mulmod` (float-quotient remainder) or
    :func:`repro.ntt.modmath.powmod` instead.  Scalar Python-int sites are
    exact -- suppress them with a reason.
    """

    rule_id = "MOD001"
    severity = Severity.ERROR
    description = (
        "raw `*`/`**` followed by `%` in a modular-arithmetic module; "
        "use mulmod()/powmod() (uint64 products wrap above 2**32 operands)"
    )
    scopes = MODULAR_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
                continue
            left = node.left
            if not (
                isinstance(left, ast.BinOp)
                and isinstance(left.op, (ast.Mult, ast.Pow))
            ):
                continue
            if _is_plain_int_expr(left):
                continue
            kind = "product" if isinstance(left.op, ast.Mult) else "power"
            helper = "mulmod" if isinstance(left.op, ast.Mult) else "powmod"
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"raw modular {kind}: use repro.ntt.modmath.{helper} "
                    f"(uint64 intermediates wrap for moduli above ~32 bits)",
                )
            )
        return findings


@register_rule
class NegativeModRule(Rule):
    """MOD002: ``%`` applied to a possibly-negative difference/negation.

    ``(a - b) % q`` wraps modulo ``2**64`` *before* the reduction when the
    operands are unsigned arrays, and is a porting landmine for signed
    code translated from C (truncated division).  Use
    :func:`repro.ntt.modmath.submod` / :func:`negmod`, which stay inside
    unsigned arithmetic.  Divisibility tests (``% ... != 0``) and pure
    Python-int expressions are exempt.
    """

    rule_id = "MOD002"
    severity = Severity.ERROR
    description = (
        "`%` on a possibly-negative difference/negation; use "
        "submod()/negmod() (unsigned arrays wrap before the reduction)"
    )
    scopes = MODULAR_SCOPES

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
                continue
            left = node.left
            negated = isinstance(left, ast.BinOp) and isinstance(left.op, ast.Sub)
            negated = negated or (
                isinstance(left, ast.UnaryOp) and isinstance(left.op, ast.USub)
            )
            if not negated:
                continue
            if _in_compare(ctx, node) or _is_plain_int_expr(left):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    "modular reduction of a possibly-negative value: use "
                    "repro.ntt.modmath.submod/negmod (uint64 differences "
                    "wrap before `%` reduces them)",
                )
            )
        return findings
