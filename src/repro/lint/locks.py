"""Lock-discipline and thread-reachability inference for one module.

The concurrency rules (:mod:`repro.lint.rules_concurrency`) need two
module-level facts that no single AST node carries:

* **which callables run on worker threads** -- anything handed to
  ``ThreadPoolExecutor.submit`` / ``.map`` or ``threading.Thread(target=...)``
  is a *job function*; every ``self.<attr>`` write inside one executes
  concurrently with the submitting thread;
* **which lock guards which attribute** -- learned from the code itself:
  a class that assigns ``self._lock = threading.Lock()`` (or ``RLock``) is
  *lock-disciplined*, and an attribute ever written inside
  ``with self._lock:`` is inferred to be guarded by that lock everywhere.

The model is intentionally intra-module (one file at a time, like every
other rule) and trusts two conventions that the codebase already follows:

* ``__init__`` / ``__post_init__`` writes are exempt (the object is not
  yet published to other threads);
* a method named ``*_locked`` asserts "caller holds the lock": its body
  is analyzed as if every class lock were held, and *call sites* of such
  methods outside a lock region are reported instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: Constructors recognized as lock objects when assigned to ``self.<attr>``.
LOCK_CONSTRUCTORS = ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")

#: Method names treated as initialization (writes there are pre-publication).
INIT_METHODS = ("__init__", "__post_init__", "__new__", "__init_subclass__")

#: Attribute-method calls that mutate the underlying container in place.
MUTATING_METHODS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert",
        "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
    }
)


@dataclass
class AttrWrite:
    """One write (or in-place mutation) of ``self.<attr>`` inside a class."""

    attr: str
    node: ast.AST
    kind: str  # "assign" | "augassign" | "rmw" | "mutate" | "locked_call"
    locks_held: FrozenSet[str]
    method: str
    in_init: bool
    in_job: bool


@dataclass
class ClassModel:
    """Inferred concurrency facts for one class definition."""

    name: str
    node: ast.ClassDef
    lock_attrs: Set[str] = field(default_factory=set)
    writes: List[AttrWrite] = field(default_factory=list)

    @property
    def lock_disciplined(self) -> bool:
        return bool(self.lock_attrs)

    def guards(self) -> Dict[str, Set[str]]:
        """Attribute -> set of lock names it was ever written under.

        This is the *inferred discipline*: one guarded write anywhere
        declares the attribute shared, and every other write site must
        agree (RACE001) and use the same lock (LOCK001).
        """
        out: Dict[str, Set[str]] = {}
        for w in self.writes:
            if w.in_init or not w.locks_held:
                continue
            out.setdefault(w.attr, set()).update(w.locks_held)
        return out


@dataclass
class ModuleModel:
    """Concurrency facts for one parsed module."""

    classes: List[ClassModel] = field(default_factory=list)
    #: FunctionDef/AsyncFunctionDef/Lambda nodes that run on worker threads.
    job_functions: List[ast.AST] = field(default_factory=list)
    #: Call nodes that hand work to a parallel primitive.
    entry_points: List[ast.Call] = field(default_factory=list)


def _self_attr(node: ast.AST, self_name: str) -> Optional[str]:
    """Attribute name when ``node`` is ``<self_name>.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _is_lock_ctor(node: ast.AST) -> bool:
    """True for ``threading.Lock()`` / ``Lock()`` / ``RLock()`` etc."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in LOCK_CONSTRUCTORS
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_CONSTRUCTORS
    return False


def _callable_names(call: ast.Call) -> List[str]:
    """Names of callables handed to a parallel entry-point call."""
    names: List[str] = []

    def name_of(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    func = call.func
    target = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if target in ("submit", "map"):
        if call.args:
            n = name_of(call.args[0])
            if n:
                names.append(n)
    elif target == "Thread":
        for kw in call.keywords:
            if kw.arg == "target":
                n = name_of(kw.value)
                if n:
                    names.append(n)
    return names


def _is_entry_point(call: ast.Call) -> bool:
    func = call.func
    target = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if target == "Thread":
        return any(kw.arg == "target" for kw in call.keywords)
    if target in ("submit", "map"):
        # Only attribute calls (pool.submit / executor.map): the builtin
        # ``map(...)`` is a plain Name call and stays exempt.
        return isinstance(func, ast.Attribute)
    return False


class _ClassVisitor(ast.NodeVisitor):
    """Collects lock attributes and attribute writes for one class body."""

    def __init__(self, model: ClassModel, job_names: Set[str]):
        self.model = model
        self.job_names = job_names

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node is not self.model.node:
            return  # nested classes get their own model
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_method(item)

    # -- method walking --------------------------------------------------

    def _walk_method(self, method: ast.FunctionDef) -> None:
        args = method.args.posonlyargs + method.args.args
        self_name = args[0].arg if args else "self"
        in_init = method.name in INIT_METHODS
        # A *_locked method asserts the caller holds every class lock.
        base_locks: FrozenSet[str] = (
            frozenset(self.model.lock_attrs)
            if method.name.endswith("_locked")
            else frozenset()
        )
        self._walk_body(
            method.body, self_name, method.name, in_init,
            locks=base_locks, in_job=False,
        )

    def _walk_body(
        self,
        body: List[ast.stmt],
        self_name: str,
        method: str,
        in_init: bool,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, self_name, method, in_init, locks, in_job)

    def _record(
        self,
        attr: str,
        node: ast.AST,
        kind: str,
        locks: FrozenSet[str],
        method: str,
        in_init: bool,
        in_job: bool,
    ) -> None:
        self.model.writes.append(
            AttrWrite(
                attr=attr, node=node, kind=kind, locks_held=locks,
                method=method, in_init=in_init, in_job=in_job,
            )
        )

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        self_name: str,
        method: str,
        in_init: bool,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            held = set(locks)
            for item in stmt.items:
                lock_attr = _self_attr(item.context_expr, self_name)
                if lock_attr is not None and lock_attr in self.model.lock_attrs:
                    held.add(lock_attr)
            self._walk_body(
                stmt.body, self_name, method, in_init, frozenset(held), in_job
            )
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: a job if its name was handed to a parallel
            # primitive anywhere in the module; the enclosing lock context
            # does not carry over (the closure runs later, possibly on
            # another thread with no lock held).
            nested_in_job = in_job or stmt.name in self.job_names
            self._walk_body(
                stmt.body, self_name, f"{method}.{stmt.name}", in_init,
                frozenset(), nested_in_job,
            )
            return

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_target(
                    target, stmt, self_name, method, in_init, locks, in_job
                )
            if not in_init:
                self._record_rmw(stmt, self_name, method, locks, in_job)
        elif isinstance(stmt, ast.AugAssign):
            attr = _self_attr(stmt.target, self_name)
            if attr is not None:
                self._record(
                    attr, stmt, "augassign", locks, method, in_init, in_job
                )
            else:
                self._record_subscript(
                    stmt.target, stmt, self_name, method, in_init, locks,
                    in_job,
                )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._record_target(
                stmt.target, stmt, self_name, method, in_init, locks, in_job
            )
        elif isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                self._record_subscript(
                    target, stmt, self_name, method, in_init, locks, in_job
                )

        # Shallow expressions of this statement (lock context is constant
        # inside an expression): container mutations and *_locked calls.
        for expr in self._shallow_exprs(stmt):
            self._scan_expr(
                expr, self_name, method, in_init, locks, in_job
            )

        # Nested statement bodies keep the current lock context.
        for child_body_name in ("body", "orelse", "finalbody"):
            child_body = getattr(stmt, child_body_name, None)
            if child_body:
                self._walk_body(
                    child_body, self_name, method, in_init, locks, in_job
                )
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk_body(
                handler.body, self_name, method, in_init, locks, in_job
            )

    @staticmethod
    def _shallow_exprs(stmt: ast.stmt) -> List[ast.expr]:
        """Direct expression children of ``stmt`` (no nested statements)."""
        out = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                out.append(child)
        return out

    def _scan_expr(
        self,
        expr: ast.expr,
        self_name: str,
        method: str,
        in_init: bool,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            attr = _self_attr(func.value, self_name)
            if attr is not None and func.attr in MUTATING_METHODS:
                self._record(
                    attr, node, "mutate", locks, method, in_init, in_job
                )
            helper = _self_attr(func, self_name)
            if (
                helper is not None
                and helper.endswith("_locked")
                and not locks
                and not in_init
            ):
                self._record(
                    helper, node, "locked_call", locks, method, in_init,
                    in_job,
                )

    def _record_target(
        self,
        target: ast.AST,
        stmt: ast.stmt,
        self_name: str,
        method: str,
        in_init: bool,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        attr = _self_attr(target, self_name)
        if attr is not None:
            self._record(attr, stmt, "assign", locks, method, in_init, in_job)
            return
        self._record_subscript(
            target, stmt, self_name, method, in_init, locks, in_job
        )
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_target(
                    elt, stmt, self_name, method, in_init, locks, in_job
                )

    def _record_subscript(
        self,
        target: ast.AST,
        stmt: ast.stmt,
        self_name: str,
        method: str,
        in_init: bool,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        """``self.d[k] = v`` mutates the container held in ``self.d``."""
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value, self_name)
            if attr is not None:
                self._record(
                    attr, stmt, "mutate", locks, method, in_init, in_job
                )

    def _record_rmw(
        self,
        stmt: ast.Assign,
        self_name: str,
        method: str,
        locks: FrozenSet[str],
        in_job: bool,
    ) -> None:
        """``self.x = self.x + 1`` is a compound read-modify-write too."""
        for target in stmt.targets:
            attr = _self_attr(target, self_name)
            if attr is None:
                continue
            for node in ast.walk(stmt.value):
                if _self_attr(node, self_name) == attr:
                    self._record(
                        attr, stmt, "rmw", locks, method, False, in_job
                    )
                    return


def _collect_lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """First pass: every ``self.<attr> = threading.Lock()`` in any method."""
    locks: Set[str] = set()
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = item.args.posonlyargs + item.args.args
        self_name = args[0].arg if args else "self"
        for node in ast.walk(item):
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                for target in node.targets:
                    attr = _self_attr(target, self_name)
                    if attr is not None:
                        locks.add(attr)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and _is_lock_ctor(node.value)
            ):
                attr = _self_attr(node.target, self_name)
                if attr is not None:
                    locks.add(attr)
    return locks


def build_module_model(tree: ast.AST) -> ModuleModel:
    """Analyze one parsed module into a :class:`ModuleModel`."""
    model = ModuleModel()

    # Pass 1: parallel entry points and the names of their job callables.
    job_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_entry_point(node):
            model.entry_points.append(node)
            job_names.update(_callable_names(node))
            # Lambdas passed inline are job bodies too.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    model.job_functions.append(arg)

    # Pass 2: resolve job names to function definitions.
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in job_names
        ):
            model.job_functions.append(node)

    # Pass 3: per-class lock discipline.
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls_model = ClassModel(name=node.name, node=node)
        cls_model.lock_attrs = _collect_lock_attrs(node)
        visitor = _ClassVisitor(cls_model, job_names)
        visitor.visit_ClassDef(node)
        model.classes.append(cls_model)
    return model


def job_function_nodes(model: ModuleModel) -> List[Tuple[ast.AST, Set[int]]]:
    """Job functions paired with the line numbers their bodies span.

    Used by DET001 to decide whether a call site executes on a worker
    thread without re-walking the tree per call.
    """
    out = []
    for fn in model.job_functions:
        linenos = {
            n.lineno for n in ast.walk(fn) if hasattr(n, "lineno")
        }
        out.append((fn, linenos))
    return out
