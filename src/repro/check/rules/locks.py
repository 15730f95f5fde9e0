"""RACE001 — lock discipline for shared mutable state.

Applies to any class that creates a lock in ``__init__`` (that is the
class's own declaration that it is shared across threads).  Every
attribute that is initialized in ``__init__`` and mutated in some
other method is treated as lock-guarded state; each touch of such an
attribute must then be either

* inside a ``with self.<lock>:`` block, or
* in a method whose first statement is ``assert_held(self.<lock>)``
  (or ``self.<lock>.assert_held()``) — the statically-recognized
  marker for the "caller holds the lock" convention, which the
  runtime :class:`repro.locks.ContractLock` verifies when
  ``REPRO_CONTRACT_LOCKS`` is set.

Attributes that are themselves synchronization primitives
(``Event``, ``Queue``, ``Thread``, the lock itself) are exempt, as
are attributes never mutated outside ``__init__`` (immutable
configuration).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..config import CheckConfig
from ..context import Module, call_name
from ..registry import register_rule

RULE = "RACE001"

_INIT_METHODS = ("__init__", "__post_init__")

#: constructor names whose product is a lock attribute
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "Lock",
        "RLock",
        "Condition",
        "contract_lock",
        "ContractLock",
    }
)

#: constructor names whose product is internally synchronized (or
#: thread-confined by convention) — exempt from guarding
_THREADSAFE_FACTORIES = frozenset(
    {
        "threading.Event",
        "threading.Thread",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "Event",
        "Thread",
        "queue.Queue",
        "queue.SimpleQueue",
        "Queue",
        "SimpleQueue",
    }
)

#: method calls that mutate their receiver in place
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

_HINT = (
    "wrap the access in 'with self.<lock>:', or open the method with "
    "assert_held(self.<lock>) if the caller holds it"
)


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _body_after_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _is_contracted(
    method: ast.FunctionDef, locks: Set[str]
) -> Optional[str]:
    """The lock name a leading assert_held() marker claims, if any."""
    body = _body_after_docstring(method.body)
    if not body or not isinstance(body[0], ast.Expr):
        return None
    call = body[0].value
    if not isinstance(call, ast.Call):
        return None
    name = call_name(call)
    if name == "assert_held" and call.args:
        attr = _self_attr(call.args[0])
        if attr in locks:
            return attr
    for lock in locks:
        if name == f"self.{lock}.assert_held":
            return lock
    return None


@register_rule(
    RULE,
    title="shared state touched outside its lock",
    rationale=(
        "a class that creates a lock promises every cross-thread "
        "mutation happens under it; unguarded touches are data races"
    ),
)
class LockRule:
    def check(self, module: Module, config: CheckConfig) -> List:
        findings: List = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    # -- per-class analysis ---------------------------------------------
    def _check_class(
        self, module: Module, cls: ast.ClassDef
    ) -> List:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ]
        inits = [m for m in methods if m.name in _INIT_METHODS]
        if not inits:
            return []
        locks: Set[str] = set()
        init_attrs: Set[str] = set()
        exempt: Set[str] = set()
        for init in inits:
            for stmt in ast.walk(init):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                    value = stmt.value
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                ):
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    init_attrs.add(attr)
                    if isinstance(value, ast.Call):
                        factory = call_name(value)
                        if factory in _LOCK_FACTORIES:
                            locks.add(attr)
                        elif factory in _THREADSAFE_FACTORIES:
                            exempt.add(attr)
        if not locks:
            return []
        exempt |= locks

        others = [m for m in methods if m.name not in _INIT_METHODS]
        mutated = self._mutated_attrs(others, init_attrs - exempt)
        if not mutated:
            return []

        findings: List = []
        for method in others:
            held = _is_contracted(method, locks)
            if held is not None:
                continue
            seen: Set[Tuple[str, int]] = set()
            for touch, attr in self._touches(method, mutated):
                if self._guarded(module, touch, locks):
                    continue
                key = (attr, getattr(touch, "lineno", 0))
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    module.finding(
                        RULE,
                        touch,
                        f"{cls.name}.{method.name} touches shared "
                        f"attribute self.{attr} outside "
                        f"{'/'.join(sorted(locks))}",
                        _HINT,
                    )
                )
        return findings

    def _mutated_attrs(
        self, methods: List, candidates: Set[str]
    ) -> Set[str]:
        mutated: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = self._store_attr(target)
                        if attr in candidates:
                            mutated.add(attr)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        attr = self._store_attr(target)
                        if attr in candidates:
                            mutated.add(attr)
                elif isinstance(node, ast.Call):
                    name = call_name(node)
                    parts = name.split(".")
                    if (
                        len(parts) == 3
                        and parts[0] == "self"
                        and parts[2] in _MUTATORS
                        and parts[1] in candidates
                    ):
                        mutated.add(parts[1])
        return mutated

    def _store_attr(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            return None
        return _self_attr(target)

    def _touches(self, method, mutated: Set[str]):
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute):
                attr = _self_attr(node)
                if attr in mutated:
                    yield node, attr

    def _guarded(
        self, module: Module, node: ast.AST, locks: Set[str]
    ) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    attr = _self_attr(item.context_expr)
                    if attr in locks:
                        return True
            elif isinstance(ancestor, ast.ClassDef):
                break
        return False
