"""Cross-process contracts: payloads must survive pickling.

Everything a sweep hands to a worker pool -- the callable submitted and the
job payloads -- crosses a process boundary through pickle.
Lambdas, closures over local state and locally-defined classes all pickle
only by *reference to a module-level name they do not have*, so today they
fail at dispatch time, deep inside the pool machinery, with an error that
names none of the offending source.  This checker flags them at the call
site instead:

* a ``lambda`` anywhere inside the arguments of a pool-submission call
  (``pool.submit``, ``executor.map``, ``apply_async``, ``Process(target=...)``)
  or a job-payload construction (``ProfileJob``/``KernelSpec``);
* a reference to a function or class *defined inside the enclosing function*
  (a closure or local class) passed the same way.

Module-level functions and classes are fine -- that is the contract the
sweep's ``_execute_job_guarded`` already honours.
"""

from __future__ import annotations

import ast

from .base import Finding, Project, dotted_name

#: Attribute calls that dispatch their first argument to another process.
_SUBMIT_METHODS = frozenset({"submit", "apply_async", "apply"})
#: ``map``-style attribute calls; gated on a pool/executor-like receiver to
#: keep builtin-alike ``.map`` methods out of scope.
_MAP_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap"})
#: Constructors whose arguments ship across process boundaries.
_PAYLOAD_CTORS = ("Process", "ProfileJob", "KernelSpec")


def _pool_like(receiver: ast.expr) -> bool:
    name = dotted_name(receiver)
    if name is None:
        return False
    tail = name.split(".")[-1].lower()
    return "pool" in tail or "executor" in tail


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: list[Finding] = []
        #: Names def-ed or class-ed inside the enclosing function scopes.
        self._local_defs: list[set[str]] = []

    # ----- scope tracking ------------------------------------------------
    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._local_defs:
            self._local_defs[-1].add(node.name)
        self._local_defs.append(set())
        self.generic_visit(node)
        self._local_defs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._local_defs:
            self._local_defs[-1].add(node.name)
        # A class body is not a closure scope; defs inside it are methods.
        self._local_defs.append(set())
        self.generic_visit(node)
        self._local_defs.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._local_defs.append(set())
        self.generic_visit(node)
        self._local_defs.pop()

    def _is_local_def(self, name: str) -> bool:
        return any(name in scope for scope in self._local_defs)

    # ----- payload inspection --------------------------------------------
    def _audit_payload(self, expr: ast.expr, context: str) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                self.findings.append(Finding(
                    "pickle-contract", self.rel, node.lineno,
                    f"lambda handed to {context}; it cannot be pickled "
                    "across the process boundary -- use a module-level "
                    "function",
                ))
            elif isinstance(node, ast.Name) and self._is_local_def(node.id):
                self.findings.append(Finding(
                    "pickle-contract", self.rel, node.lineno,
                    f"locally-defined `{node.id}` handed to {context}; "
                    "closures and local classes cannot be pickled across "
                    "the process boundary -- hoist it to module level",
                ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        context: str | None = None
        payloads: list[ast.expr] = []
        if isinstance(func, ast.Attribute):
            if func.attr in _SUBMIT_METHODS or (
                func.attr in _MAP_METHODS and _pool_like(func.value)
            ):
                context = f".{func.attr}(...)"
                payloads = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
        name = dotted_name(func)
        if context is None and name is not None:
            tail = name.split(".")[-1]
            if tail in _PAYLOAD_CTORS:
                context = f"{tail}(...)"
                payloads = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
        if context is not None:
            for payload in payloads:
                self._audit_payload(payload, context)
        self.generic_visit(node)


def check_contracts(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for source in project.iter_files():
        tree = source.tree
        if tree is None:
            if source.parse_error is not None:
                findings.append(source.parse_error)
            continue
        visitor = _Visitor(source.rel)
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return findings
