"""Determinism lint over the deterministic-critical modules.

The critical scope (:data:`repro.statics.base.DETERMINISM_CRITICAL`) is the
code whose outputs are pinned bit-identical by the equivalence suites and the
sweep cache: the simulated device and engines (``gpu/``), the methodology
core (``core/``) and the sweep engine (``experiments/sweep.py``).  Inside
it, four things are flagged:

``wall-clock``
    Reads of the wall clock (``time.time``, ``datetime.now``, ...).  Monotonic
    *duration* measurement (``time.perf_counter``, ``time.monotonic``) is
    deliberately not flagged: elapsed-seconds observability never feeds
    results.  Absolute timestamps that do have a legitimate operational use
    (manifest stamps, mtime-based GC) carry a pragma explaining why.

``unseeded-rng``
    RNG construction or draws with no explicit seed: ``np.random.default_rng()``
    without arguments, the legacy ``np.random.*`` module-level draw/seed
    functions (global hidden state), and the stdlib ``random`` module's
    global functions.  Seeded construction (``default_rng(seed)``) is fine.

``identity-hash``
    Builtin ``hash()`` / ``id()`` calls.  Both are process-unstable (string
    hash randomisation; allocator-dependent ids), so neither may ever feed
    persisted or cache-key data.  Legitimate in-memory identity caches carry
    a pragma saying the value never escapes the process.

``set-order``
    Iteration over unordered sets (or materialising one into an ordered
    container) where the order could escape into results.  ``sorted(...)``
    over a set is always fine.
"""

from __future__ import annotations

import ast

from .base import (
    DETERMINISM_CRITICAL,
    Finding,
    Project,
    SourceFile,
    dotted_name,
    import_aliases,
)

#: Fully-qualified wall-clock reads (after import-alias resolution).
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: numpy.random attributes that are fine to touch (seeded-constructor API).
_NP_RANDOM_OK = frozenset({"Generator", "SeedSequence", "BitGenerator", "PCG64",
                           "PCG64DXSM", "Philox", "SFC64", "MT19937"})

#: numpy.random constructors that are fine *with* a seed argument only.
_NP_RANDOM_CTORS = frozenset({"default_rng", "RandomState"})

#: stdlib ``random`` global-state functions (always nondeterministic).
_STDLIB_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})


def _resolve(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The called name with its root import alias expanded."""
    name = dotted_name(call.func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    expanded = aliases.get(root)
    if expanded is None:
        return name
    return f"{expanded}.{rest}" if rest else expanded


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile, aliases: dict[str, str]) -> None:
        self.source = source
        self.aliases = aliases
        self.findings: list[Finding] = []

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule, self.source.rel, node.lineno, message))

    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        resolved = _resolve(node, self.aliases)
        if resolved is None:
            return
        if resolved in WALL_CLOCK_CALLS:
            self._flag(
                "wall-clock", node,
                f"wall-clock read `{resolved}()` in a deterministic-critical "
                "module",
            )
            return
        if resolved in ("hash", "id"):
            self._flag(
                "identity-hash", node,
                f"builtin `{resolved}()` is process-unstable and must never "
                "feed persisted or cache-key data",
            )
            return
        parts = resolved.split(".")
        if len(parts) >= 2 and parts[0] == "numpy" and parts[1] == "random":
            attr = parts[2] if len(parts) > 2 else ""
            if attr in _NP_RANDOM_CTORS:
                if not node.args and not node.keywords:
                    self._flag(
                        "unseeded-rng", node,
                        f"`{resolved}()` without a seed draws entropy from "
                        "the OS; pass an explicit seed",
                    )
            elif attr and attr not in _NP_RANDOM_OK:
                self._flag(
                    "unseeded-rng", node,
                    f"legacy `{resolved}()` uses numpy's hidden global RNG "
                    "state; use a seeded np.random.default_rng(seed)",
                )
            return
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in _STDLIB_RANDOM or parts[1] == "SystemRandom":
                self._flag(
                    "unseeded-rng", node,
                    f"`{resolved}()` uses the stdlib's global (or OS) RNG "
                    "state; use a seeded np.random.default_rng(seed)",
                )
            elif parts[1] == "Random" and not node.args and not node.keywords:
                self._flag(
                    "unseeded-rng", node,
                    "`random.Random()` without a seed; pass one explicitly",
                )

    # ------------------------------------------------------------------ #
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._flag(
                "set-order", node.iter,
                "iteration over an unordered set; wrap in sorted(...) if the "
                "order can reach results",
            )
        self.generic_visit(node)

    def _check_ordering_call(self, node: ast.Call) -> None:
        func = node.func
        candidates: list[ast.expr] = []
        if isinstance(func, ast.Name) and func.id in (
            "list", "tuple", "enumerate", "iter",
        ):
            candidates = node.args[:1]
        elif isinstance(func, ast.Name) and func.id == "map":
            candidates = node.args[1:]
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            candidates = node.args[:1]
        for arg in candidates:
            if _is_set_expr(arg):
                self._flag(
                    "set-order", arg,
                    "an unordered set is materialised into an ordered "
                    "container; wrap in sorted(...) if the order can reach "
                    "results",
                )

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_ordering_call(node)
        super().generic_visit(node)


def check_determinism(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for source in project.iter_files(DETERMINISM_CRITICAL):
        tree = source.tree
        if tree is None:
            if source.parse_error is not None:
                findings.append(source.parse_error)
            continue
        visitor = _Visitor(source, import_aliases(tree))
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return findings
