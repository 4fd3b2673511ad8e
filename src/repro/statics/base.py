"""Shared plumbing of the static-analysis suite: files, findings, pragmas.

Checkers operate on a :class:`Project` -- a root directory holding a
``repro``-shaped source tree (in production ``src/repro`` itself; in the
self-tests a temporary copy with a seeded mutation).  They emit
:class:`Finding` records; :func:`apply_pragmas` then folds in the per-line
``# statics: allow[rule] -- reason`` suppressions and reports pragma hygiene
problems (missing reason, pragma that suppresses nothing) as findings of
their own.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path

#: One-line documentation per rule, surfaced by ``--list-rules`` and docs.
RULE_DOCS: dict[str, str] = {
    "wall-clock": (
        "wall-clock read (time.time, datetime.now, ...) in a "
        "deterministic-critical module"
    ),
    "unseeded-rng": (
        "RNG constructed or drawn without an explicit seed "
        "(np.random.default_rng(), np.random.*, random.*)"
    ),
    "identity-hash": (
        "builtin hash()/id() in a deterministic-critical module: values are "
        "process-unstable and must never feed persisted or cache-key data"
    ),
    "set-order": (
        "iteration over an unordered set where the order can escape into "
        "results (wrap in sorted(...) or suppress with a reason)"
    ),
    "pickle-contract": (
        "lambda/closure/local class handed to process-pool submission; "
        "fails only at pickle time when actually dispatched"
    ),
    "parse-error": "source file failed to parse",
    "bad-pragma": "malformed statics pragma (the reason after `--` is required)",
    "unused-pragma": "statics pragma that suppresses no finding on its line",
}

#: Rules that govern pragma hygiene itself; never suppressible by pragma.
_META_RULES = ("parse-error", "bad-pragma", "unused-pragma")

#: Paths (relative to the project root) that are deterministic-critical:
#: every simulation/result-producing code path must replay bit-identically.
DETERMINISM_CRITICAL: tuple[str, ...] = (
    "gpu",
    "core",
    "experiments/sweep.py",
    "testing/faults.py",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    file: str
    line: int
    message: str
    suppressed: bool = False
    reason: str | None = None

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.file}:{self.line}: [{self.rule}]{tag} {self.message}"

    def to_payload(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# statics: allow[...] -- reason`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


#: ``allow[rule-a,rule-b] -- reason``; the reason is validated separately so
#: a missing one can be reported precisely.
_PRAGMA_RE = re.compile(r"#\s*statics:\s*(.*)$")
_ALLOW_RE = re.compile(r"^allow\[([^\]]*)\]\s*(?:--\s*(\S.*))?$")


class SourceFile:
    """One parsed source file: text, AST, and its statics pragmas."""

    def __init__(self, rel: str, path: Path) -> None:
        self.rel = rel
        self.path = path
        self.text = path.read_text()
        self.lines = self.text.splitlines()
        self._tree: ast.Module | None = None
        self.parse_error: Finding | None = None
        self.pragmas: dict[int, Pragma] = {}
        self.pragma_findings: list[Finding] = []
        self._scan_pragmas()

    @property
    def tree(self) -> ast.Module | None:
        if self._tree is None and self.parse_error is None:
            try:
                self._tree = ast.parse(self.text)
            except SyntaxError as exc:
                self.parse_error = Finding(
                    "parse-error", self.rel, exc.lineno or 1, str(exc.msg)
                )
        return self._tree

    def _iter_comments(self):
        """(line, comment text) pairs -- real comments only, via tokenize,
        so pragma-shaped text inside strings and docstrings never counts."""
        reader = io.StringIO(self.text).readline
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # unparseable files surface as parse-error findings

    def _scan_pragmas(self) -> None:
        for number, comment in self._iter_comments():
            match = _PRAGMA_RE.search(comment)
            if match is None:
                continue
            allow = _ALLOW_RE.match(match.group(1).strip())
            if allow is None:
                self.pragma_findings.append(Finding(
                    "bad-pragma", self.rel, number,
                    "expected `# statics: allow[rule] -- reason`",
                ))
                continue
            rules = tuple(
                rule.strip() for rule in allow.group(1).split(",") if rule.strip()
            )
            reason = (allow.group(2) or "").strip()
            if not rules:
                self.pragma_findings.append(Finding(
                    "bad-pragma", self.rel, number,
                    "pragma names no rule inside allow[...]",
                ))
                continue
            unknown = [rule for rule in rules if rule not in RULE_DOCS]
            if unknown:
                self.pragma_findings.append(Finding(
                    "bad-pragma", self.rel, number,
                    f"pragma names unknown rule(s) {unknown}",
                ))
                continue
            if not reason:
                self.pragma_findings.append(Finding(
                    "bad-pragma", self.rel, number,
                    f"pragma for {list(rules)} is missing its `-- reason`",
                ))
                continue
            self.pragmas[number] = Pragma(number, rules, reason)


class Project:
    """A ``repro``-shaped source tree under one root directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._cache: dict[str, SourceFile] = {}

    def file(self, rel: str) -> SourceFile:
        cached = self._cache.get(rel)
        if cached is None:
            cached = SourceFile(rel, self.root / rel)
            self._cache[rel] = cached
        return cached

    def iter_files(self, rel_paths: tuple[str, ...] | None = None) -> list[SourceFile]:
        """Source files under the given roots (default: the whole project)."""
        found: list[SourceFile] = []
        for rel in rel_paths if rel_paths is not None else ("",):
            target = self.root / rel if rel else self.root
            if target.is_file():
                found.append(self.file(rel))
                continue
            if not target.is_dir():
                continue
            for path in sorted(target.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                found.append(self.file(str(path.relative_to(self.root))))
        return found


def default_project() -> Project:
    """The installed ``repro`` package itself (``src/repro``)."""
    return Project(Path(__file__).resolve().parent.parent)


def apply_pragmas(
    project: Project, findings: list[Finding]
) -> tuple[list[Finding], list[Finding]]:
    """Fold pragma suppressions into raw findings.

    Returns ``(active, suppressed)``: ``active`` contains every unsuppressed
    finding plus pragma-hygiene findings (malformed pragmas, pragmas that
    suppressed nothing); ``suppressed`` the findings a pragma silenced, each
    stamped with the pragma's reason.  Only files the checkers actually
    loaded are consulted, so fixture projects stay cheap.
    """
    active: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[tuple[str, int]] = set()
    for finding in findings:
        pragma = None
        if finding.rule not in _META_RULES and finding.file in project._cache:
            pragma = project._cache[finding.file].pragmas.get(finding.line)
        if pragma is not None and finding.rule in pragma.rules:
            used.add((finding.file, pragma.line))
            suppressed.append(
                replace(finding, suppressed=True, reason=pragma.reason)
            )
        else:
            active.append(finding)
    for rel, source in sorted(project._cache.items()):
        active.extend(source.pragma_findings)
        for line, pragma in sorted(source.pragmas.items()):
            if (rel, line) not in used:
                active.append(Finding(
                    "unused-pragma", rel, line,
                    f"pragma allow[{','.join(pragma.rules)}] suppresses no "
                    "finding on this line",
                ))
    return active, suppressed


# --------------------------------------------------------------------- #
# Small AST helpers shared by the checkers.
# --------------------------------------------------------------------- #
def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> imported dotted path, from a module's import statements."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases

