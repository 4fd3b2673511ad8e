"""Engine parity: the compiled kernel sources cannot drift unnoticed.

The compiled tier rests on a transcription discipline: ``gpu/_fastcore_kernels.py``
is the single njit-able transcription of the device hot loops, and
``gpu/_fastcore_cc.py`` mirrors it line for line in C.  The runtime self-check
(docs/engines.md) catches value drift by executing both sides -- but only at
runtime, only on the trajectories it drives, and only in environments where a
provider actually loads.  This checker pins the *sources* at analysis time:

``kernel-parity``
    Every kernel body named by ``gpu/fastcore.py``'s ``_KERNEL_CHAIN`` is
    digested after normalisation (decorators, annotations and docstrings
    stripped -- the parts that may legitimately differ between the njit and
    plain-Python views of the same body) and compared against the recorded
    manifest ``statics/parity_manifest.json``.  Editing a kernel therefore
    requires the deliberate, reviewable act of regenerating the manifest with
    ``python -m repro.statics update-parity`` -- the same machine-checkable
    record discipline the sweep cache applies to results.

``c-parity``
    The hand-mirrored C source is diffed structurally against its Python
    twins, without compiling anything: every ``#define`` layout/state constant
    must equal the Python module-level constant of the same name (and vice
    versa); each paired function must use the same *set* of float literals
    (clamp bounds, epsilons, floors -- the values that drift when one side is
    edited alone; the C if-clamp spelling of Python's ``min(max(...))`` keeps
    literal order from being comparable, so sets, not sequences); and every
    Python kernel parameter must appear in the C signature (C adds explicit
    ``*_cap`` capacities that numpy shapes carry implicitly).
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import re
from pathlib import Path

from .base import Finding, Project, find_function

_KERNELS = "gpu/_fastcore_kernels.py"
_CC = "gpu/_fastcore_cc.py"
_FASTCORE = "gpu/fastcore.py"

#: Manifest path relative to the project root (travels with tree copies).
MANIFEST_REL = "statics/parity_manifest.json"

#: Python kernel -> C function.  Every body mirrors under its own name (the
#: ``fc_*`` entry points, like the ``k_*`` ones, only reset the counters).
C_PAIRS: dict[str, str] = {
    "fw_transition": "fw_transition",
    "fw_step": "fw_step",
    "fw_arrival": "fw_arrival",
    "control_boundary": "control_boundary",
    "idle_core": "idle_core",
    "execute_core": "execute_core",
    "sequence_core": "sequence_core",
    "sample_core": "sample_core",
    "run_core": "run_core",
}

#: Module-level constant prefixes shared between the Python and C layouts.
_CONST_PREFIXES = ("S_", "P_", "FW_", "R_", "Q_", "O_")
#: Python-only length constants (C indexes raw pointers; no length defines).
_PY_ONLY_CONSTANTS = frozenset({"STATE_LEN", "PARAM_LEN"})


# --------------------------------------------------------------------- #
# Python side: normalised kernel digests.
# --------------------------------------------------------------------- #
def normalized_digest(func: ast.FunctionDef) -> str:
    """sha256 of the body modulo decorators, annotations and docstring."""
    node = copy.deepcopy(func)
    node.decorator_list = []
    node.returns = None
    for arg in (
        *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
        *([node.args.vararg] if node.args.vararg else []),
        *([node.args.kwarg] if node.args.kwarg else []),
    ):
        arg.annotation = None
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        node.body = body[1:] or [ast.Pass()]
    dump = ast.dump(node, include_attributes=False)
    return hashlib.sha256(dump.encode()).hexdigest()


def _kernel_chain(project: Project, findings: list[Finding]) -> tuple[str, ...] | None:
    """The audited kernel names, read from ``_KERNEL_CHAIN`` in fastcore.py."""
    if not project.exists(_FASTCORE):
        findings.append(Finding(
            "kernel-parity", _FASTCORE, 1, "gpu/fastcore.py is missing"
        ))
        return None
    source = project.file(_FASTCORE)
    tree = source.tree
    if tree is None:
        if source.parse_error is not None:
            findings.append(source.parse_error)
        return None
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "_KERNEL_CHAIN"):
            continue
        if isinstance(node.value, ast.Tuple) and all(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in node.value.elts
        ):
            return tuple(element.value for element in node.value.elts)
        findings.append(Finding(
            "kernel-parity", _FASTCORE, node.lineno,
            "_KERNEL_CHAIN is no longer a literal tuple of kernel names; the "
            "parity checker cannot enumerate the audited kernels",
        ))
        return None
    findings.append(Finding(
        "kernel-parity", _FASTCORE, 1,
        "_KERNEL_CHAIN not found in gpu/fastcore.py",
    ))
    return None


def kernel_digests(project: Project) -> tuple[dict[str, str], list[Finding]]:
    """Normalised digest per audited kernel (plus structural findings)."""
    findings: list[Finding] = []
    chain = _kernel_chain(project, findings)
    if chain is None:
        return {}, findings
    if not project.exists(_KERNELS):
        findings.append(Finding(
            "kernel-parity", _KERNELS, 1, "gpu/_fastcore_kernels.py is missing"
        ))
        return {}, findings
    source = project.file(_KERNELS)
    tree = source.tree
    if tree is None:
        if source.parse_error is not None:
            findings.append(source.parse_error)
        return {}, findings
    digests: dict[str, str] = {}
    for name in chain:
        func = find_function(tree, name)
        if func is None:
            findings.append(Finding(
                "kernel-parity", _KERNELS, 1,
                f"kernel {name}() named by _KERNEL_CHAIN does not exist",
            ))
            continue
        digests[name] = normalized_digest(func)
    return digests, findings


def manifest_path(project: Project) -> Path:
    return project.root / MANIFEST_REL


def write_manifest(project: Project) -> Path:
    """Record the current kernel digests (``update-parity``)."""
    digests, findings = kernel_digests(project)
    if findings:
        rendered = "; ".join(finding.render() for finding in findings)
        raise RuntimeError(f"cannot record parity manifest: {rendered}")
    path = manifest_path(project)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": 1, "kernels": dict(sorted(digests.items()))}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _check_manifest(project: Project) -> list[Finding]:
    digests, findings = kernel_digests(project)
    if findings:
        return findings
    path = manifest_path(project)
    if not path.is_file():
        return [Finding(
            "kernel-parity", MANIFEST_REL, 1,
            "parity manifest missing; run `python -m repro.statics "
            "update-parity` to record the trusted kernel digests",
        )]
    try:
        recorded = json.loads(path.read_text())["kernels"]
    except (ValueError, KeyError, TypeError):
        return [Finding(
            "kernel-parity", MANIFEST_REL, 1,
            "parity manifest is unreadable; regenerate it with "
            "`python -m repro.statics update-parity`",
        )]
    tree = project.file(_KERNELS).tree
    assert tree is not None  # kernel_digests already parsed it
    for name in sorted(set(digests) | set(recorded)):
        if name not in recorded:
            findings.append(Finding(
                "kernel-parity", MANIFEST_REL, 1,
                f"kernel {name}() has no recorded digest; run "
                "`python -m repro.statics update-parity`",
            ))
        elif name not in digests:
            findings.append(Finding(
                "kernel-parity", MANIFEST_REL, 1,
                f"manifest records digest for {name}(), which is no longer "
                "an audited kernel; run `python -m repro.statics update-parity`",
            ))
        elif digests[name] != recorded[name]:
            func = find_function(tree, name)
            findings.append(Finding(
                "kernel-parity", _KERNELS, func.lineno if func else 1,
                f"{name}() body drifted from the recorded parity manifest; "
                "if the change is deliberate, update the C mirror and run "
                "`python -m repro.statics update-parity`",
            ))
    return findings


# --------------------------------------------------------------------- #
# C side: structural diff against the Python twins.
# --------------------------------------------------------------------- #
_C_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)
_C_DEFINE_RE = re.compile(r"^#define\s+(\w+)\s+(-?\d+)\s*$", re.MULTILINE)
_C_FUNC_RE = re.compile(r"(?:static\s+)?int\s+(\w+)\s*\(")
#: A C floating literal: has a decimal point and/or an exponent.
_C_FLOAT_RE = re.compile(
    r"(?<![\w.])(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+)(?![\w.])"
)


def _extract_c_source(tree: ast.Module) -> str | None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_C_SOURCE"
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.value.value
    return None


def _c_functions(source: str) -> dict[str, tuple[str, str]]:
    """C function name -> (parameter text, body text), comments stripped."""
    functions: dict[str, tuple[str, str]] = {}
    for match in _C_FUNC_RE.finditer(source):
        name = match.group(1)
        cursor = match.end() - 1  # at the opening parenthesis
        depth = 0
        param_end = None
        for index in range(cursor, len(source)):
            if source[index] == "(":
                depth += 1
            elif source[index] == ")":
                depth -= 1
                if depth == 0:
                    param_end = index
                    break
        if param_end is None:
            continue
        params = source[cursor + 1:param_end]
        brace = source.find("{", param_end)
        if brace < 0:
            continue
        depth = 0
        body_end = None
        for index in range(brace, len(source)):
            if source[index] == "{":
                depth += 1
            elif source[index] == "}":
                depth -= 1
                if depth == 0:
                    body_end = index
                    break
        if body_end is None:
            continue
        functions[name] = (params, source[brace + 1:body_end])
    return functions


def _c_param_names(params: str) -> set[str]:
    names: set[str] = set()
    for declaration in params.split(","):
        match = re.search(r"(\w+)\s*$", declaration.strip())
        if match:
            names.add(match.group(1))
    return names


def _py_module_constants(tree: ast.Module) -> dict[str, int]:
    """Module-level integer constants with the shared layout prefixes."""
    constants: dict[str, int] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        name = target.id
        if not name.startswith(_CONST_PREFIXES) and name not in _PY_ONLY_CONSTANTS:
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, int):
            constants[name] = node.value.value
    return constants


def _py_float_literals(func: ast.FunctionDef) -> set[float]:
    values: set[float] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            values.add(node.value)
    return values


def _c_float_literals(body: str) -> set[float]:
    return {float(token) for token in _C_FLOAT_RE.findall(body)}


def _py_param_names(func: ast.FunctionDef) -> set[str]:
    return {arg.arg for arg in (*func.args.posonlyargs, *func.args.args)}


def _check_c_parity(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for rel in (_KERNELS, _CC):
        if not project.exists(rel):
            findings.append(Finding("c-parity", rel, 1, f"{rel} is missing"))
            return findings
    kernels_tree = project.file(_KERNELS).tree
    cc_source_file = project.file(_CC)
    cc_tree = cc_source_file.tree
    for source in (project.file(_KERNELS), cc_source_file):
        if source.tree is None and source.parse_error is not None:
            findings.append(source.parse_error)
    if kernels_tree is None or cc_tree is None:
        return findings

    c_source = _extract_c_source(cc_tree)
    if c_source is None:
        findings.append(Finding(
            "c-parity", _CC, 1,
            "_C_SOURCE string literal not found; the C mirror cannot be audited",
        ))
        return findings
    c_source = _C_COMMENT_RE.sub(" ", c_source)

    # ---- layout/state constants: #define vs module-level Python ints. ----
    defines = {name: int(value) for name, value in _C_DEFINE_RE.findall(c_source)}
    constants = _py_module_constants(kernels_tree)
    for name in sorted(set(defines) | set(constants)):
        if name in _PY_ONLY_CONSTANTS:
            continue
        if name not in defines:
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"Python constant {name} = {constants[name]} has no C "
                "#define twin",
            ))
        elif name not in constants:
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"C #define {name} {defines[name]} has no Python constant twin",
            ))
        elif defines[name] != constants[name]:
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"constant {name} drifted: C #define says {defines[name]}, "
                f"Python says {constants[name]}",
            ))

    # ---- paired functions: signatures and float-literal sets. -----------
    c_functions = _c_functions(c_source)
    for py_name, c_name in C_PAIRS.items():
        func = find_function(kernels_tree, py_name)
        if func is None:
            findings.append(Finding(
                "c-parity", _KERNELS, 1,
                f"paired kernel {py_name}() not found in _fastcore_kernels",
            ))
            continue
        if c_name not in c_functions:
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"C twin {c_name}() of {py_name}() not found in _C_SOURCE",
            ))
            continue
        params, body = c_functions[c_name]
        missing_params = _py_param_names(func) - _c_param_names(params)
        if missing_params:
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"{c_name}() is missing Python parameter(s) "
                f"{sorted(missing_params)} of {py_name}()",
            ))
        py_floats = _py_float_literals(func)
        c_floats = _c_float_literals(body)
        if py_floats != c_floats:
            only_py = sorted(py_floats - c_floats)
            only_c = sorted(c_floats - py_floats)
            detail = []
            if only_py:
                detail.append(f"only in Python: {only_py}")
            if only_c:
                detail.append(f"only in C: {only_c}")
            findings.append(Finding(
                "c-parity", _CC, 1,
                f"float constants of {py_name}()/{c_name}() drifted "
                f"({'; '.join(detail)})",
            ))
    return findings


def check_parity(project: Project) -> list[Finding]:
    return _check_manifest(project) + _check_c_parity(project)
