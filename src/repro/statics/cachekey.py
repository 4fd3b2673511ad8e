"""Cache-key completeness: every config field is keyed or exempted.

The sweep cache (``experiments/sweep.py``) keys results by a sha256 over the
repr of the job payload: ``job_key`` takes ``asdict(job)``, pops the identity
fields, and hashes ``{_CACHE_SCHEMA}:{sorted(payload.items())!r}``.  That
design has one failure mode the test suite cannot see: someone adds a field
to one of the config dataclasses that *changes results* but never reaches the
key, and warm caches silently serve stale rows.

This checker closes the loop by static cross-reference:

* ``ProfileJob`` fields are keyed automatically (``asdict``), so every field
  ``payload.pop(...)`` removes must carry an exemption here, and every
  exemption must match a popped field.
* ``ProfilerConfig`` / ``BackendConfig`` fields are keyed only if
  ``execute_job`` threads a ``job.<attr>`` into the ``make_profiler`` /
  ``make_backend`` parameter that ``experiments/common.py`` feeds into that
  config field.  Fields that are *not* threaded must be exempted -- typically
  because ``make_*`` pins them at their defaults, in which case changing the
  default requires a ``_CACHE_SCHEMA`` bump (the exemption reason says so).
* ``SweepConfig`` fields never reach ``execute_job`` at all (fault-model
  scheduling knobs), so each needs an explicit exemption saying why it cannot
  affect a job's payload.

A field that is keyed *and* exempted raises ``stale-exemption`` (the record
no longer matches the code), as does an exemption naming a field that no
longer exists.  If the key construction itself stops looking like the shape
described above, the checker refuses to guess and raises ``key-structure``.

New exemptions are added to :data:`EXEMPTIONS` with a reason -- the point is
that excluding a field from the key is a recorded, reviewable act.
"""

from __future__ import annotations

import ast

from .base import Finding, Project, dataclass_fields, dotted_name, find_function

#: Class -> field -> why this field may stay out of the cache key.
EXEMPTIONS: dict[str, dict[str, str]] = {
    "ProfileJob": {
        "job_id": (
            "identity/labelling only; two jobs with different ids but equal "
            "payloads are the same computation and must share a cache row"
        ),
    },
    "SweepConfig": {
        "job_timeout_s": (
            "fault-model knob: decides when a hung job is killed, never what "
            "a completed job computed"
        ),
        "max_retries": (
            "fault-model knob: bounds re-dispatch of failed jobs; a retried "
            "job re-executes the identical payload"
        ),
        "backoff_base_s": (
            "retry scheduling only; backoff timing cannot reach the result "
            "payload"
        ),
        "backoff_cap_s": (
            "retry scheduling only; backoff timing cannot reach the result "
            "payload"
        ),
        "max_pool_rebuilds": (
            "supervision bound on pool reconstruction; affects whether a job "
            "completes, never its value"
        ),
    },
    "ProfilerConfig": {
        "runs": (
            "per-call override: profiler.profile(kernel, runs=job.runs) "
            "passes runs explicitly and job.runs is keyed via the payload"
        ),
        "binning_margin": (
            "pinned at its default (follow Table I) by make_profiler; "
            "changing the default requires a _CACHE_SCHEMA bump"
        ),
        "max_random_delay_periods": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "calibration_samples": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "timing_executions": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "components": (
            "pinned at its default (all components) by make_profiler; "
            "changing the default requires a _CACHE_SCHEMA bump"
        ),
        "warmup_tolerance": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "refine_ssp_with_power_search": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "ssp_tail_fraction": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "min_ssp_tail_executions": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "max_ssp_tail_executions": (
            "pinned at its default by make_profiler; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "convergence_rtol": (
            "adaptive-stopping knob pinned at its default by make_profiler "
            "(only the keyed 'adaptive' switch varies under the sweep); "
            "changing the default requires a _CACHE_SCHEMA bump"
        ),
        "min_runs": (
            "adaptive-stopping knob pinned at its default by make_profiler "
            "(only the keyed 'adaptive' switch varies under the sweep); "
            "changing the default requires a _CACHE_SCHEMA bump"
        ),
        "checkpoint_every": (
            "adaptive-stopping knob pinned at its default by make_profiler "
            "(only the keyed 'adaptive' switch varies under the sweep); "
            "changing the default requires a _CACHE_SCHEMA bump"
        ),
    },
    "BackendConfig": {
        "pre_padding_periods": (
            "pinned at its default by make_backend; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "post_padding_periods": (
            "pinned at its default by make_backend; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "park_s": (
            "pinned at its default by make_backend; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "reading_noise": (
            "pinned at its default by make_backend; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "instantaneous_period_s": (
            "pinned at its default by make_backend; changing the default "
            "requires a _CACHE_SCHEMA bump"
        ),
        "engine": (
            "engine selection only: all time-advance engines are pinned "
            "bit-identical by the equivalence tests and the compiled "
            "self-check"
        ),
    },
}

_SWEEP = "experiments/sweep.py"
_COMMON = "experiments/common.py"
_PROFILER = "core/profiler.py"
_BACKEND = "gpu/backend.py"


def _references(expr: ast.expr, name: str) -> bool:
    """Does ``expr`` read the plain name ``name`` anywhere (incl. ``name.x``)?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _parse_job_key(
    tree: ast.Module, rel: str, findings: list[Finding]
) -> set[str] | None:
    """The field names ``job_key`` pops out of the asdict payload.

    Returns None (after recording a ``key-structure`` finding) when the
    function no longer has the asdict/pop/sorted-repr shape this checker
    understands.
    """
    func = find_function(tree, "job_key")
    if func is None:
        findings.append(Finding(
            "key-structure", rel, 1, "job_key() not found in experiments/sweep.py"
        ))
        return None

    payload_var: str | None = None
    popped: set[str] = set()
    saw_schema = False
    saw_sorted_items = False
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and dotted_name(node.value.func) == "asdict"
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            payload_var = node.targets[0].id
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr == "pop"
                and payload_var is not None
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == payload_var
            ):
                if (
                    len(node.args) >= 1
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    popped.add(node.args[0].value)
                else:
                    findings.append(Finding(
                        "key-structure", rel, node.lineno,
                        "payload.pop(...) with a non-literal field name; the "
                        "completeness check cannot track it",
                    ))
                    return None
        if isinstance(node, ast.Name) and node.id == "_CACHE_SCHEMA":
            saw_schema = True
        if (
            isinstance(node, ast.Call)
            and dotted_name(node.func) == "sorted"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute)
            and node.args[0].func.attr == "items"
        ):
            saw_sorted_items = True

    problems = []
    if payload_var is None:
        problems.append("no `payload = asdict(job)` assignment")
    if not saw_schema:
        problems.append("the hash input no longer mentions _CACHE_SCHEMA")
    if not saw_sorted_items:
        problems.append("the hash input no longer sorts payload.items()")
    if problems:
        findings.append(Finding(
            "key-structure", rel, func.lineno,
            "job_key() drifted from the audited shape: " + "; ".join(problems),
        ))
        return None
    return popped


def _threaded_params(
    tree: ast.Module, rel: str, maker: str, findings: list[Finding],
    common_tree: ast.Module,
) -> set[str] | None:
    """``make_*`` parameters that ``execute_job`` binds from a ``job.<attr>``."""
    func = find_function(tree, "execute_job")
    if func is None:
        findings.append(Finding(
            "key-structure", rel, 1, "execute_job() not found in experiments/sweep.py"
        ))
        return None
    maker_def = find_function(common_tree, maker)
    if maker_def is None:
        findings.append(Finding(
            "key-structure", rel, 1, f"{maker}() not found in experiments/common.py"
        ))
        return None
    param_names = [arg.arg for arg in maker_def.args.args]

    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and dotted_name(node.func) == maker):
            continue
        threaded: set[str] = set()
        for index, arg in enumerate(node.args):
            if index < len(param_names) and _references(arg, "job"):
                threaded.add(param_names[index])
        for keyword in node.keywords:
            if keyword.arg is None:
                findings.append(Finding(
                    "key-structure", rel, node.lineno,
                    f"{maker}(**kwargs) call; the completeness check cannot "
                    "track which job fields are threaded",
                ))
                return None
            if _references(keyword.value, "job"):
                threaded.add(keyword.arg)
        return threaded
    findings.append(Finding(
        "key-structure", rel, func.lineno,
        f"execute_job() no longer calls {maker}()",
    ))
    return None


def _config_feeds(
    common_tree: ast.Module, rel: str, maker: str, config_class: str,
    findings: list[Finding],
) -> dict[str, str] | None:
    """Config field -> ``make_*`` parameter feeding it, from common.py."""
    maker_def = find_function(common_tree, maker)
    if maker_def is None:
        return None  # already reported by _threaded_params
    params = {arg.arg for arg in maker_def.args.args}
    for node in ast.walk(maker_def):
        if not (
            isinstance(node, ast.Call) and dotted_name(node.func) == config_class
        ):
            continue
        if node.args:
            findings.append(Finding(
                "key-structure", rel, node.lineno,
                f"{config_class}(...) built with positional arguments; the "
                "completeness check needs keyword construction",
            ))
            return None
        feeds: dict[str, str] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                findings.append(Finding(
                    "key-structure", rel, node.lineno,
                    f"{config_class}(**kwargs) construction; the completeness "
                    "check cannot track it",
                ))
                return None
            for param in params:
                if _references(keyword.value, param):
                    feeds[keyword.arg] = param
                    break
        return feeds
    findings.append(Finding(
        "key-structure", rel, maker_def.lineno,
        f"{maker}() no longer constructs {config_class}(...)",
    ))
    return None


def _audit_class(
    class_name: str, fields: dict[str, int], keyed: set[str], rel: str,
    findings: list[Finding],
) -> None:
    exempt = EXEMPTIONS.get(class_name, {})
    for name, line in sorted(fields.items()):
        if name in keyed and name in exempt:
            findings.append(Finding(
                "stale-exemption", rel, line,
                f"{class_name}.{name} is threaded into the cache key but "
                "still carries an exemption; drop it from "
                "repro.statics.cachekey.EXEMPTIONS",
            ))
        elif name not in keyed and name not in exempt:
            findings.append(Finding(
                "cache-key", rel, line,
                f"{class_name}.{name} never reaches the sweep cache key; "
                "thread it through the key payload or record an exemption "
                "with a reason in repro.statics.cachekey.EXEMPTIONS",
            ))
    for name in sorted(exempt):
        if name not in fields:
            findings.append(Finding(
                "stale-exemption", rel, 1,
                f"exemption for {class_name}.{name} names a field that no "
                "longer exists",
            ))


def check_cache_key(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    trees: dict[str, ast.Module] = {}
    for rel in (_SWEEP, _COMMON, _PROFILER, _BACKEND):
        if not project.exists(rel):
            findings.append(Finding(
                "key-structure", rel, 1,
                f"expected source file {rel} is missing",
            ))
            return findings
        source = project.file(rel)
        tree = source.tree
        if tree is None:
            if source.parse_error is not None:
                findings.append(source.parse_error)
            return findings
        trees[rel] = tree

    # --- ProfileJob: asdict() keys everything except the popped fields. ---
    popped = _parse_job_key(trees[_SWEEP], _SWEEP, findings)
    job_fields = dataclass_fields(trees[_SWEEP], "ProfileJob")
    if job_fields is None:
        findings.append(Finding(
            "key-structure", _SWEEP, 1, "ProfileJob dataclass not found"
        ))
    elif popped is not None:
        keyed = set(job_fields) - popped
        unknown_pops = popped - set(job_fields)
        for name in sorted(unknown_pops):
            findings.append(Finding(
                "key-structure", _SWEEP, 1,
                f"job_key() pops {name!r}, which is not a ProfileJob field",
            ))
        _audit_class("ProfileJob", job_fields, keyed, _SWEEP, findings)

    # --- SweepConfig: fault-model only; nothing is keyed. -----------------
    sweep_fields = dataclass_fields(trees[_SWEEP], "SweepConfig")
    if sweep_fields is None:
        findings.append(Finding(
            "key-structure", _SWEEP, 1, "SweepConfig dataclass not found"
        ))
    else:
        _audit_class("SweepConfig", sweep_fields, set(), _SWEEP, findings)

    # --- ProfilerConfig / BackendConfig: keyed iff threaded end-to-end. ---
    for maker, config_class, rel in (
        ("make_profiler", "ProfilerConfig", _PROFILER),
        ("make_backend", "BackendConfig", _BACKEND),
    ):
        threaded = _threaded_params(
            trees[_SWEEP], _SWEEP, maker, findings, trees[_COMMON]
        )
        feeds = _config_feeds(
            trees[_COMMON], _COMMON, maker, config_class, findings
        )
        fields = dataclass_fields(trees[rel], config_class)
        if fields is None:
            findings.append(Finding(
                "key-structure", rel, 1, f"{config_class} dataclass not found"
            ))
            continue
        if threaded is None or feeds is None:
            continue
        keyed = {
            field for field, param in feeds.items() if param in threaded
        }
        _audit_class(config_class, fields, keyed, rel, findings)

    return findings
