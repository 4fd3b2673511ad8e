"""Static analysis gating the repo's determinism and process-pool invariants.

Every headline result of this reproduction rests on invariants that the test
suite can only enforce *dynamically*: the engine matrix is pinned bit-identical
by equivalence tests, the compiled providers by a runtime self-check.  This
package enforces what it can at *analysis time* -- before any test runs --
with two AST-based checker families (stdlib ``ast`` only, no third-party
parsers).  No checker keeps hand-written copies in sync: the sweep cache key
hashes the very configs ``execute_job`` runs (``ProfileJob.configs``), and
the C provider is generated from the kernel bodies (``gpu/_fastcore_c.py``).

``determinism`` (:mod:`repro.statics.determinism`)
    In the declared deterministic-critical modules (``gpu/``, ``core/``,
    ``experiments/sweep.py``, ``testing/faults.py``): wall-clock reads,
    unseeded RNG construction, builtin ``hash()``/``id()`` (process-unstable
    values that must never feed persisted or cache-key data), and iteration
    over unordered sets where the order can escape into results.

``contracts`` (:mod:`repro.statics.contracts`)
    Detects lambdas, closures and local classes handed to process-pool
    submission -- payloads that only fail at pickle time today.

Findings are suppressible per line with a pragma that *requires* a reason::

    cutoff = time.time() - STALE_S  # statics: allow[wall-clock] -- GC cutoff

Run ``python -m repro.statics`` (``--json`` for the machine format); the repo
must come out clean.  See ``docs/statics.md`` for the rule catalogue.
"""

from .base import Finding, Project, RULE_DOCS
from .cli import main, run_all

__all__ = ["Finding", "Project", "RULE_DOCS", "main", "run_all"]
