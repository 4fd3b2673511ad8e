"""Engine selection, the provider chain and compiled-core plumbing.

Covers the fastcore resolution rules (explicit argument > ``REPRO_ENGINE``
env var > auto, which is ``compiled``), the provider chain (``numba`` ->
``cc`` -> ``python``, simulated by patching out the Numba import probe and
the C loader), the rejection of removed engine names, provider values and
keyword arguments, the one-time self-check failure path (single warning,
the next provider wins), the generated C provider (its translator's subset
checks, its build cache key, its loud failure when a compiler cannot build
it), the ``BackendConfig`` engine validation, and the ``relax_span``
zero/negative-duration contract.
"""

from __future__ import annotations

import os
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import _fastcore_c, _fastcore_cc, fastcore
from repro.gpu import _fastcore_kernels as K
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import mi300x_spec
from repro.gpu.thermal import ThermalModel, ThermalSpec
from repro.kernels.workloads import cb_gemm

SPEC = mi300x_spec()


@pytest.fixture()
def clean_fastcore(monkeypatch):
    """Reset the cached provider resolution around each test."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_FASTCORE_PROVIDER", raising=False)
    fastcore._reset_for_tests()
    yield monkeypatch
    fastcore._reset_for_tests()


def patch_out_numba_and_cc(monkeypatch):
    """Make the numba and cc providers unloadable, as on a bare host."""
    load = fastcore._load_provider
    monkeypatch.setattr(fastcore, "_numba_importable", lambda: False)
    monkeypatch.setattr(
        fastcore,
        "_load_provider",
        lambda name: (None, "cc: patched out") if name == "cc" else load(name),
    )


# --------------------------------------------------------------------- #
# Engine resolution precedence.
# --------------------------------------------------------------------- #
class TestResolveEngine:
    def test_explicit_engine_wins(self, clean_fastcore):
        assert fastcore.resolve_engine("compiled") == "compiled"
        assert fastcore.resolve_engine("reference") == "reference"

    def test_vectorized_engine_rejected(self, clean_fastcore):
        assert fastcore.VALID_ENGINES == ("compiled", "reference")
        with pytest.raises(ValueError, match="'compiled' and 'reference'"):
            fastcore.resolve_engine("vectorized")
        with pytest.raises(ValueError, match="'compiled' and 'reference'"):
            BackendConfig(engine="vectorized").validate()
        clean_fastcore.setenv("REPRO_ENGINE", "vectorized")
        with pytest.raises(ValueError, match="'compiled' and 'reference'"):
            SimulatedGPU(SPEC, seed=1)

    def test_engine_and_vectorized_together_raise(self, clean_fastcore):
        with pytest.raises(TypeError):
            fastcore.resolve_engine("compiled", vectorized=True)

    def test_unknown_engine_lists_valid_engines(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*reference"):
            fastcore.resolve_engine("turbo")

    def test_env_var_overrides_auto(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine() == "reference"
        clean_fastcore.setenv("REPRO_ENGINE", "compiled")
        assert fastcore.resolve_engine() == "compiled"

    def test_env_var_invalid_value_raises(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "warp-speed")
        with pytest.raises(ValueError, match="warp-speed"):
            fastcore.resolve_engine()

    def test_explicit_argument_beats_env_var(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine("compiled") == "compiled"

    def test_auto_prefers_compiled_when_available(self, clean_fastcore):
        assert fastcore.resolve_engine() == "compiled"
        assert fastcore.provider_name() in ("numba", "cc", "python")


# --------------------------------------------------------------------- #
# The provider chain.
# --------------------------------------------------------------------- #
class TestProviderFallback:
    def test_unknown_provider_rejected(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "none")
        with pytest.raises(ValueError, match="'none'.*'numba', 'cc', 'python'"):
            fastcore.kernels()
        with pytest.raises(ValueError, match="'none'"):
            SimulatedGPU(SPEC, seed=1, engine="compiled")

    def test_numba_absent_auto_skips_to_next_provider(self, clean_fastcore):
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        assert fastcore.kernels().name != "numba"

    def test_numba_provider_requested_but_absent(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        # A pinned provider never silently becomes another one.
        with pytest.raises(RuntimeError, match="numba: not importable"):
            fastcore.kernels()
        with pytest.raises(RuntimeError, match="numba: not importable"):
            SimulatedDeviceBackend(
                spec=SPEC, seed=2, config=BackendConfig(engine="compiled")
            )

    def test_device_construction_survives_missing_provider(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        # The reference engine needs no kernels at all.
        device = SimulatedGPU(SPEC, seed=1, engine="reference")
        device.idle(1e-3)
        assert device.now_s() == pytest.approx(1e-3)

    def test_backend_auto_resolves_to_python_provider(self, clean_fastcore):
        patch_out_numba_and_cc(clean_fastcore)
        with warnings.catch_warnings():
            # An absent provider is not a failure: no warning.
            warnings.simplefilter("error")
            assert fastcore.kernels().name == "python"
        backend = SimulatedDeviceBackend(spec=SPEC, seed=2, config=BackendConfig())
        assert backend.device.engine == "compiled"
        assert fastcore.provider_name() == "python"
        record = backend.run(cb_gemm(1024), executions=4, pre_delay_s=0.0)
        assert len(record.executions) == 4


# --------------------------------------------------------------------- #
# Self-check failure path.
# --------------------------------------------------------------------- #
class TestSelfCheckFailure:
    def test_failed_self_check_warns_once_and_falls_back(self, clean_fastcore):
        # Every provider of the chain loads (as the pure bodies, under its
        # own name); all but the last fail their self-check.
        python_bundle, _ = fastcore._load_provider("python")
        clean_fastcore.setattr(
            fastcore,
            "_load_provider",
            lambda name: (
                fastcore.KernelBundle(
                    name, python_bundle.idle, python_bundle.execute,
                    python_bundle.sequence, python_bundle.bind_run,
                    python_bundle.window, python_bundle.match, python_bundle.durations,
                ),
                None,
            ),
        )
        clean_fastcore.setattr(
            fastcore,
            "self_check",
            lambda bundle: None if bundle.name == "python" else "injected mismatch",
        )
        with pytest.warns(RuntimeWarning, match="self-check.*trying the next provider"):
            assert fastcore.kernels().name == "python"
        # The resolution is cached: no second warning, no second self-check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.kernels().name == "python"

    def test_failed_self_check_of_last_provider_says_none_left(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        clean_fastcore.setattr(fastcore, "self_check", lambda bundle: "injected mismatch")
        with pytest.warns(RuntimeWarning, match="self-check.*no provider left"):
            with pytest.raises(RuntimeError, match="injected mismatch"):
                fastcore.kernels()

    def test_self_check_catches_a_corrupted_provider(self, clean_fastcore):
        bundle = fastcore.kernels()

        def corrupted_idle(st, pp, duration, record, seg, ev, lens):
            rc = bundle.idle(st, pp, duration, record, seg, ev, lens)
            st[1] += 1e-9  # a one-ulp-scale warmth nudge must be caught
            return rc

        corrupted = fastcore.KernelBundle(
            "corrupted", corrupted_idle, bundle.execute, bundle.sequence, bundle.bind_run,
            bundle.window, bundle.match, bundle.durations,
        )
        failure = fastcore.self_check(corrupted)
        assert failure is not None and "mismatch" in failure

    def test_self_check_covers_the_bound_run_call(self, clean_fastcore):
        bundle = fastcore.kernels()

        def reversed_times(*arrays):
            call = bundle.bind_run(*arrays)

            def corrupted():
                rc, times = call()
                return rc, times[::-1].copy()

            return corrupted

        corrupted = fastcore.KernelBundle(
            "corrupted", bundle.idle, bundle.execute, bundle.sequence, reversed_times,
            bundle.window, bundle.match, bundle.durations,
        )
        assert fastcore.self_check(corrupted) == "self-check mismatch in 'run_times'"

    def test_self_check_passes_for_active_provider(self, clean_fastcore):
        assert fastcore.self_check(fastcore.kernels()) is None


# --------------------------------------------------------------------- #
# The C provider, generated from the kernel bodies.
# --------------------------------------------------------------------- #
needs_cc = pytest.mark.skipif(
    _fastcore_cc.find_compiler() is None, reason="no C compiler on this host"
)


class TestCProvider:
    @needs_cc
    @pytest.mark.skipif(K.HAVE_NUMBA, reason="Numba is installed and wins auto")
    def test_auto_resolves_cc_with_a_compiler_and_no_numba(self, clean_fastcore):
        # Guards against silently losing the compiled C tier.
        assert fastcore.kernels().name == "cc"

    def test_failed_c_build_warns_once_and_falls_back(self, clean_fastcore, tmp_path):
        broken = tmp_path / "broken-cc"
        broken.write_text("#!/bin/sh\nexit 1\n")
        broken.chmod(0o755)
        clean_fastcore.setenv("CC", str(broken))
        clean_fastcore.setenv("REPRO_FASTCORE_CACHE", str(tmp_path / "cache"))
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        with pytest.warns(RuntimeWarning, match="'cc' failed to build") as caught:
            assert fastcore.provider_name() == "python"
        assert [w.category for w in caught] == [RuntimeWarning]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.provider_name() == "python"

    def test_no_compiler_falls_back_silently(self, clean_fastcore):
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        clean_fastcore.setattr(_fastcore_cc, "find_compiler", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.provider_name() == "python"

    def test_library_key_covers_compiler_and_flags(self, clean_fastcore):
        gcc = _fastcore_cc.library_path("/usr/bin/gcc")
        clang = _fastcore_cc.library_path("/usr/bin/clang")
        assert gcc != clang
        assert gcc == _fastcore_cc.library_path("/usr/bin/gcc")
        clean_fastcore.setattr(_fastcore_cc, "_CFLAGS", (*_fastcore_cc._CFLAGS, "-g"))
        assert _fastcore_cc.library_path("/usr/bin/gcc") != gcc

    @needs_cc
    def test_warm_start_never_translates(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "cc")
        built = fastcore.kernels().lib_path
        fastcore._reset_for_tests()

        def refuse(source):
            raise AssertionError("a cached library must load without translating")

        clean_fastcore.setattr(_fastcore_c, "translate", refuse)
        assert fastcore.kernels().name == "cc"
        assert fastcore.kernels().lib_path == built
        assert os.path.exists(built)


class TestTranslator:
    @staticmethod
    def kernel(*body: str, params: str = "st, record") -> str:
        # Line 1 is the constant, line 3 the def, body lines start at line 4.
        lines = "".join(f"    {line}\n" for line in body)
        return f"C = 1\n\ndef k_probe({params}):\n{lines}    return 0\n"

    @pytest.mark.parametrize(
        "statement, complaint",
        [
            ("st[0] = record % 2", "unsupported operator Mod"),
            ("st[0] = [1.0, 2.0]", "unsupported expression List"),
            ("st[0] = float(record) if record else len(st)", "unsupported call len"),
        ],
    )
    def test_unsupported_construct_names_kernel_and_line(self, statement, complaint):
        source = self.kernel("st[1] = 0.0", statement)
        with pytest.raises(_fastcore_c.TranslationError, match=rf"k_probe\(\) line 5: {complaint}"):
            _fastcore_c.translate(source)

    def test_unknown_parameter_names_kernel_and_line(self):
        source = self.kernel("st[0] = 1.0", params="st, mystery")
        with pytest.raises(
            _fastcore_c.TranslationError, match=r"k_probe\(\) line 3: parameter 'mystery'"
        ):
            _fastcore_c.translate(source)

    def test_max_and_min_keep_python_tie_and_nan_order(self):
        source = self.kernel(
            "st[0] = max(now, power)", "st[1] = min(now, power)",
            params="st, now, power",
        )
        c = _fastcore_c.translate(source)
        assert "st[0] = ((power > now) ? power : now);" in c
        assert "st[1] = ((power < now) ? power : now);" in c
        assert "fmax" not in c and "fmin" not in c

    def test_kernels_module_translates_with_every_function(self):
        c = _fastcore_c.translate(Path(K.__file__).read_text())
        for name in ("fw_transition", "idle_core", "run_core"):
            assert f"static long {name}(" in c
        assert "\nlong k_run(" in c

    def test_right_shift_takes_integers_only(self):
        source = self.kernel(
            "st[0] = (record + 3) >> 1", "st[1] = now >> 1", params="st, record, now"
        )
        with pytest.raises(
            _fastcore_c.TranslationError, match=r"k_probe\(\) line 5: unsupported operator RShift"
        ):
            _fastcore_c.translate(source)
        c = _fastcore_c.translate(self.kernel("st[0] = (record + 3) >> 1", params="st, record"))
        assert "st[0] = ((record + 3) >> 1);" in c

    def test_a_name_defined_by_two_modules_is_rejected(self):
        first = self.kernel("st[0] = 1.0")
        with pytest.raises(_fastcore_c.TranslationError, match="'C' is defined twice"):
            _fastcore_c.translate(first, "C = 2\n")
        with pytest.raises(_fastcore_c.TranslationError, match="'k_probe' is defined twice"):
            _fastcore_c.translate(first, first.replace("C = 1", "D = 1"))

    def test_library_key_covers_both_body_modules(self, clean_fastcore, tmp_path):
        gcc = _fastcore_cc.library_path("/usr/bin/gcc")
        copies = []
        for body in _fastcore_cc._BODIES:
            copy = tmp_path / body.name
            copy.write_text(body.read_text())
            copies.append(copy)
        clean_fastcore.setattr(_fastcore_cc, "_BODIES", tuple(copies))
        assert _fastcore_cc.library_path("/usr/bin/gcc") == gcc
        copies[1].write_text(copies[1].read_text() + "\n")
        assert _fastcore_cc.library_path("/usr/bin/gcc") != gcc

    @needs_cc
    def test_translation_compiles_without_warnings(self, tmp_path):
        c = _fastcore_c.translate(*(body.read_text() for body in _fastcore_cc._BODIES))
        assert "\nlong k_window(double *held, long held_cap, int64_t *held_index," in c
        assert "\nlong k_match(int64_t *ticks, long ticks_cap," in c
        # Caps only where a body reads X.shape[0] or passes X on to one that
        # does; the exported entry points keep every cap they had.
        assert "static long sample_core(double *pp, double *rp, double *seg, int64_t *lens," in c
        assert (
            "long k_run(double *st, double *pp, double *rp, double *descs, double *seqs, "
            "double *caches, double *variates, double *seg, long seg_cap, double *ev, "
            "long ev_cap, int64_t *lens, double *exec_rows, double *cpu_starts, "
            "double *cpu_ends, double *smp, long smp_cap, double *out)"
        ) in c
        source = tmp_path / "fastcore.c"
        source.write_text(c)
        result = subprocess.run(
            [
                _fastcore_cc.find_compiler(), *_fastcore_cc._CFLAGS,
                "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "fastcore.so"), str(source),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


# --------------------------------------------------------------------- #
# The python provider (uncompiled kernel bodies) stays in lockstep.
# --------------------------------------------------------------------- #
class TestPythonProvider:
    def test_python_provider_runs_the_device(self, clean_fastcore):
        short = cb_gemm(1024).activity_descriptor(SPEC)

        def drive():
            device = SimulatedGPU(SPEC, seed=7, engine="compiled")
            device.start_recording()
            device.idle(1.2e-3)
            device.execute_kernel(short)
            device.idle(9e-3)
            device.execute_kernel(short)
            return device, device.stop_recording()

        auto, auto_segments = drive()
        fastcore._reset_for_tests()
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        assert fastcore.kernels().name == "python"
        python, python_segments = drive()
        assert python._fc.name == "python"
        assert np.array_equal(python_segments.starts_s, auto_segments.starts_s)
        assert np.array_equal(python_segments.powers, auto_segments.powers)
        assert python.executions() == auto.executions()
        assert python.now_s() == auto.now_s()


# --------------------------------------------------------------------- #
# BackendConfig engine validation.
# --------------------------------------------------------------------- #
class TestBackendConfigEngine:
    def test_unknown_engine_rejected_with_valid_list(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*reference"):
            BackendConfig(engine="hyperspeed").validate()

    def test_engine_and_vectorized_both_set_rejected(self, clean_fastcore):
        with pytest.raises(TypeError, match="vectorized"):
            BackendConfig(vectorized=True)
        with pytest.raises(TypeError, match="vectorized"):
            BackendConfig(engine="compiled", vectorized=True)

    def test_direct_device_resolves_auto(self, clean_fastcore):
        assert SimulatedGPU(SPEC, seed=1).engine == "compiled"
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert SimulatedGPU(SPEC, seed=1).engine == "reference"
        with pytest.raises(TypeError, match="vectorized"):
            SimulatedGPU(SPEC, seed=1, vectorized=True)

    def test_auto_accepted_as_explicit_engine_string(self, clean_fastcore):
        config = BackendConfig(engine="auto")
        config.validate()
        assert config.resolved_engine() == "compiled"


# --------------------------------------------------------------------- #
# relax_span contract (satellite bugfix).
# --------------------------------------------------------------------- #
class TestRelaxSpan:
    def test_negative_duration_raises(self):
        model = ThermalModel(ThermalSpec(initial_warmth=0.4))
        with pytest.raises(ValueError, match="negative"):
            model.relax_span(-1e-9, active=False)

    def test_zero_duration_is_a_noop(self):
        model = ThermalModel(ThermalSpec(initial_warmth=0.4))
        assert model.relax_span(0.0, active=True) == 0.4
        assert model.warmth == 0.4
        assert model.relax_span(0.0, active=False) == 0.4
        assert model.warmth == 0.4

    def test_matches_step_for_positive_durations(self):
        spanned = ThermalModel(ThermalSpec(initial_warmth=0.25))
        stepped = ThermalModel(ThermalSpec(initial_warmth=0.25))
        for duration, active in ((1e-4, True), (3.7e-3, False), (0.5e-3, True)):
            assert spanned.relax_span(duration, active) == stepped.step(duration, active)

    def test_compiled_idle_kernel_treats_zero_span_as_noop(self, clean_fastcore):
        bundle = fastcore.kernels()
        st, pp, _, _ = fastcore._scenario_params()
        st[K.S_WARMTH] = 0.37
        seg = np.zeros((8, 5))
        ev = np.zeros((8, 4))
        lens = np.zeros(2, dtype=np.int64)
        rc = bundle.idle(st, pp, 0.0, 1, seg, ev, lens)
        assert rc == 0
        assert st[K.S_WARMTH] == 0.37
        assert st[K.S_NOW] == 0.0
        assert int(lens[0]) == 0 and int(lens[1]) == 0
