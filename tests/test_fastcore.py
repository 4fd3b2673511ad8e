"""Engine-selection matrix, provider fallbacks and compiled-core plumbing.

Covers the fastcore resolution rules (explicit argument > ``REPRO_ENGINE``
env var > auto), graceful fallback when no compiled provider is available
(simulated by pinning ``REPRO_FASTCORE_PROVIDER=none`` / patching out the
Numba import probe), the one-time self-check failure path (single warning,
auto falls back to vectorized), the ``BackendConfig`` engine validation and
deprecation shim, and the ``relax_span`` zero/negative-duration contract.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.gpu import fastcore
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


# --------------------------------------------------------------------- #
# Engine resolution precedence.
# --------------------------------------------------------------------- #
class TestResolveEngine:
    def test_explicit_engine_wins(self, clean_fastcore):
        assert fastcore.resolve_engine("vectorized") == "vectorized"
        assert fastcore.resolve_engine("reference") == "reference"

    def test_vectorized_shim_maps_to_engines(self, clean_fastcore):
        assert fastcore.resolve_engine(None, True) == "vectorized"
        assert fastcore.resolve_engine(None, False) == "reference"

    def test_engine_and_vectorized_together_raise(self, clean_fastcore):
        with pytest.raises(ValueError, match="not both"):
            fastcore.resolve_engine("vectorized", True)

    def test_unknown_engine_lists_valid_engines(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*vectorized.*reference"):
            fastcore.resolve_engine("turbo")

    def test_env_var_overrides_auto(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine() == "reference"
        clean_fastcore.setenv("REPRO_ENGINE", "vectorized")
        assert fastcore.resolve_engine() == "vectorized"

    def test_env_var_invalid_value_raises(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "warp-speed")
        with pytest.raises(ValueError, match="warp-speed"):
            fastcore.resolve_engine()

    def test_explicit_argument_beats_env_var(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine("vectorized") == "vectorized"

    def test_auto_prefers_compiled_when_available(self, clean_fastcore):
        if not fastcore.available():
            pytest.skip("no compiled-kernel provider in this environment")
        assert fastcore.resolve_engine() == "compiled"
        assert fastcore.provider_name() in ("numba", "cc")


# --------------------------------------------------------------------- #
# Provider-absent fallback.
# --------------------------------------------------------------------- #
class TestProviderFallback:
    def test_provider_none_disables_compiled_tier(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "none")
        assert fastcore.kernels() is None
        assert not fastcore.available()
        # Auto selection falls back silently -- no warning for a merely
        # absent provider.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.resolve_engine() == "vectorized"

    def test_numba_absent_auto_skips_to_next_provider(self, clean_fastcore):
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        bundle = fastcore.kernels()
        # Whatever auto resolves to, it must not claim the numba provider.
        assert bundle is None or bundle.name != "numba"

    def test_numba_provider_requested_but_absent(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        assert fastcore.kernels() is None
        assert fastcore.resolve_engine() == "vectorized"

    def test_explicit_compiled_unavailable_warns_once(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "none")
        with pytest.warns(RuntimeWarning, match="falling back to the vectorized"):
            assert fastcore.resolve_engine("compiled") == "vectorized"
        # Second request: silent (the warning is one-time).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.resolve_engine("compiled") == "vectorized"

    def test_device_construction_survives_missing_provider(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "none")
        with pytest.warns(RuntimeWarning):
            device = SimulatedGPU(SPEC, seed=1, engine="compiled")
        assert device.engine == "vectorized"
        device.idle(1e-3)
        assert device.now_s() == pytest.approx(1e-3)

    def test_backend_auto_resolves_to_vectorized(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "none")
        backend = SimulatedDeviceBackend(spec=SPEC, seed=2, config=BackendConfig())
        assert backend.device.engine == "vectorized"


# --------------------------------------------------------------------- #
# Self-check failure path.
# --------------------------------------------------------------------- #
class TestSelfCheckFailure:
    def test_failed_self_check_warns_once_and_falls_back(self, clean_fastcore):
        if fastcore.provider_request() == "none":
            pytest.skip("provider explicitly disabled")
        clean_fastcore.setattr(
            fastcore, "self_check", lambda bundle: "injected mismatch"
        )
        with pytest.warns(RuntimeWarning, match="failed its self-check"):
            assert fastcore.kernels() is None
        assert fastcore.resolve_engine() == "vectorized"
        # The resolution is cached: no second warning, no second self-check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.kernels() is None

    def test_self_check_catches_a_corrupted_provider(self, clean_fastcore):
        bundle = fastcore.kernels()
        if bundle is None:
            pytest.skip("no compiled-kernel provider in this environment")

        def corrupted_idle(st, pp, duration, record, seg, ev, lens):
            rc = bundle.idle(st, pp, duration, record, seg, ev, lens)
            st[1] += 1e-9  # a one-ulp-scale warmth nudge must be caught
            return rc

        corrupted = fastcore.KernelBundle(
            "corrupted", corrupted_idle, bundle.execute, bundle.sequence, bundle.run
        )
        failure = fastcore.self_check(corrupted)
        assert failure is not None and "mismatch" in failure

    def test_self_check_passes_for_active_provider(self, clean_fastcore):
        bundle = fastcore.kernels()
        if bundle is None:
            pytest.skip("no compiled-kernel provider in this environment")
        assert fastcore.self_check(bundle) is None


# --------------------------------------------------------------------- #
# The python provider (uncompiled kernel bodies) stays in lockstep.
# --------------------------------------------------------------------- #
class TestPythonProvider:
    def test_python_provider_runs_the_device(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        bundle = fastcore.kernels()
        assert bundle is not None and bundle.name == "python"
        compiled = SimulatedGPU(SPEC, seed=7, engine="compiled")
        vectorized = SimulatedGPU(SPEC, seed=7, engine="vectorized")
        short = cb_gemm(1024).activity_descriptor(SPEC)
        for device in (compiled, vectorized):
            device.start_recording()
            device.idle(1.2e-3)
            device.execute_kernel(short)
            device.idle(9e-3)
            device.execute_kernel(short)
        a = compiled.stop_recording()
        b = vectorized.stop_recording()
        assert np.array_equal(a.starts_s, b.starts_s)
        assert np.array_equal(a.powers, b.powers)
        assert compiled.executions() == vectorized.executions()
        assert compiled.now_s() == vectorized.now_s()


# --------------------------------------------------------------------- #
# BackendConfig engine validation + deprecation shim.
# --------------------------------------------------------------------- #
class TestBackendConfigEngine:
    def test_unknown_engine_rejected_with_valid_list(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*vectorized.*reference"):
            BackendConfig(engine="hyperspeed").validate()

    def test_engine_and_vectorized_both_set_rejected(self, clean_fastcore):
        with pytest.raises(ValueError, match="not both"):
            BackendConfig(engine="vectorized", vectorized=True).validate()

    def test_vectorized_shim_still_pins_engines(self, clean_fastcore):
        assert BackendConfig(vectorized=True).resolved_engine() == "vectorized"
        assert BackendConfig(vectorized=False).resolved_engine() == "reference"

    def test_legacy_boolean_constructor_path_still_works(self, clean_fastcore):
        backend = SimulatedDeviceBackend(
            spec=SPEC, seed=3, config=BackendConfig(vectorized=False)
        )
        assert backend.device.engine == "reference"
        assert not backend.device.vectorized

    def test_direct_device_vectorized_flag_never_auto_selects(self, clean_fastcore):
        # Pre-engine constructor callers must keep their exact engine.
        assert SimulatedGPU(SPEC, seed=1, vectorized=True).engine == "vectorized"
        assert SimulatedGPU(SPEC, seed=1, vectorized=False).engine == "reference"

    def test_auto_accepted_as_explicit_engine_string(self, clean_fastcore):
        config = BackendConfig(engine="auto")
        config.validate()
        assert config.resolved_engine() in ("compiled", "vectorized")


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
        if bundle is None:
            pytest.skip("no compiled-kernel provider in this environment")
        from repro.gpu import _fastcore_kernels as K

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
