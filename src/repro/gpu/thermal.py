"""Thermal / electrical settling model.

Power on a real GPU depends on voltage, frequency *and temperature* (paper
Section IV-A, solution S4).  As a die heats up under sustained load its
leakage rises and the voltage regulators settle, so dynamic power measured a
few milliseconds into a burst of executions is slightly higher than during the
very first executions.  FinGraV's SSP profile captures that settled state.

We model a single scalar *warmth* in [0, 1] with first-order dynamics:

* while a kernel is resident, warmth relaxes toward 1 with time constant
  ``heat_tau_s``;
* while idle, it relaxes toward 0 with the slower ``cool_tau_s``.

The power model (:class:`repro.gpu.power_model.PowerModel`) converts warmth to
a small multiplicative swing on dynamic power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ThermalSpec:
    """Time constants of the warmth dynamics."""

    heat_tau_s: float = 2.2e-3
    cool_tau_s: float = 9.0e-3
    initial_warmth: float = 0.0

    def validate(self) -> None:
        if self.heat_tau_s <= 0 or self.cool_tau_s <= 0:
            raise ValueError("thermal time constants must be positive")
        if not 0.0 <= self.initial_warmth <= 1.0:
            raise ValueError("initial warmth must lie in [0, 1]")


class ThermalModel:
    """First-order warmth dynamics stepped by the device."""

    __slots__ = ("_spec", "_warmth")

    def __init__(self, spec: ThermalSpec | None = None) -> None:
        self._spec = spec or ThermalSpec()
        self._spec.validate()
        self._warmth = self._spec.initial_warmth

    @property
    def spec(self) -> ThermalSpec:
        return self._spec

    @property
    def warmth(self) -> float:
        """Current warmth in [0, 1]."""
        return self._warmth

    def reset(self, warmth: float = 0.0) -> None:
        """Force the warmth state (e.g. when parking the device)."""
        if not 0.0 <= warmth <= 1.0:
            raise ValueError("warmth must lie in [0, 1]")
        self._warmth = warmth

    def step(self, dt_s: float, active: bool) -> float:
        """Advance by ``dt_s`` seconds and return the new warmth.

        ``active`` selects the heating (kernel resident) or cooling (idle)
        relaxation target and time constant.
        """
        if dt_s < 0:
            raise ValueError("time step cannot be negative")
        if dt_s == 0:
            return self._warmth
        target = 1.0 if active else 0.0
        tau = self._spec.heat_tau_s if active else self._spec.cool_tau_s
        alpha = 1.0 - math.exp(-dt_s / tau)
        self._warmth += (target - self._warmth) * alpha
        # Numerical guard.
        self._warmth = min(max(self._warmth, 0.0), 1.0)
        return self._warmth

    def relax_span(self, dt_s: float, active: bool) -> float:
        """Advance an entire multi-slice span with one closed-form relaxation.

        The first-order dynamics compose analytically: stepping ``dt1`` then
        ``dt2`` equals a single step of ``dt1 + dt2`` up to floating-point
        rounding, because ``exp(-dt1/tau) * exp(-dt2/tau) == exp(-(dt1+dt2)/tau)``.
        The compiled device engine therefore applies one relaxation per idle
        span instead of one per slice -- its idle kernel emits hundreds of
        control-period slices without ever stepping warmth per slice, then
        relaxes once for the whole span with this arithmetic (keep the two
        in lockstep); the result agrees with the per-slice reference path to
        ~1 ulp (the device equivalence suite pins the tolerance).

        A zero-duration span is a no-op that leaves the warmth state
        untouched (mirroring :meth:`step`); negative durations raise.
        """
        if dt_s < 0:
            raise ValueError("relaxation span cannot be negative")
        if dt_s == 0:
            return self._warmth
        target = 1.0 if active else 0.0
        tau = self._spec.heat_tau_s if active else self._spec.cool_tau_s
        alpha = 1.0 - math.exp(-dt_s / tau)
        self._warmth += (target - self._warmth) * alpha
        self._warmth = min(max(self._warmth, 0.0), 1.0)
        return self._warmth

    def time_to_warmth(self, target: float, active: bool = True) -> float:
        """Seconds of continuous activity (or idleness) needed to reach ``target``.

        Useful in tests and for sizing warm-up counts; returns ``inf`` if the
        target is unreachable from the current state in the given direction.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError("target warmth must lie in [0, 1]")
        goal = 1.0 if active else 0.0
        tau = self._spec.heat_tau_s if active else self._spec.cool_tau_s
        current_gap = goal - self._warmth
        target_gap = goal - target
        if current_gap == 0:
            return 0.0 if target == goal else math.inf
        ratio = target_gap / current_gap
        if ratio <= 0:
            return math.inf
        if ratio >= 1:
            return 0.0
        return -tau * math.log(ratio)


__all__ = ["ThermalSpec", "ThermalModel"]
