"""C provider of the compiled slice/boundary core.

Mirrors ``_fastcore_kernels`` line for line in C, compiles it once with the
system C compiler (``$CC``, ``gcc`` or ``cc``) into a shared library cached
by source hash, and binds it through :mod:`ctypes`.  This is the fallback
compiled tier for environments without Numba (the repo's own CI container,
for one): same data layout, same return-code protocol, and -- because the
build pins ``-fno-fast-math -ffp-contract=off`` -- the same IEEE-754 doubles
as the Python engines (libm ``pow``/``exp`` are exactly what CPython floats
use; contraction off keeps the compiler from fusing the multiply-adds the
Python engine evaluates separately).  The fastcore self-check verifies the
bit-for-bit contract against the Python kernel bodies before the provider is
ever selected.

The compiled library is cached under ``$REPRO_FASTCORE_CACHE`` (default: a
``repro-fastcore`` directory in the system temp dir) keyed by the source
digest, so concurrent processes -- e.g. a sweep worker pool -- compile at
most once and land on the same file via an atomic rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_C_SOURCE = r"""
#include <math.h>

/* State indices -- see _fastcore_kernels for the layout contract. */
#define S_NOW 0
#define S_WARMTH 1
#define S_CEN 2
#define S_CTM 3
#define S_CAC 4
#define S_NEXT 5
#define S_FWST 6
#define S_FREQ 7
#define S_OVER 8
#define S_THROT 9
#define S_IDLEAC 10
#define S_LASTP 11

#define P_PERIOD 0
#define P_IDLE_X 1
#define P_IDLE_I 2
#define P_IDLE_H 3
#define P_IDLE_TOT 4
#define P_NOM 5
#define P_PEXP 6
#define P_XIDLE 7
#define P_XDYN 8
#define P_IIDLE 9
#define P_IDYN 10
#define P_HIDLE 11
#define P_HDYN 12
#define P_SWING 13
#define P_COUPLE 14
#define P_HEAT_TAU 15
#define P_COOL_TAU 16
#define P_LIMIT 17
#define P_EXC_THRESH 18
#define P_EXC_WIN 19
#define P_T_HOLD 20
#define P_REC_STEP 21
#define P_RAMP_STEP 22
#define P_CAP_TGT 23
#define P_CAP_HYST 24
#define P_IDLE_PARK 25
#define P_F_IDLE 26
#define P_F_BOOST 27
#define P_F_SUST 28
#define P_RETENTION 29
#define P_MINFACT 30

#define FW_IDLE 0
#define FW_RAMPING 1
#define FW_BOOST 2
#define FW_THROTTLED 3
#define FW_RECOVERING 4
#define FW_CAPPED 5

#define R_PARK 0
#define R_PRE_PAD 1
#define R_READ_OUT 2
#define R_READ_BACK 3
#define R_PRE_DELAY 4
#define R_POST_PAD 5
#define R_LAT_MEAN 6
#define R_LAT_JIT 7
#define R_ERR_STD 8
#define R_GAP 9
#define R_EPOCH 10
#define R_DRIFT 11
#define R_HZ 12
#define R_WINDOW 13
#define R_SPERIOD 14
#define R_SPHASE 15
#define R_NSEQ 16
#define R_LEN 17

#define Q_DESC 0
#define Q_EXECS 1
#define Q_CACHE 2
#define Q_HASRV 3
#define Q_RFACT 4
#define Q_CV 5
#define Q_LEN 6

#define O_START 0
#define O_TICKS 1
#define O_AFTER 2
#define O_STOP 3
#define O_NSMP 4
#define O_LEN 5

static int fw_transition(double *st, const double *pp, double *ev, long ev_cap,
                         long *lens, double now, int state, double freq,
                         double power) {
    int changed = (state != (int)st[S_FWST]) || (freq != st[S_FREQ]);
    double clamped = freq;
    st[S_FWST] = (double)state;
    if (clamped < pp[P_F_IDLE]) clamped = pp[P_F_IDLE];
    if (clamped > pp[P_F_BOOST]) clamped = pp[P_F_BOOST];
    st[S_FREQ] = clamped;
    if (changed) {
        long k = lens[1];
        if (k >= ev_cap) return 2;
        ev[k * 4 + 0] = now;
        ev[k * 4 + 1] = (double)state;
        ev[k * 4 + 2] = clamped;
        ev[k * 4 + 3] = power;
        lens[1] = k + 1;
    }
    return 0;
}

static int fw_step(double *st, const double *pp, double *ev, long ev_cap,
                   long *lens, double now, double dt, double power,
                   int resident) {
    double limit, new_frequency, target, boost;
    int s;
    if (dt == 0.0) return 0;
    st[S_LASTP] = power;
    if (resident == 0) {
        st[S_IDLEAC] += dt;
        st[S_OVER] = 0.0;
        if (st[S_IDLEAC] >= pp[P_IDLE_PARK] && (int)st[S_FWST] != FW_IDLE)
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_IDLE,
                                 pp[P_F_IDLE], power);
        return 0;
    }
    st[S_IDLEAC] = 0.0;
    limit = pp[P_LIMIT];
    if (power > limit * pp[P_EXC_THRESH])
        st[S_OVER] += dt;
    else
        st[S_OVER] = 0.0;
    s = (int)st[S_FWST];
    if (s == FW_IDLE || s == FW_RAMPING) {
        target = pp[P_F_BOOST];
        new_frequency = st[S_FREQ] + pp[P_RAMP_STEP];
        if (new_frequency > target) new_frequency = target;
        return fw_transition(st, pp, ev, ev_cap, lens, now,
                             new_frequency >= target ? FW_BOOST : FW_RAMPING,
                             new_frequency, power);
    }
    if (s == FW_BOOST) {
        if (st[S_OVER] >= pp[P_EXC_WIN]) {
            st[S_THROT] = now + pp[P_T_HOLD];
            st[S_OVER] = 0.0;
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_THROTTLED,
                                 pp[P_F_SUST], power);
        }
        return 0;
    }
    if (s == FW_THROTTLED) {
        if (now >= st[S_THROT])
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                                 st[S_FREQ], power);
        return 0;
    }
    if (s == FW_RECOVERING) {
        if (power >= limit * pp[P_CAP_TGT])
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_CAPPED,
                                 st[S_FREQ], power);
        boost = pp[P_F_BOOST];
        new_frequency = st[S_FREQ] + pp[P_REC_STEP];
        if (new_frequency > boost) new_frequency = boost;
        if (new_frequency >= boost)
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_BOOST,
                                 new_frequency, power);
        return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                             new_frequency, power);
    }
    if (s == FW_CAPPED) {
        if (power > limit) {
            new_frequency = st[S_FREQ] - pp[P_REC_STEP];
            if (new_frequency < pp[P_F_SUST]) new_frequency = pp[P_F_SUST];
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_CAPPED,
                                 new_frequency, power);
        }
        if (power < limit * (pp[P_CAP_TGT] - pp[P_CAP_HYST]))
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                                 st[S_FREQ], power);
        return 0;
    }
    return 0;
}

static int fw_arrival(double *st, const double *pp, double *ev, long ev_cap,
                      long *lens, double now) {
    int s;
    st[S_IDLEAC] = 0.0;
    s = (int)st[S_FWST];
    if (s == FW_IDLE || s == FW_RAMPING)
        return fw_transition(st, pp, ev, ev_cap, lens, now, FW_BOOST,
                             pp[P_F_BOOST], st[S_LASTP]);
    return 0;
}

static int control_boundary(double *st, const double *pp, double *ev,
                            long ev_cap, long *lens) {
    double now = st[S_NOW];
    double c_time = st[S_CTM];
    double mean_power, period, next_control;
    int resident, rc;
    mean_power = c_time > 0 ? st[S_CEN] / c_time : pp[P_IDLE_TOT];
    resident = (c_time > 0 && st[S_CAC] >= 0.5 * c_time) ? 1 : 0;
    rc = fw_step(st, pp, ev, ev_cap, lens, now, c_time, mean_power, resident);
    if (rc != 0) return rc;
    st[S_CEN] = 0.0;
    st[S_CTM] = 0.0;
    st[S_CAC] = 0.0;
    period = pp[P_PERIOD];
    next_control = st[S_NEXT];
    while (next_control <= now + 1e-12) next_control += period;
    st[S_NEXT] = next_control;
    return 0;
}

static int idle_core(double *st, const double *pp, double duration, int record,
                     double *seg, long seg_cap, double *ev, long ev_cap,
                     long *lens) {
    double now, end, idle_x, idle_i, idle_h, total_w, cool_tau;
    double remaining, dt, alpha, warmth;
    long k;
    int rc;
    if (duration <= 1e-12) return 0;
    now = st[S_NOW];
    end = now + duration;
    idle_x = pp[P_IDLE_X];
    idle_i = pp[P_IDLE_I];
    idle_h = pp[P_IDLE_H];
    total_w = pp[P_IDLE_TOT];
    cool_tau = pp[P_COOL_TAU];
    if (end + 1e-12 < st[S_NEXT]) {
        if (record != 0) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = idle_x;
            seg[k * 5 + 3] = idle_i;
            seg[k * 5 + 4] = idle_h;
            lens[0] = k + 1;
        }
        st[S_CEN] += total_w * duration;
        st[S_CTM] += duration;
        st[S_NOW] = end;
        alpha = 1.0 - exp(-duration / cool_tau);
        warmth = st[S_WARMTH];
        warmth += (0.0 - warmth) * alpha;
        if (warmth < 0.0) warmth = 0.0;
        if (warmth > 1.0) warmth = 1.0;
        st[S_WARMTH] = warmth;
        return 0;
    }
    remaining = duration;
    while (remaining > 1e-12) {
        dt = st[S_NEXT] - now;
        if (dt < 1e-9) dt = 1e-9;
        if (remaining < dt) dt = remaining;
        end = now + dt;
        if (record != 0 && end > now) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = idle_x;
            seg[k * 5 + 3] = idle_i;
            seg[k * 5 + 4] = idle_h;
            lens[0] = k + 1;
        }
        st[S_CEN] += total_w * dt;
        st[S_CTM] += dt;
        st[S_NOW] = end;
        remaining -= dt;
        now = end;
        if (now + 1e-12 >= st[S_NEXT]) {
            rc = control_boundary(st, pp, ev, ev_cap, lens);
            if (rc != 0) return rc;
        }
    }
    alpha = 1.0 - exp(-duration / cool_tau);
    warmth = st[S_WARMTH];
    warmth += (0.0 - warmth) * alpha;
    if (warmth < 0.0) warmth = 0.0;
    if (warmth > 1.0) warmth = 1.0;
    st[S_WARMTH] = warmth;
    return 0;
}

static int execute_core(double *st, const double *pp, const double *desc,
                        double time_factor, int cold, int record, double *seg,
                        long seg_cap, double *ev, long ev_cap, long *lens,
                        double *out8) {
    double now, start_s, end, dt, work_dt, frac_mid;
    double nominal, power_exponent, xcd_idle_w, xcd_dynamic_w, iod_idle_w;
    double iod_dynamic_w, hbm_idle_w, hbm_dynamic_w, warmth_swing, iod_coupling;
    double heat_tau, base_duration, sensitivity, frequency, duration_full;
    double freq_scale, warmth, clamped, warm_scale, iod_freq_scale;
    double x_w, i_w, h_w, total_w, total_j, alpha;
    double energy_j, xcd_j, iod_j, hbm_j, freq_time_weighted;
    double work_remaining, end_s, duration;
    long row, k;
    int n_phases, p, rc;
    now = st[S_NOW];
    start_s = now;
    rc = fw_arrival(st, pp, ev, ev_cap, lens, start_s);
    if (rc != 0) return rc;
    nominal = pp[P_NOM];
    power_exponent = pp[P_PEXP];
    xcd_idle_w = pp[P_XIDLE];
    xcd_dynamic_w = pp[P_XDYN];
    iod_idle_w = pp[P_IIDLE];
    iod_dynamic_w = pp[P_IDYN];
    hbm_idle_w = pp[P_HIDLE];
    hbm_dynamic_w = pp[P_HDYN];
    warmth_swing = pp[P_SWING];
    iod_coupling = pp[P_COUPLE];
    heat_tau = pp[P_HEAT_TAU];
    base_duration = desc[0];
    sensitivity = desc[1];
    n_phases = (int)desc[4];

    frequency = st[S_FREQ];
    duration_full = base_duration * pow(nominal / frequency, sensitivity);
    if (cold != 0) duration_full *= desc[2];
    duration_full *= time_factor;
    end = now + duration_full;
    if (end + 1e-12 < st[S_NEXT]) {
        row = 5 + 5 * (long)(n_phases - 1);
        for (p = 0; p < n_phases; p++) {
            if (0.5 < desc[5 + 5 * p]) {
                row = 5 + 5 * (long)p;
                break;
            }
        }
        dt = duration_full;
        freq_scale = pow(frequency / nominal, power_exponent);
        warmth = st[S_WARMTH];
        clamped = warmth;
        if (clamped < 0.0) clamped = 0.0;
        if (clamped > 1.0) clamped = 1.0;
        warm_scale = 1.0 - warmth_swing * (1.0 - clamped);
        iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0);
        x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale;
        i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale;
        h_w = hbm_idle_w + hbm_dynamic_w * (cold != 0 ? desc[row + 4] : desc[row + 3]);
        if (record != 0 && end > now) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = x_w;
            seg[k * 5 + 3] = i_w;
            seg[k * 5 + 4] = h_w;
            lens[0] = k + 1;
        }
        total_w = x_w + i_w + h_w;
        total_j = total_w * dt;
        st[S_CEN] += total_j;
        st[S_CTM] += dt;
        st[S_CAC] += dt;
        alpha = 1.0 - exp(-dt / heat_tau);
        warmth += (1.0 - warmth) * alpha;
        if (warmth < 0.0) warmth = 0.0;
        if (warmth > 1.0) warmth = 1.0;
        st[S_WARMTH] = warmth;
        st[S_NOW] = end;
        energy_j = total_j;
        xcd_j = x_w * dt;
        iod_j = i_w * dt;
        hbm_j = h_w * dt;
        freq_time_weighted = frequency * dt;
        now = end;
    } else {
        work_remaining = 1.0;
        energy_j = 0.0;
        xcd_j = 0.0;
        iod_j = 0.0;
        hbm_j = 0.0;
        freq_time_weighted = 0.0;
        while (work_remaining > 1e-9) {
            frequency = st[S_FREQ];
            duration_full = base_duration * pow(nominal / frequency, sensitivity);
            if (cold != 0) duration_full *= desc[2];
            duration_full *= time_factor;
            dt = st[S_NEXT] - now;
            if (dt < 1e-9) dt = 1e-9;
            work_dt = work_remaining * duration_full;
            if (work_dt < dt) dt = work_dt;
            frac_mid = (1.0 - work_remaining) + 0.5 * dt / duration_full;
            row = 5 + 5 * (long)(n_phases - 1);
            for (p = 0; p < n_phases; p++) {
                if (frac_mid < desc[5 + 5 * p]) {
                    row = 5 + 5 * (long)p;
                    break;
                }
            }
            freq_scale = pow(frequency / nominal, power_exponent);
            warmth = st[S_WARMTH];
            clamped = warmth;
            if (clamped < 0.0) clamped = 0.0;
            if (clamped > 1.0) clamped = 1.0;
            warm_scale = 1.0 - warmth_swing * (1.0 - clamped);
            iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0);
            x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale;
            i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale;
            h_w = hbm_idle_w + hbm_dynamic_w * (cold != 0 ? desc[row + 4] : desc[row + 3]);
            end = now + dt;
            if (record != 0 && end > now) {
                k = lens[0];
                if (k >= seg_cap) return 1;
                seg[k * 5 + 0] = now;
                seg[k * 5 + 1] = end;
                seg[k * 5 + 2] = x_w;
                seg[k * 5 + 3] = i_w;
                seg[k * 5 + 4] = h_w;
                lens[0] = k + 1;
            }
            total_w = x_w + i_w + h_w;
            total_j = total_w * dt;
            st[S_CEN] += total_j;
            st[S_CTM] += dt;
            st[S_CAC] += dt;
            alpha = 1.0 - exp(-dt / heat_tau);
            warmth += (1.0 - warmth) * alpha;
            if (warmth < 0.0) warmth = 0.0;
            if (warmth > 1.0) warmth = 1.0;
            st[S_WARMTH] = warmth;
            st[S_NOW] = end;
            energy_j += total_j;
            xcd_j += x_w * dt;
            iod_j += i_w * dt;
            hbm_j += h_w * dt;
            freq_time_weighted += frequency * dt;
            work_remaining -= dt / duration_full;
            now = end;
            if (now + 1e-12 >= st[S_NEXT]) {
                rc = control_boundary(st, pp, ev, ev_cap, lens);
                if (rc != 0) return rc;
            }
        }
    }
    end_s = now;
    duration = end_s - start_s;
    out8[0] = start_s;
    out8[1] = end_s;
    out8[2] = cold != 0 ? 1.0 : 0.0;
    out8[3] = freq_time_weighted / duration;
    out8[4] = energy_j;
    out8[5] = xcd_j / duration;
    out8[6] = iod_j / duration;
    out8[7] = hbm_j / duration;
    return 0;
}

int fc_idle(double *st, const double *pp, double duration, int record,
            double *seg, long seg_cap, double *ev, long ev_cap, long *lens) {
    lens[0] = 0;
    lens[1] = 0;
    return idle_core(st, pp, duration, record, seg, seg_cap, ev, ev_cap, lens);
}

int fc_execute(double *st, const double *pp, const double *desc,
               double time_factor, int cold, int record, double *seg,
               long seg_cap, double *ev, long ev_cap, long *lens,
               double *out8) {
    lens[0] = 0;
    lens[1] = 0;
    return execute_core(st, pp, desc, time_factor, cold, record, seg, seg_cap,
                        ev, ev_cap, lens, out8);
}

static int sequence_core(double *st, const double *pp, const double *desc,
                         double *cache, long executions, const double *variates,
                         int has_rv, double run_factor, double execution_cv,
                         double latency_mean, double latency_jitter,
                         double error_std, double gap_s, int record, double *seg,
                         long seg_cap, double *ev, long ev_cap, long *lens,
                         double *exec_rows, double *cpu_starts,
                         double *cpu_ends) {
    double min_factor = pp[P_MINFACT];
    double retention = pp[P_RETENTION];
    double cold_executions = desc[3];
    double launch_latency, jitter, time_factor, cpu_start, cpu_end;
    double *row8;
    long i, cursor = 0;
    int cold, rc;
    for (i = 0; i < executions; i++) {
        if (i > 0 && gap_s > 0.0) {
            rc = idle_core(st, pp, gap_s, record, seg, seg_cap, ev, ev_cap, lens);
            if (rc != 0) return rc;
        }
        launch_latency = latency_mean + latency_jitter * variates[cursor];
        if (launch_latency < 0.2e-6) launch_latency = 0.2e-6;
        jitter = exp(0.0 + execution_cv * variates[cursor + 1]);
        if (jitter < min_factor) jitter = min_factor;
        rc = idle_core(st, pp, launch_latency, record, seg, seg_cap, ev, ev_cap, lens);
        if (rc != 0) return rc;
        if (st[S_NOW] - cache[1] > retention) cache[0] = 0.0;
        cold = cache[0] < cold_executions ? 1 : 0;
        time_factor = has_rv == 0 ? jitter : run_factor * jitter;
        row8 = exec_rows + i * 8;
        rc = execute_core(st, pp, desc, time_factor, cold, record, seg, seg_cap,
                          ev, ev_cap, lens, row8);
        if (rc != 0) return rc;
        cache[0] += 1.0;
        cache[1] = row8[1];
        cpu_start = row8[0] + error_std * variates[cursor + 2];
        cpu_end = row8[1] + error_std * variates[cursor + 3];
        if (cpu_end < cpu_start) cpu_end = cpu_start;
        cpu_starts[i] = cpu_start;
        cpu_ends[i] = cpu_end;
        cursor += 4;
    }
    return 0;
}

static int sample_core(const double *pp, const double *rp, const double *seg,
                       const long *lens, double *smp, long smp_cap,
                       double *out) {
    double start = out[O_START];
    double stop = out[O_STOP];
    double period = rp[R_SPERIOD];
    double phase = rp[R_SPHASE];
    int window = rp[R_WINDOW] != 0.0;
    double epoch = rp[R_EPOCH];
    double drift = rp[R_DRIFT];
    double hz = rp[R_HZ];
    double t, b0, b_last, fill_x, fill_i, fill_h;
    double cum_x, cum_i, cum_h, d, tail, e_x, e_i, e_h;
    double *row;
    long first, last, idx, count = 0, n, k, j;
    int side;
    first = (long)ceil((start - phase) / period);
    last = (long)floor((stop + 1e-12 - phase) / period) + 1;
    if (last < first) last = first;
    for (idx = first; idx <= last; idx++) {
        t = phase + (double)idx * period;
        if (t > stop + 1e-12) continue;
        if (window && t <= start + 1e-12) continue;
        if (count >= smp_cap) return 3;
        smp[count * 5 + 0] = t;
        smp[count * 5 + 1] = rint((t + epoch) * drift * hz);
        count++;
    }
    out[O_NSMP] = (double)count;
    n = lens[0];
    b0 = seg[0];
    b_last = seg[(n - 1) * 5 + 1];
    fill_x = pp[P_IDLE_X];
    fill_i = pp[P_IDLE_I];
    fill_h = pp[P_IDLE_H];
    if (!window) {
        k = 0;
        for (j = 0; j < count; j++) {
            row = smp + j * 5;
            t = row[0];
            while (k + 1 < n && seg[(k + 1) * 5] <= t) k++;
            if (b0 <= t && t < b_last) {
                row[2] = seg[k * 5 + 2];
                row[3] = seg[k * 5 + 3];
                row[4] = seg[k * 5 + 4];
            } else {
                row[2] = fill_x;
                row[3] = fill_i;
                row[4] = fill_h;
            }
        }
        return 0;
    }
    for (side = 0; side < 2; side++) {
        k = 0;
        cum_x = 0.0;
        cum_i = 0.0;
        cum_h = 0.0;
        for (j = 0; j < count; j++) {
            row = smp + j * 5;
            t = row[0];
            if (side == 0) t = t - period;
            while (k + 1 < n && seg[(k + 1) * 5] <= t) {
                d = seg[(k + 1) * 5] - seg[k * 5];
                cum_x += seg[k * 5 + 2] * d;
                cum_i += seg[k * 5 + 3] * d;
                cum_h += seg[k * 5 + 4] * d;
                k++;
            }
            if (t < b0) {
                d = t - b0;
                e_x = d * fill_x;
                e_i = d * fill_i;
                e_h = d * fill_h;
            } else if (t >= b_last) {
                d = b_last - seg[k * 5];
                tail = t - b_last;
                e_x = (cum_x + seg[k * 5 + 2] * d) + tail * fill_x;
                e_i = (cum_i + seg[k * 5 + 3] * d) + tail * fill_i;
                e_h = (cum_h + seg[k * 5 + 4] * d) + tail * fill_h;
            } else {
                d = t - seg[k * 5];
                e_x = cum_x + seg[k * 5 + 2] * d;
                e_i = cum_i + seg[k * 5 + 3] * d;
                e_h = cum_h + seg[k * 5 + 4] * d;
            }
            if (side == 0) {
                row[2] = e_x;
                row[3] = e_i;
                row[4] = e_h;
            } else {
                row[2] = (e_x - row[2]) / period;
                row[3] = (e_i - row[3]) / period;
                row[4] = (e_h - row[4]) / period;
            }
        }
    }
    return 0;
}

static int run_core(double *st, const double *pp, const double *rp,
                    const double *descs, const double *seqs, double *caches,
                    const double *variates, double *seg, long seg_cap,
                    double *ev, long ev_cap, long *lens, double *exec_rows,
                    double *cpu_starts, double *cpu_ends, double *smp,
                    long smp_cap, double *out) {
    const double *seq;
    double capture;
    long q, n_seq, executions, row = 0;
    int rc;
    rc = idle_core(st, pp, rp[R_PARK], 0, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    out[O_START] = st[S_NOW];
    rc = idle_core(st, pp, rp[R_PRE_PAD], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    capture = st[S_NOW] + rp[R_READ_OUT];
    out[O_TICKS] = rint((capture + rp[R_EPOCH]) * rp[R_DRIFT] * rp[R_HZ]);
    rc = idle_core(st, pp, rp[R_READ_OUT] + rp[R_READ_BACK], 1, seg, seg_cap,
                   ev, ev_cap, lens);
    if (rc != 0) return rc;
    out[O_AFTER] = st[S_NOW];
    rc = idle_core(st, pp, rp[R_PRE_DELAY], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    n_seq = (long)rp[R_NSEQ];
    for (q = 0; q < n_seq; q++) {
        seq = seqs + q * Q_LEN;
        executions = (long)seq[Q_EXECS];
        rc = sequence_core(st, pp, descs + (long)seq[Q_DESC],
                           caches + 2 * (long)seq[Q_CACHE], executions,
                           variates + 4 * row, (int)seq[Q_HASRV], seq[Q_RFACT],
                           seq[Q_CV], rp[R_LAT_MEAN], rp[R_LAT_JIT],
                           rp[R_ERR_STD], rp[R_GAP], 1, seg, seg_cap, ev, ev_cap,
                           lens, exec_rows + 8 * row, cpu_starts + row,
                           cpu_ends + row);
        if (rc != 0) return rc;
        row += executions;
    }
    rc = idle_core(st, pp, rp[R_POST_PAD], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    out[O_STOP] = st[S_NOW];
    return sample_core(pp, rp, seg, lens, smp, smp_cap, out);
}

int fc_sequence(double *st, const double *pp, const double *desc,
                double *cache, long executions, const double *variates,
                int has_rv, double run_factor, double execution_cv,
                double latency_mean, double latency_jitter, double error_std,
                double gap_s, int record, double *seg, long seg_cap,
                double *ev, long ev_cap, long *lens, double *exec_rows,
                double *cpu_starts, double *cpu_ends) {
    lens[0] = 0;
    lens[1] = 0;
    return sequence_core(st, pp, desc, cache, executions, variates, has_rv,
                         run_factor, execution_cv, latency_mean, latency_jitter,
                         error_std, gap_s, record, seg, seg_cap, ev, ev_cap,
                         lens, exec_rows, cpu_starts, cpu_ends);
}

int fc_run(double *st, const double *pp, const double *rp, const double *descs,
           const double *seqs, double *caches, const double *variates,
           double *seg, long seg_cap, double *ev, long ev_cap, long *lens,
           double *exec_rows, double *cpu_starts, double *cpu_ends,
           double *smp, long smp_cap, double *out) {
    lens[0] = 0;
    lens[1] = 0;
    return run_core(st, pp, rp, descs, seqs, caches, variates, seg, seg_cap,
                    ev, ev_cap, lens, exec_rows, cpu_starts, cpu_ends, smp,
                    smp_cap, out);
}
"""

#: Compile flags that keep the C core bit-identical to the Python engines:
#: no fast-math value substitutions, no FMA contraction of separate ops.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")


def source_digest() -> str:
    """Hash of the C source; keys the compiled-library cache."""
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def find_compiler() -> str | None:
    """Locate a C compiler (``$CC``, then ``gcc``, then ``cc``)."""
    for candidate in (os.environ.get("CC"), "gcc", "cc"):
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    return None


def cache_dir() -> Path:
    configured = os.environ.get("REPRO_FASTCORE_CACHE")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-fastcore"


def build_library(compiler: str | None = None) -> Path:
    """Compile (or reuse) the shared library; returns its path.

    The library lands at a digest-keyed path via an atomic rename, so
    concurrent builders (sweep worker pools) race benignly.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC, or install gcc/cc)")
    directory = cache_dir()
    lib_path = directory / f"fastcore-{source_digest()}.so"
    if lib_path.exists():
        return lib_path
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_lib = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_lib, tmp_src],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"fastcore C build failed ({compiler}): {result.stderr.strip()}"
            )
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (tmp_src, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


class CcKernels:
    """ctypes binding presenting the uniform fastcore kernel API.

    ``idle`` / ``execute`` / ``sequence`` / ``run`` take the same numpy-array arguments
    as the ``_fastcore_kernels`` entry points (capacities are read off the
    array shapes here and passed explicitly to C).

    Arrays are passed as raw data pointers cached per array identity: the
    device reuses the same state/param/scratch buffers for the lifetime of a
    run, and ``ndpointer`` (or even ``arr.ctypes.data``) conversion on every
    call costs an order of magnitude more than the short-span kernels
    themselves.  The cache pins each array it has seen, so a recycled ``id``
    can never alias a stale pointer; it is cleared when it outgrows the
    handful of long-lived buffers it exists for.
    """

    name = "cc"

    def __init__(self, lib_path: Path) -> None:
        self.lib_path = lib_path
        lib = ctypes.CDLL(str(lib_path))
        ptr = ctypes.c_void_p
        lib.fc_idle.restype = ctypes.c_int
        lib.fc_idle.argtypes = [
            ptr, ptr, ctypes.c_double, ctypes.c_int,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr,
        ]
        lib.fc_execute.restype = ctypes.c_int
        lib.fc_execute.argtypes = [
            ptr, ptr, ptr, ctypes.c_double, ctypes.c_int, ctypes.c_int,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr, ptr,
        ]
        lib.fc_sequence.restype = ctypes.c_int
        lib.fc_sequence.argtypes = [
            ptr, ptr, ptr, ptr, ctypes.c_long, ptr, ctypes.c_int,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ctypes.c_double, ctypes.c_double, ctypes.c_int,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr, ptr, ptr, ptr,
        ]
        lib.fc_run.restype = ctypes.c_int
        lib.fc_run.argtypes = [
            ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr,
            ptr, ptr, ptr, ptr, ctypes.c_long, ptr,
        ]
        self._lib = lib
        self._ptrs: dict[int, tuple] = {}

    def _ptr(self, arr) -> int:
        cached = self._ptrs.get(id(arr))  # statics: allow[identity-hash] -- pointer cache; the pinned array reference keeps the id stable
        if cached is not None and cached[0] is arr:
            return cached[1]
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError("fastcore kernel arrays must be C-contiguous")
        if len(self._ptrs) > 64:  # scratch arrays from tests/self-checks
            self._ptrs.clear()
        address = arr.ctypes.data
        self._ptrs[id(arr)] = (arr, address)  # statics: allow[identity-hash] -- cached address is per-process by nature and never persisted
        return address

    def idle(self, st, pp, duration, record, seg, ev, lens):
        p = self._ptr
        return self._lib.fc_idle(
            p(st), p(pp), duration, record,
            p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens),
        )

    def execute(self, st, pp, desc, time_factor, cold, record, seg, ev, lens, out8):
        p = self._ptr
        return self._lib.fc_execute(
            p(st), p(pp), p(desc), time_factor, cold, record,
            p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens), p(out8),
        )

    def sequence(
        self, st, pp, desc, cache, executions, variates, has_rv, run_factor,
        execution_cv, latency_mean, latency_jitter, error_std, gap_s, record,
        seg, ev, lens, exec_rows, cpu_starts, cpu_ends,
    ):
        p = self._ptr
        return self._lib.fc_sequence(
            p(st), p(pp), p(desc), p(cache), executions, p(variates), has_rv,
            run_factor, execution_cv, latency_mean, latency_jitter, error_std,
            gap_s, record, p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens),
            p(exec_rows), p(cpu_starts), p(cpu_ends),
        )

    def run(
        self, st, pp, rp, descs, seqs, caches, variates, seg, ev, lens,
        exec_rows, cpu_starts, cpu_ends, smp, out,
    ):
        p = self._ptr
        return self._lib.fc_run(
            p(st), p(pp), p(rp), p(descs), p(seqs), p(caches), p(variates),
            p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens),
            p(exec_rows), p(cpu_starts), p(cpu_ends), p(smp), smp.shape[0], p(out),
        )


def load() -> CcKernels:
    """Build (if needed) and bind the C core."""
    return CcKernels(build_library())


__all__ = ["CcKernels", "load", "build_library", "find_compiler", "source_digest"]
