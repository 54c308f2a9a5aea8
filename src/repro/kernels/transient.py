"""Exact zero-order-hold LTI stepping for the lumped RLC PDN.

The scalar integrator (:meth:`repro.psn.pdn.PDNModel.simulate`) walks a
fixed-step trapezoidal update through a Python loop — ~10 numpy calls
and several small allocations *per timestep*, which dominates wall
clock at the million-step traces the telemetry pipeline consumes.  This
module replaces the loop with the exact discrete solution of the same
2x2 state equations:

* :func:`discretize` — zero-order-hold discretization via the matrix
  exponential of the augmented ``[[A, B], [0, 0]]`` block: ``A_d =
  expm(A dt)``, ``B_d = (int_0^dt expm(A s) ds) B``.  For load
  currents held constant across each step the recurrence ``x_{k+1} =
  A_d x_k + B_d u_k`` is *exact* — no stability limit, no numerical
  damping of the PDN resonance;
* :class:`TransientStepper` — evaluates that recurrence at C speed by
  collapsing the 2x2 state update into the scalar second-order form
  Cayley-Hamilton gives (``x[k+2] = tr(A_d) x[k+1] - det(A_d) x[k] +
  f[k]``) and running it through :func:`scipy.signal.lfilter`.  The
  stepper is **chunk-invariant**: feeding a trace in arbitrary pieces
  returns bit-identical samples to one shot, because the carried
  filter state fully determines every subsequent sample;
* :func:`simulate_corner_lot` — the batched multi-corner entry point:
  one call steps a whole lot of :class:`~repro.psn.pdn.PDNParameters`
  lanes (each lane a C-speed filter pass).

Oracle contract: the trapezoidal stepper stays in place
(``PDNModel.simulate(method="trapezoid")``) and both integrators
converge to the continuous solution as ``dt -> 0``; for a rail
resolved at the repo's own step ceiling (``dt <= 0.05 / f_res``) the
two agree within ``~0.5 * omega * dt`` of the droop amplitude — the
half-sample input-hold skew — which the Monte-Carlo bench asserts
before timing anything (see ``benchmarks/bench_montecarlo.py``).

Instrumented under the ``kernel.transient`` profiler phase.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.psn.pdn import PDNParameters


class DiscretePDN:
    """ZOH discretization of one PDN at one step size.

    State ``x = [i_branch, v_cap]``, input ``u = [1, i_load]``:

        A = [[-(R + R_esr)/L, -1/L], [1/C, 0]]
        B = [[vdd/L, R_esr/L], [0, -1/C]]

    Attributes:
        a_d: ``expm(A dt)`` — (2, 2).
        b_d: Exact ZOH input matrix — (2, 2).
        trace / det: Invariants of ``a_d`` (the second-order
            recurrence coefficients via Cayley-Hamilton).
    """

    __slots__ = ("params", "dt", "a_d", "b_d", "trace", "det")

    def __init__(self, params: "PDNParameters", dt: float) -> None:
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        p = params
        r_total = p.r_series + p.r_esr
        a = np.array([
            [-r_total / p.l_series, -1.0 / p.l_series],
            [1.0 / p.c_decap, 0.0],
        ])
        b = np.array([
            [p.vdd_nominal / p.l_series, p.r_esr / p.l_series],
            [0.0, -1.0 / p.c_decap],
        ])
        block = np.zeros((4, 4))
        block[:2, :2] = a * dt
        block[:2, 2:] = b * dt
        # Imported here so that only a process that steps a PDN pays for
        # scipy.linalg.
        from scipy.linalg import expm

        e = expm(block)
        self.params = params
        self.dt = float(dt)
        self.a_d = np.ascontiguousarray(e[:2, :2])
        self.b_d = np.ascontiguousarray(e[:2, 2:])
        self.trace = float(self.a_d[0, 0] + self.a_d[1, 1])
        self.det = float(self.a_d[0, 0] * self.a_d[1, 1]
                         - self.a_d[0, 1] * self.a_d[1, 0])

    def steady_state(self, i_load: float) -> np.ndarray:
        """Fixed point ``x* = (I - A_d)^{-1} B_d u`` for a DC load."""
        u = np.array([1.0, float(i_load)])
        return np.linalg.solve(np.eye(2) - self.a_d, self.b_d @ u)


@functools.lru_cache(maxsize=32)
def _discretize_cached(params: "PDNParameters",
                       dt: float) -> DiscretePDN:
    return DiscretePDN(params, dt)


def discretize(params: "PDNParameters", dt: float) -> DiscretePDN:
    """The (cached) ZOH discretization of a PDN at step ``dt``."""
    return _discretize_cached(params, float(dt))


class TransientStepper:
    """Streaming exact-ZOH integrator for one PDN lane.

    Feed load-current samples in arbitrary chunks with :meth:`step`;
    each call returns the die-rail voltage at the new sample instants.
    Chunking is **bit-invariant**: any split of the same sample
    sequence yields the same floats, because the carried second-order
    filter state determines every later sample exactly (the property
    ``tests/test_kernels_transient.py`` drives with Hypothesis).

    Args:
        params: PDN electrical parameters.
        dt: Step size, seconds (samples are ``dt`` apart).
        v0: Initial rail voltage; defaults to the nominal.
    """

    def __init__(self, params: "PDNParameters", dt: float,
                 *, v0: float | None = None) -> None:
        self._disc = discretize(params, dt)
        self._r_esr = params.r_esr
        self._v0 = params.vdd_nominal if v0 is None else float(v0)
        self._n_seen = 0
        self._x0: np.ndarray | None = None   # state at sample 0
        self._x1: np.ndarray | None = None   # state at sample 1
        self._g_tail: list[np.ndarray] = []  # forcings of last 2 samples
        self._zi: np.ndarray | None = None   # (2, 2) lfilter state

    @property
    def n_seen(self) -> int:
        """Samples consumed so far."""
        return self._n_seen

    def step(self, i_samples: np.ndarray) -> np.ndarray:
        """Consume load samples; return ``v_die`` at those instants.

        The first sample of the first chunk defines the initial branch
        current (a settled rail, matching the trapezoidal oracle).
        """
        with phase("kernel.transient"):
            return self._step(i_samples)

    def _step(self, i_samples: np.ndarray) -> np.ndarray:
        i_new = np.atleast_1d(np.asarray(i_samples, dtype=float))
        if i_new.ndim != 1:
            raise ConfigurationError("i_samples must be 1-D")
        m = i_new.size
        if m == 0:
            return np.empty(0)
        disc = self._disc
        a_d, b_d = disc.a_d, disc.b_d
        # Forcing per new sample: g_k = B_d @ [1, i_k].
        g_new = b_d[:, 0][:, None] + b_d[:, 1][:, None] * i_new[None, :]
        k0 = self._n_seen
        states = np.empty((m, 2))
        pos = 0

        if k0 == 0:
            self._x0 = np.array([i_new[0], self._v0])
            states[0] = self._x0
            pos = 1
        if k0 + pos == 1 and pos < m:
            # State at global sample 1 directly: x1 = A_d x0 + g0.
            g0 = self._g_tail[-1] if pos == 0 else g_new[:, 0]
            self._x1 = a_d @ self._x0 + g0
            states[pos] = self._x1
            pos += 1

        first_global = k0 + pos  # global index of next state to emit
        if pos < m:
            # Imported here, not at module level: scipy.signal (and the
            # scipy.stats it loads) would dominate every process's start.
            from scipy.signal import lfilter, lfiltic

            # States x_k for k >= 2 via the second-order recurrence:
            # x[k] = tr(A_d) x[k-1] - det(A_d) x[k-2] + f[k-2],
            # f[j] = g[j+1] + (A_d - tr(A_d) I) g[j].
            if self._zi is None:
                self._zi = np.stack([
                    lfiltic([1.0], [1.0, -disc.trace, disc.det],
                            [self._x1[i], self._x0[i]])
                    for i in range(2)
                ])
            g_hist = np.concatenate(
                [np.stack(self._g_tail, axis=1), g_new], axis=1
            ) if self._g_tail else g_new
            # f[j] spans global j = first_global - 2 .. k0 + m - 3;
            # g_hist starts at global sample k0 - len(tail).
            tail = len(self._g_tail)
            lo = (first_global - 2) - (k0 - tail)
            hi = (k0 + m - 2) - (k0 - tail)
            m_mix = a_d - disc.trace * np.eye(2)
            # Elementwise, NOT m_mix @ g_hist: BLAS picks different
            # micro-kernels (FMA vs mul+add) by operand width, so a
            # matmul's per-column rounding would depend on the chunk
            # split — breaking the bit-invariance contract.  Broadcast
            # ufuncs round each element identically at any width.
            f = (g_hist[:, lo + 1:hi + 1]
                 + m_mix[:, :1] * g_hist[:1, lo:hi]
                 + m_mix[:, 1:] * g_hist[1:2, lo:hi])
            for i in range(2):
                y, zf = lfilter([1.0], [1.0, -disc.trace, disc.det],
                                f[i], zi=self._zi[i])
                states[pos:, i] = y
                self._zi[i] = zf

        self._n_seen = k0 + m
        self._g_tail = [g_new[:, j].copy() for j in
                        range(max(0, m - 2), m)] \
            if m >= 2 else (self._g_tail + [g_new[:, 0].copy()])[-2:]
        v_out = states[:, 1] + self._r_esr * (states[:, 0] - i_new)
        return v_out


def step_rail(params: "PDNParameters", i_samples: np.ndarray, *,
              dt: float, v0: float | None = None) -> np.ndarray:
    """One-shot exact-ZOH solve: ``v_die`` at every sample instant.

    Equivalent to a single :meth:`TransientStepper.step` call (and
    bit-identical to any chunked feeding of the same samples).
    """
    return TransientStepper(params, dt, v0=v0).step(i_samples)


def simulate_corner_lot(lots: Sequence["PDNParameters"],
                        i_loads: np.ndarray, *, dt: float,
                        v0: float | None = None) -> np.ndarray:
    """Step a whole corner lot of PDNs in one pass.

    Args:
        lots: One :class:`PDNParameters` per lane.
        i_loads: Load currents — ``(n_samples,)`` shared across lanes
            or ``(n_lanes, n_samples)`` per lane.
        dt: Step size, seconds.
        v0: Initial rail voltage (all lanes); None = each nominal.

    Returns:
        ``(n_lanes, n_samples)`` die-rail voltages.

    Raises:
        ConfigurationError: empty lot or mis-shaped currents.
    """
    if not lots:
        raise ConfigurationError("corner lot must be non-empty")
    cur = np.asarray(i_loads, dtype=float)
    if cur.ndim == 1:
        cur = np.broadcast_to(cur, (len(lots), cur.size))
    if cur.ndim != 2 or cur.shape[0] != len(lots):
        raise ConfigurationError(
            f"i_loads shape {np.shape(i_loads)} does not fit "
            f"{len(lots)} lanes"
        )
    out = np.empty(cur.shape)
    for lane, params in enumerate(lots):
        out[lane] = step_rail(params, cur[lane], dt=dt, v0=v0)
    return out
