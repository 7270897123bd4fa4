"""Vectorized (numpy) schedulability backend.

Evaluates UUniFast generation and the three partitioners'
accept/reject tests over a whole batch of task sets as float64 arrays,
producing verdicts **bit-identical** to the scalar oracle in
:mod:`.python_backend`.

Identity strategy (see the :mod:`.base` module docstring): every RNG
variate is drawn from the same scalar ``random.Random`` stream as the
oracle, and every transcendental (``**``, ``exp``) runs through the
same libm call.  Vectorization is confined to operations whose IEEE-754
results are exactly rounded and therefore bit-identical between CPython
and numpy:

* element-wise ``+ - * /``, ``maximum``, ``floor`` and comparisons,
* ``cumprod`` / ``cumsum``, which multiply/add strictly left-to-right —
  the same association order as the oracle's sequential loops,
* first-occurrence ``argmin`` / ``argmax`` (the oracle's greedy
  least-loaded scans also keep the first minimum),
* ``kind="stable"`` ``argsort`` on negated keys, matching CPython's
  stable descending sort.

The batch dimension is the vector axis; reductions *within* one
set/core accumulate in the oracle's order.  Partitioner kernels are
verdict-only: they track exactly the state that decides success
(core/group loads, failure flags, blocking terms) and never materialise
:class:`Assignment` objects.

Generation keeps only the draws per set: seed the generator, draw the
``2n−1`` ``random()`` values (n−1 UUniFast variates, then n period
variates) and call ``rng.sample``, in the oracle's stream order.  The
rest runs once over the batch: the UUniFast powers through one flat
``map(pow, ...)``, the remaining-utilisation recurrence as one
``cumprod(axis=1)``, the log-periods as ``log_lo + (log_hi−log_lo)·r``
(exactly ``random.uniform``) and ``map(math.exp, ...)``.  A row whose
first UUniFast draw breaks ``max_task_utilization`` is regenerated by
the scalar per-set path, since the oracle's retries shift its later
draws.  ``np.power``/``np.exp`` are avoided (SIMD builds can differ
from libm in the last ulp), and so is numpy's MT19937 (its legacy
seeding does not reproduce ``random.Random``'s).

HMR's blocking term is found by a sort, not a pairwise broadcast: see
:func:`_hmr_blocked`.
"""

from __future__ import annotations

import math
from itertools import repeat, starmap

import numpy as np

from ...errors import PartitioningError, TaskModelError
from ..model import OPT_V2_FACTOR, OPT_V3_FACTOR
from ..uunifast import class_counts, seeded_rng
from .base import SchedBackend, TaskSetBatch

_OVER = 1.0 + 1e-12   # the partitioners' load threshold, verbatim


class _ClassView:
    """One reliability class of a uniform sub-batch, sorted by
    descending utilisation (stable, matching the scalar partitioners'
    ``sorted(..., key=utilization, reverse=True)``)."""

    __slots__ = ("u", "w", "t", "k")

    def __init__(self, u, w, t):
        self.u, self.w, self.t = u, w, t
        self.k = int(u.shape[1])

    def rows(self, mask) -> "_ClassView":
        return _ClassView(self.u[mask], self.w[mask], self.t[mask])


def _sorted_class_view(W, T, U, codes, code: int) -> _ClassView:
    B, _ = W.shape
    mask = codes == code
    k = int(mask[0].sum()) if B else 0
    if k == 0:
        empty = np.empty((B, 0))
        return _ClassView(empty, empty, empty)
    r, c = np.nonzero(mask)
    u = U[r, c].reshape(B, k)
    w = W[r, c].reshape(B, k)
    t = T[r, c].reshape(B, k)
    order = np.argsort(-u, axis=1, kind="stable")
    return _ClassView(np.take_along_axis(u, order, 1),
                      np.take_along_axis(w, order, 1),
                      np.take_along_axis(t, order, 1))


# ---------------------------------------------------------------------------
# partitioner kernels (verdict-only, batch-vectorized)
# ---------------------------------------------------------------------------


def _needed_cores(v3: _ClassView, v2: _ClassView) -> int:
    return 1 + (2 if v3.k else (1 if v2.k else 0))


def _flexstep_pass(v3: _ClassView, v2: _ClassView, tn: _ClassView,
                   m: int, virtual: bool):
    """One Algorithm 3 run (strict or relaxed) over the sub-batch."""
    B = v3.u.shape[0]
    rows = np.arange(B)
    loads = np.zeros((B, m))

    def place(delta, exclude):
        if exclude:
            masked = loads.copy()
            for k in exclude:
                masked[rows, k] = np.inf
        else:
            masked = loads
        k = masked.argmin(axis=1)
        loads[rows, k] += delta
        return k

    for view, copies, factor in ((v3, 2, OPT_V3_FACTOR),
                                 (v2, 1, OPT_V2_FACTOR)):
        if not view.k:
            continue
        if virtual:
            vd = factor * view.t          # D' = factor * D
            d_o = view.w / vd             # δo = C / D'
            d_v = view.w / (view.t - vd)  # δv = C / (D − D')
        else:
            d_o = d_v = view.u
        for j in range(view.k):
            k1 = place(d_o[:, j], ())
            k2 = place(d_v[:, j], (k1,))
            if copies == 2:
                place(d_v[:, j], (k1, k2))
    for j in range(tn.k):
        place(tn.u[:, j], ())
    return ~(loads > _OVER).any(axis=1)


def _flexstep(v3: _ClassView, v2: _ClassView, tn: _ClassView, m: int):
    """Algorithm 3 with the paper's fallback: strict first, the relaxed
    variant for the rows it rejects."""
    B = v3.u.shape[0]
    if m < _needed_cores(v3, v2):
        return np.zeros(B, bool)
    ok = _flexstep_pass(v3, v2, tn, m, virtual=True)
    retry = ~ok
    if retry.any():
        ok[retry] = _flexstep_pass(v3.rows(retry), v2.rows(retry),
                                   tn.rows(retry), m, virtual=False)
    return ok


def _lockstep(v3: _ClassView, v2: _ClassView, tn: _ClassView, m: int):
    B = v3.u.shape[0]
    rows = np.arange(B)
    # every group consumes >= 2 cores except one possible spare single
    G = m // 2 + 1
    group_loads = np.full((B, G), np.inf)
    gcount = np.zeros(B, np.int64)
    cores_left = np.full(B, m, np.int64)
    failed = np.zeros(B, bool)
    for view, checkers in ((v3, 2), (v2, 1)):
        width = checkers + 1
        cur = np.full(B, -1, np.int64)     # phase-current group slot
        for j in range(view.k):
            u = view.u[:, j]
            act = ~failed
            has_cur = cur >= 0
            cur_load = np.where(
                has_cur, group_loads[rows, np.where(has_cur, cur, 0)],
                np.inf)
            need_new = ~has_cur | (cur_load + u > 1.0)
            can_open = cores_left >= width
            failed |= act & need_new & ~can_open
            opening = act & need_new & can_open
            ro = np.nonzero(opening)[0]
            if ro.size:
                slots = gcount[ro]
                group_loads[ro, slots] = 0.0
                cur[ro] = slots
                gcount[ro] += 1
                cores_left[ro] -= width
            ra = np.nonzero((act & ~need_new) | opening)[0]
            if ra.size:
                group_loads[ra, cur[ra]] += u[ra]
    # pair the remaining fabric into DCLS groups + one T_N-only spare
    pairs = cores_left // 2
    extra = pairs + (cores_left - 2 * pairs)
    slots2d = np.arange(G)[None, :]
    fresh = (slots2d >= gcount[:, None]) \
        & (slots2d < (gcount + extra)[:, None])
    group_loads[fresh] = 0.0
    gcount = gcount + extra
    failed |= (gcount == 0) & ((v3.k + v2.k + tn.k) > 0)
    for j in range(tn.k):
        sel = group_loads.argmin(axis=1)
        group_loads[rows, sel] += tn.u[:, j]
    over = ((group_loads > _OVER)
            & np.isfinite(group_loads)).any(axis=1)
    return ~failed & ~over


def _hmr(v3: _ClassView, v2: _ClassView, tn: _ClassView, m: int):
    B = v3.u.shape[0]
    rows = np.arange(B)
    if m < _needed_cores(v3, v2):
        return np.zeros(B, bool)
    G = max(v3.k + v2.k, 1)            # at most one group per verif task
    group_loads = np.full((B, G), np.inf)
    group_width = np.zeros((B, G), np.int64)
    group_start = np.zeros((B, G), np.int64)
    gcount = np.zeros(B, np.int64)
    free_start = np.zeros(B, np.int64)   # cores are taken from the front
    failed = np.zeros(B, bool)
    loads = np.zeros((B, m))
    v_start = np.zeros((B, v3.k + v2.k), np.int64)   # each task's group
    for view, width, first in ((v3, 3, 0), (v2, 2, v3.k)):
        for j in range(view.k):
            u = view.u[:, j]
            act = ~failed
            # first-fit-decreasing: earliest group (creation order) that
            # is wide enough and still fits the utilisation
            fits = (group_width >= width) \
                & (group_loads + u[:, None] <= 1.0)
            has_fit = fits.any(axis=1)
            sel = fits.argmax(axis=1)
            can_open = (m - free_start) >= width
            failed |= act & ~has_fit & ~can_open
            opening = act & ~has_fit & can_open
            ro = np.nonzero(opening)[0]
            if ro.size:
                slots = gcount[ro]
                group_width[ro, slots] = width
                group_start[ro, slots] = free_start[ro]
                group_loads[ro, slots] = 0.0
                sel[ro] = slots
                free_start[ro] += width
                gcount[ro] += 1
            ra = np.nonzero((act & has_fit) | opening)[0]
            if ra.size:
                gsel = sel[ra]
                group_loads[ra, gsel] += u[ra]
                starts = group_start[ra, gsel]
                v_start[ra, first + j] = starts
                for o in range(width):
                    loads[ra, starts + o] += u[ra]
    # non-verification tasks: clean cores (those past ``free_start``)
    # first, least-loaded fallback; a row without a clean core sees
    # only inf in ``loads_clean`` and always falls back
    loads_clean = np.where(np.arange(m) < free_start[:, None], np.inf,
                           loads)
    tn_core = np.zeros((B, tn.k), np.int64)
    for j in range(tn.k):
        u = tn.u[:, j]
        clean = loads_clean.argmin(axis=1)
        core = np.where(loads_clean[rows, clean] + u <= 1.0, clean,
                        loads.argmin(axis=1))
        loads[rows, core] += u
        loads_clean[rows, core] += u     # inf stays inf
        tn_core[:, j] = core
    ok = ~failed & ~(loads > _OVER).any(axis=1)
    # only a row that passed so far and put a T_N task on a
    # verification core can be blocked
    live = np.nonzero(ok & (tn_core < free_start[:, None]).any(axis=1))[0]
    if live.size:
        s3, s2 = v_start[live, :v3.k], v_start[live, v3.k:]
        vp_core = np.concatenate([s3 + o for o in range(3)]
                                 + [s2 + o for o in range(2)], axis=1)
        vp_w = np.concatenate([v3.w[live]] * 3 + [v2.w[live]] * 2, axis=1)
        vp_d = np.concatenate([v3.t[live]] * 3 + [v2.t[live]] * 2, axis=1)
        ok[live] = ~_hmr_blocked(tn.t[live], tn_core[live], vp_core, vp_w,
                                 vp_d, loads[live],
                                 int(free_start[live].max()))
    return ok


def _hmr_blocked(tn_t, tn_core, vp_core, vp_w, vp_d, loads, n_verif):
    """HMR's non-preemptive blocking test, per row.

    T_N task τj is blocked when ``U_core + B_j / D_j > 1``, with B_j the
    largest WCET among verification copies on τj's core with a longer
    deadline.  One stable sort by descending deadline puts every such
    copy ahead of τj; T_N items come first, so an equal deadline never
    blocks (the test is strict).  A per-core running max of the copies'
    WCETs in that order then reads B_j off at τj's position.  Work is at
    core level: a T_V2 task in a width-3 group covers two of its cores.
    """
    k = tn_t.shape[1]
    keys = np.concatenate((-tn_t, -vp_d), axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    core_s = np.take_along_axis(np.concatenate((tn_core, vp_core), axis=1),
                                order, axis=1)
    w_s = np.take_along_axis(np.concatenate((np.zeros(tn_t.shape), vp_w),
                                            axis=1), order, axis=1)
    blocking = np.zeros(w_s.shape)
    run = np.empty(w_s.shape)
    for core in range(n_verif):          # verification cores come first
        on = core_s == core
        np.multiply(w_s, on, out=run)
        np.maximum.accumulate(run, axis=1, out=run)
        np.copyto(blocking, run, where=on)
    deadline = -np.take_along_axis(keys, order, axis=1)
    core_load = np.take_along_axis(loads, core_s, axis=1)
    # a passing row has every core load <= _OVER, so B_j = 0 never fails
    return ((order < k)
            & (core_load + blocking / deadline > _OVER)).any(axis=1)


_KERNELS = {
    "lockstep": _lockstep,
    "hmr": _hmr,
    "flexstep": _flexstep,
}


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class NumpyBackend(SchedBackend):
    """Batch-vectorized evaluation with oracle-identical verdicts."""

    name = "numpy"

    # -- generation -----------------------------------------------------

    @staticmethod
    def _uunifast_values(n, total_utilization, rng, max_task_utilization):
        """UUniFast + the oracle's rejection loop, with the sequential
        ``remaining``-recurrence folded into one ``cumprod``."""
        for _ in range(1000):
            # draws and powers stay scalar: stream + libm identity
            powers = [rng.random() ** (1.0 / (n - i))
                      for i in range(1, n)]
            remaining = np.cumprod(np.array([total_utilization] + powers))
            utils = np.empty(n)
            utils[:n - 1] = remaining[:n - 1] - remaining[1:]
            utils[n - 1] = remaining[n - 1]
            if utils.max() <= max_task_utilization:
                return utils
        raise TaskModelError(
            f"could not draw {n} utilisations summing to "
            f"{total_utilization} with max {max_task_utilization}")

    def _generate_row(self, seed, n, total_utilization, log_lo, log_hi,
                      n_v2, n_v3, max_task_utilization):
        """One set the scalar way, for a row whose first UUniFast draw
        was rejected: the retries shift every later draw in its
        stream."""
        rng = seeded_rng(seed)
        utils = self._uunifast_values(n, total_utilization, rng,
                                      max_task_utilization)
        p = np.array([math.exp(rng.uniform(log_lo, log_hi))
                      for _ in range(n)])
        chosen = rng.sample(range(n), n_v2 + n_v3)
        row_codes = np.zeros(n, np.int8)
        row_codes[chosen[:n_v2]] = 1
        row_codes[chosen[n_v2:]] = 2
        return np.maximum(utils * p, 1e-9), p, row_codes

    def generate_batch(self, *, n, total_utilization, alpha, beta, seeds,
                       period_range=(10.0, 1000.0),
                       max_task_utilization=1.0) -> TaskSetBatch:
        n_v2, n_v3 = class_counts(n, alpha, beta)
        lo, hi = period_range
        if lo <= 0 or hi <= lo:
            raise TaskModelError(f"bad period range {period_range}")
        if n <= 0:
            raise TaskModelError("n must be positive")
        if total_utilization <= 0:
            raise TaskModelError("total utilisation must be positive")
        log_lo, log_hi = math.log(lo), math.log(hi)
        B = len(seeds)
        # per set, only the draws, in the oracle's stream order: n-1
        # UUniFast variates, n period variates, then the class sample
        # (exact as long as the first UUniFast draw is accepted)
        draws: list = []
        chosen = []
        for seed in seeds:
            rng = seeded_rng(seed)
            draws += starmap(rng.random, repeat((), 2 * n - 1))
            chosen.append(rng.sample(range(n), n_v2 + n_v3))
        R = np.array(draws).reshape(B, 2 * n - 1)
        # batch-wide: the powers through libm, like ``**`` in the oracle
        exponents = [1.0 / (n - i) for i in range(1, n)]
        powers = np.fromiter(
            map(pow, R[:, :n - 1].ravel().tolist(), exponents * B),
            float, B * (n - 1)).reshape(B, n - 1)
        remaining = np.cumprod(np.concatenate(
            (np.full((B, 1), total_utilization), powers), axis=1), axis=1)
        utils = np.empty((B, n))
        utils[:, :n - 1] = remaining[:, :n - 1] - remaining[:, 1:]
        utils[:, n - 1] = remaining[:, n - 1]
        # ``random.uniform`` is exactly ``a + (b - a) * random()``
        log_p = log_lo + (log_hi - log_lo) * R[:, n - 1:]
        period = np.fromiter(map(math.exp, log_p.ravel().tolist()),
                             float, B * n).reshape(B, n)
        wcet = np.maximum(utils * period, 1e-9)
        codes = np.zeros((B, n), np.int8)
        picks = np.array(chosen, np.int64).reshape(B, n_v2 + n_v3)
        rows = np.arange(B)[:, None]
        codes[rows, picks[:, :n_v2]] = 1
        codes[rows, picks[:, n_v2:]] = 2
        for b in np.nonzero(utils.max(axis=1) > max_task_utilization)[0]:
            wcet[b], period[b], codes[b] = self._generate_row(
                seeds[b], n, total_utilization, log_lo, log_hi, n_v2,
                n_v3, max_task_utilization)
        if (wcet > period).any():
            raise TaskModelError("task WCET exceeds implicit deadline")
        return TaskSetBatch.from_arrays(wcet, period, codes)

    # -- judging --------------------------------------------------------

    def judge_batch(self, batch, num_cores, schemes):
        """Run the schemes' verdict kernels, per class-count group.

        The kernels assume uniform class counts across their rows; rows
        are grouped by the ``(n_v3, n_v2)`` signature (a single group
        for a Fig. 5 batch, where α/β fix the counts).
        """
        if num_cores < 1:
            raise PartitioningError("need at least one core")
        W, T, codes = batch.as_arrays()
        if W.shape[0] == 0:
            return []
        U = W / T
        n = W.shape[1]
        sig = (codes == 2).sum(axis=1) * (n + 1) + (codes == 1).sum(axis=1)
        out: list = [None] * W.shape[0]
        for sig_val in np.unique(sig):
            idx = np.nonzero(sig == sig_val)[0]
            sub = (W[idx], T[idx], U[idx], codes[idx])
            v3 = _sorted_class_view(*sub, code=2)
            v2 = _sorted_class_view(*sub, code=1)
            tn = _sorted_class_view(*sub, code=0)
            verdicts = {s: _KERNELS[s](v3, v2, tn, num_cores)
                        for s in schemes}
            for pos, b in enumerate(idx):
                out[int(b)] = {s: bool(verdicts[s][pos]) for s in schemes}
        return out
