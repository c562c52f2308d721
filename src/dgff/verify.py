"""The verification ladder: every exact operator identity, then every
distributional claim, in dependency order.

Exact identities are checked at a relative max-norm tolerance (1e-10 by
default, 1e-12 for per-sample algebraic identities). Distributional claims
are Monte Carlo checks with a fixed seed; each empirical moment must sit
within `z_max` standard errors of its exact target. They run on two
streamed noise Gram matrices over the top cluster (see `dgff.sampling`):
one for the grown field, its increments, the pairings and the boundary
averages, and one, from a disjoint draw range, for the oracle, which reads
the graph's edge list and nothing the stack built (`oracle_kernels`).
The pairings and the averages are scored like the field: `brownian_check`
and `sweep_average_check` build their coefficient rows and exact
covariance, and the rung reads their empirical covariance off the field's
noise Gram. Each statistical row counts the M z-scores its maximum is
taken over (`entries`) and bounds the chance that a correct program fails
it, M erfc(z_max / sqrt 2), by the union bound over normal z-scores
(`false_alarm_bound`).

Every exact rung reads level n's layer step (P_n, B_n, R_n) in round n and
no dense G_n: each Green claim at level n follows from that step and level
n-1, as the paper builds G_n (the recursive Green's function method; see
`dgff.operators`). Write A_n = [[A_{n-1}, U], [U^T, D]], X = -P_n[:k_{n-1}]
and C_n = P_n B_n, which is exactly G_n's layer columns:

* `green_inverse`: the componentwise backward error of the layer columns,
  max |A_n C_n - E| / (|A_n| |C_n| + |E|), E = [0; I] (Oettli & Prager
  1964; Higham 2002, sec. 7.2), through the stencil. It does not grow with
  cond(A_n) as max |A_n G_n - I| does.
* `green_symmetry`: the symmetry of B_n and R_n; G_0 = B_0, and G_n is
  symmetric when G_{n-1} and B_n are.
* `green_positive` and `green_monotone`: the negative part of B_n. The
  increment G_n - (G_{n-1} + 0) is P_n B_n P_n^T and `poisson_bounds` reads
  P_n >= 0; nonnegative sums and products stay so in floating point.
* `green_variation`: a bound on the variation formula's residual for the
  G_n the step assembles (`layer_variation`).
* `hadamard_identity`: |R_n R_n - B_n| and |K_n - P_n R_n|
  (`layer_identity`). With K_m = P_m R_m, P_m >= 0 and row sums <= 1,
  |Q_n Q_n^T - G_n| <= sum_{m <= n} max |R_m R_m - B_m| + eps max diag G_n,
  the rounding term measured, as t_n is below.
* `isometry`: from the edge list and K_n, not the stencil
  (`isometry_readings`): max |D_n^T D_n - I|, D_n the edge rows of K_n,
  and kappa_m max_j ||(A K_n)[:k_m, j]||_2, m < n, which bounds block
  (m, n) = K_m^T (A K_n)[:k_m] by Cauchy-Schwarz, kappa_m the largest
  column 2-norm of K_m. Over levels 0..n they bound max |Q_n^T A Q_n - I|
  in exact arithmetic, and measured, not proved, in floating point.

Given the step, `green_symmetry`, `green_variation` and the second reading
of `hadamard_identity` hold by construction: they read 0 on any build and
trip on a tampered step or kernel.

On the dense G_n that `dgff green` prints: A_n G_n - I is A_n C_n - E in
the layer columns, R_{n-1} - H_n (B_n X^T) in the leading block, with
H_n = (A_n P_n)[:k_{n-1}] (what `poisson_harmonic` reads), and
-(S_n B_n - I) X^T in the layer rows, S_n B_n - I being the layer rows of
A_n C_n - E. So, with l_n = max |A_n C_n - E|, rho the largest absolute
row sum and r_{-1} = 0,

    max |A_n G_n - I| <= r_n = max(l_n, r_{n-1} + rho(H_n) max |B_n X^T|,
                                   rho(S_n B_n - I) max |X|) + t_n,

exactly so in exact arithmetic without t_n = eps rho(A_n) max diag G_n.
That term, like the one above, stands for the rounding of the assembly
and is measured, not proved: the dense residual needed at most 0.075 t_n
on log-uniform 21x21 grids (conductances 10^U(-d, d), d <= 10), and the
recurrence without it fell 6% short at d = 10. Every term is layer-sized:
diag G_n grows by that of X B_n X^T, and |G_ij| <= max diag G.

The ladder is one level-major pass, as the paper grows the cluster. Every
rung is a generator that yields once per level n = 0..N: what it reads at
level n, or None where it reads nothing. Round n advances every rung by one
level (`_Ladder.run`, once per rung and level) and then releases level
n-1's layer step and, with trials, its Green level, and without trials K_n,
which no exact rung reads after round n. Level n reads at most levels n and
n-1, so each level is built once. The exact rungs hold two layer steps and
a kernel, O(k_top |L_top|), and form no k_n x k_n array. Only the Monte
Carlo rungs build Green levels, their target, two at a time, and read every
kernel at their end: O(k_top^2) and the kernels, not sum_n k_n^2. Level N
goes after the top, and a last round runs every rung to its end on kernels
and noise Grams: each rung reads P_n and R_n in round n, where the sweep
collects P_n^* f as `brownian_moments` collects its Green energies. A rung
holds no k_n x k_n array across a yield but its own running state (a
covariance rung's C_n).

Every rung makes or reserves all its draws before its first yield. The
draws come from one counter-based stream, and round 0 advances the rungs
in the ladder's order, so every draw gets the counter it would get if the
rungs ran one after another. The increment rungs draw layer n's columns
of their reserved range in round n (`GaussianStream.reserve`) and grow
Psi_n there by `grow_field`, as `dgff_block` does for `dgff sample`.

An exact rung yields one statistic per level it reads. A statistical rung
yields a (largest |z|, entries) pair per group of z-scores: one per level
for the covariance rungs and for `oracle_agreement`, which scores level n
while both covariances of level n are live, one for the increment
cross-covariances, whose variances it collects from the diagonals of G_n
level by level, and one for each pairing rung (`brownian_moments` collects
its Green energies f_n^T G_n f_n the same way). `_Ladder.run` alone reduces
them: the row's statistic is the largest yield, its `entries` the sum, and
a rung that yields no statistic, such as the rungs that read levels n >= 1
on a one-layer foliation, is skipped.

A failure does not stop the ladder: each rung records its own statistic,
or the error code that prevented it, a numeric error included. This is
what gives tampering fixtures a precise failure point. Each row also
records its wall time and the part of it spent building operators on first
use, summed over its rounds.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DGFFError
from .foliation import Foliation
from .graph import Graph
from .hadamard import OperatorStack, dirichlet_rows, oracle_kernels
from .kernels import STREAM_VERSION
from .operators import Stencil
from .sampling import (
    GaussianStream,
    brownian_check,
    green_energy,
    grow_field,
    grown_covariances,
    increment_cross_zmax,
    moment_report,
    sweep_average_check,
    two_sample_zmax,
)

TOL_EXACT = 1e-10
TOL_STRICT = 1e-12
Z_MAX = 5.0
INCREMENT_SAMPLES = 100


class _Refuted(Exception):
    """A statistical rung's exact part failed, so it has no z statistic."""


@dataclass
class _Rung:
    """A started rung: its generator (None once it has ended), its row, and
    what it has yielded and spent so far."""

    gen: Iterator | None
    row: dict
    stats: list = field(default_factory=list)
    entries: int | None = None
    calls: int = 0
    seconds: float = 0.0
    build_seconds: float = 0.0


class _Ladder:
    def __init__(self, stack: OperatorStack):
        self.stack = stack
        self.checks: list[dict] = []
        self._rungs: dict[str, _Rung] = {}

    def run(self, name: str, kind: str, threshold: float, rung) -> None:
        """Advance one rung by one level; record its row once it ends.

        `rung()` is a generator, started by the first call, which also gives
        the row its place in `checks`. It yields once per level n = 0..N:
        call n advances it to its yield for level n, and call N + 1, after
        the top level, runs it to its end. An exact rung yields statistics,
        a statistical rung (largest |z|, entries) pairs, and None stands for
        no statistic at that level. The row's statistic is the largest
        yield, its `entries` their sum, and a rung that yields no statistic
        is skipped. A statistic is never a non-finite number: such a rung
        records null with a `reason`, and so does a rung that raises
        `_Refuted`, which keeps its entries. A rung that raises anything
        else records null with an `error` code, whatever it yielded before,
        and is not advanced again. The row's seconds, and the part of them
        spent building operators on first use, add up over its calls."""
        r = self._rungs.get(name)
        if r is None:
            r = self._rungs[name] = _Rung(rung(), {"name": name, "kind": kind,
                                                   "threshold": threshold})
            self.checks.append(r.row)
        if r.gen is None:
            return
        to_end, ended, failure = r.calls > self.stack.depth, False, {}
        r.calls += 1
        start, built = time.perf_counter(), self.stack.build_seconds
        try:
            for stat in r.gen:
                if stat is not None:
                    if kind == "statistical":
                        stat, m = stat
                        r.entries = (r.entries or 0) + m
                    r.stats.append(stat)
                if not to_end:
                    break
            else:
                ended = True
        except (DGFFError, np.linalg.LinAlgError, FloatingPointError) as e:
            code = e.code if isinstance(e, DGFFError) else "NumericError"
            ended, failure, r.entries = True, {"error": code, "message": str(e)}, None
        except _Refuted as e:
            ended, failure = True, {"reason": str(e)}
        r.seconds += time.perf_counter() - start
        r.build_seconds += self.stack.build_seconds - built
        if ended:
            r.gen = None
            self._record(r, kind, threshold, failure)

    @staticmethod
    def _record(r: _Rung, kind: str, threshold: float, failure: dict) -> None:
        row = r.row
        stat = float(np.max(r.stats)) if r.stats else None  # np.max keeps a NaN
        if failure:
            row.update(statistic=None, passed=False, **failure)
        elif stat is None:
            row.update(statistic=None, passed=True, skipped=True)
        elif not math.isfinite(stat):
            row.update(statistic=None, passed=False, reason=f"statistic is {stat}")
        else:
            row.update(statistic=stat, passed=bool(stat <= threshold))
        if kind == "statistical":
            row["entries"] = r.entries
            row["false_alarm_bound"] = None if r.entries is None else min(
                1.0, r.entries * math.erfc(threshold / math.sqrt(2)))
        row["seconds"] = r.seconds
        row["build_seconds"] = r.build_seconds


# Per-level readings of the exact rungs, from level n's layer step: none
# reads a Green level or forms a k_n x k_n array.

def _peak(*values) -> float:
    """max(0, *values), NaN if any value is NaN: np.max keeps a NaN that
    Python's max drops unless it comes first. abs() makes a zero +0.0."""
    return abs(float(np.max((0.0, *values))))


def _absmax(m: np.ndarray) -> float:
    """max |m|, without an |m| temporary."""
    return _peak(m.max(), -m.min())


def _scale(m: np.ndarray) -> float:
    """max(max |m|, 1), the denominator of a relative residual."""
    return _peak(m.max(), -m.min(), 1.0)


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T| relative to max(|m|, 1)."""
    return _absmax(m - m.T) / _scale(m)


def _step_asymmetry(stack: OperatorStack, n: int) -> float:
    """The asymmetry of B_n and of R_n."""
    return _peak(_asymmetry(stack.boundary_green(n)), _asymmetry(stack.layer_sqrt(n)))


def _boundary_drop(stack: OperatorStack, n: int) -> float:
    """The largest negative part of B_n relative to max(|B_n|, 1)."""
    b = stack.boundary_green(n)
    return _peak(-b.min()) / _scale(b)


def _poisson_bounds(stack: OperatorStack, n: int) -> float:
    """How far P_n leaves [0, 1], and its row sums 1."""
    p = stack.poisson(n)
    return _peak(-p.min(), p.max() - 1.0, p.sum(axis=1).max() - 1.0)


def _poisson_harmonic(stack: OperatorStack, n: int) -> float:
    """max |(A_n P_n)[:k_{n-1}]| relative to max(|A_n|, 1)."""
    st = stack.stencil(n)
    resid = st.apply(stack.poisson(n), rows=stack.cluster(n - 1).size)
    return _absmax(resid) / _scale(st.val)


def _inverse_error(stack: OperatorStack, n: int) -> float:
    """The componentwise backward error max |A C - E| / (|A| |C| + |E|) of
    level n's layer columns C = P_n B_n, E = [0; I], with |A| the stencil
    of |A|; an entry where both vanish reads 0."""
    st = stack.stencil(n)
    c = stack.poisson(n) @ stack.boundary_green(n)
    eye = np.eye(c.shape[1])
    resid, bound = st.apply(c), Stencil(st.idx, np.abs(st.val)).apply(np.abs(c))
    resid[len(c) - len(eye):] -= eye
    bound[len(c) - len(eye):] += eye
    np.abs(resid, out=resid)
    return _peak(np.divide(resid, bound, out=np.zeros_like(bound), where=bound != 0).max())


def _row_sum(m: np.ndarray) -> float:
    """The largest absolute row sum of m, NaN if m has a NaN."""
    return _peak(np.abs(m).sum(axis=1).max(initial=0.0))


def layer_variation(stack: OperatorStack, n: int) -> float:
    """`green_variation`'s reading at level n >= 1, relative to max(|B_n|, 1).
    With P_n = [P'; P_L], the variation formula's residual for the G_n the
    step assembles is P' ((B_n^T - B_n) / 2) P'^T in the leading block and
    (P_L - I) G_n[L_n, :] in the layer rows, so at most
    max(rho(P')^2 max |B_n - B_n^T| / 2, rho(P_L - I) max(rho(P'), 1) max |B_n|),
    rho the largest absolute row sum. `layer_step` makes it 0."""
    p, b = stack.poisson(n), stack.boundary_green(n)
    inner, layer = p[: len(p) - len(b)], p[len(p) - len(b):]
    rho = _row_sum(inner)
    return _peak(rho * rho * _absmax(b - b.T) / 2.0,
                 _row_sum(layer - np.eye(len(b))) * _peak(rho, 1.0) * _absmax(b)) / _scale(b)


def layer_identity(stack: OperatorStack, n: int) -> float:
    """`hadamard_identity`'s reading at level n: |R_n R_n - B_n| and
    |K_n - P_n R_n|, each relative to max(|B_n|, 1) and max(|K_n|, 1)."""
    b, r, k = stack.boundary_green(n), stack.layer_sqrt(n), stack.kernel(n)
    return _peak(_absmax(r @ r - b) / _scale(b), _absmax(k - stack.poisson(n) @ r) / _scale(k))


def isometry_readings(stack: OperatorStack, n: int) -> Iterator[float]:
    """`isometry`'s readings at levels 0..n, as the module docstring states
    them, from `dirichlet_rows`; only kappa_p is kept from level to level."""
    norms, starts = [], stack.cluster(n).layer_start
    for m, (d, ak) in enumerate(dirichlet_rows(stack, n)):
        gram = d.T @ d
        np.square(ak, out=ak)  # row p of `below`: ||(A K_m)[:k_p, j]||^2
        below = np.add.reduceat(ak, starts[:m], axis=0).cumsum(axis=0) if m else ak
        cross = np.sqrt(below.max(axis=1, initial=0.0)) * norms
        del d, ak, below  # no edge row is held across the yield
        norms.append(float(np.linalg.norm(stack.kernel(m), axis=0).max(initial=0.0)))
        yield _peak(_absmax(gram - np.eye(len(gram))), *cross)


def provenance() -> dict:
    """The builds that fix the bits of a report besides its inputs: the
    normal bitstream is fixed per numpy build and the statistics per BLAS.
    The BLAS name is numpy's own record of its build, None where numpy
    keeps none."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode "dicts"
        blas = None
    return {"dgff": __version__, "numpy": np.__version__, "blas": blas}


def run_ladder(graph: Graph, fol: Foliation, seed: int = 42, trials: int = 100_000,
               tol_exact: float = TOL_EXACT, z_max: float = Z_MAX,
               stack: OperatorStack | None = None, collect_reports: bool = False) -> dict:
    """Run every check on a validated graph + foliation; returns the report.

    A prebuilt (possibly deliberately corrupted) `stack` may be supplied;
    negative-control tests use this to pin down which rung a defect trips.
    The ladder releases each level as it goes: a supplied stack ends with
    no Green level or layer step, and no kernel unless `trials`. With
    `collect_reports` the result carries the detailed statistical reports
    (empirical and target moments) under a "reports" key.
    """
    if trials < 0:
        raise DGFFError("trials must be nonnegative", code="BadFormat")
    if not all(math.isfinite(t) and t > 0 for t in (tol_exact, z_max)):
        raise DGFFError("tolerances must be finite and positive", code="BadFormat")
    if stack is None:
        stack = OperatorStack(graph, fol)
    depth = stack.depth
    stream = GaussianStream(seed)

    def levels(read, start=0):
        """An exact rung that yields read(stack, n) at levels n >= start."""
        yield from (None,) * start
        for n in range(start, depth + 1):
            yield read(stack, n)

    def increments(check):
        """An increment rung on noise reserved in round 0: round n draws z_{L_n},
        grows Psi_n and yields check(n, z_{L_n}, Psi_n - (Psi_{n-1} + 0))."""
        if depth == 0:
            return  # no increment, so draw no noise
        noise = stream.reserve(INCREMENT_SAMPLES)
        psi = grow_field(stack.kernel(0), noise(stack.cluster(0).top_layer), None)
        yield None  # Psi_0 has no increment
        for n in range(1, depth + 1):
            z, prev = noise(stack.cluster(n).top_layer), psi
            psi = grow_field(stack.kernel(n), z, prev)
            diff = psi.copy()
            diff[:, : prev.shape[1]] -= prev
            stat = check(n, z, diff)
            del z, prev, diff  # only Psi_n is held across the yield
            yield stat

    def increment_identity(n, z, diff):
        other = z @ stack.layer_sqrt(n).T @ stack.poisson(n).T
        return _absmax(diff - other) / _scale(diff)

    def increment_harmonic(n, z, diff):
        st = stack.stencil(n)
        resid = st.apply(diff.T, rows=stack.cluster(n - 1).size)
        return _absmax(resid) / (_scale(diff) * _scale(st.val))

    # "phi": the DGFF noise Gram; "dgff", "oracle": (n, C_n), each
    # covariance rung's empirical covariance of the current level
    mc: dict[str, object] = {}

    def _need(key: str, n: int | None = None):
        value = mc.get(key)
        if n is not None and value is not None:
            value = value[1] if value[0] == n else None
        if value is None:
            raise DGFFError(f"prerequisite rung did not produce {key!r}",
                            code="PrerequisiteFailed")
        return value

    reports: dict[str, dict] = {}

    def covariance(key, gram, kernels):
        """A covariance rung, after its draw: C_n scored against G_n level
        by level, and left under mc[key] for `oracle_agreement`."""
        for n, emp in enumerate(grown_covariances(kernels, gram)):
            mc[key] = n, emp
            yield score(key, n, emp)
        del mc[key]

    def score(key, n, emp):
        rep = moment_report(emp, stack.green(n).normalized, trials, seed)
        if collect_reports and key == "dgff" and n == depth:
            reports["covariance"] = rep.to_json()  # the top level's
        return rep.max_abs_z, rep.entries

    def dgff_covariance():
        mc["phi"] = stream.gram(stack.cluster(depth).vertices, trials)
        yield from covariance("dgff", mc["phi"], (stack.kernel(n) for n in range(depth + 1)))

    def oracle_covariance():
        gram = stream.gram(stack.cluster(depth).vertices, trials)
        yield from covariance("oracle", gram, oracle_kernels(graph, stack.cluster(depth)))

    def oracle_agreement():
        for n in range(depth + 1):
            yield two_sample_zmax(_need("dgff", n), _need("oracle", n), trials,
                                  stack.green(n).normalized)

    def increment_independence():
        if not depth:
            return  # Psi_0 alone has no increment to be independent of
        gram, diagonals = _need("phi"), []
        for n in range(depth + 1):
            diagonals.append(np.diag(stack.green(n).normalized).copy())
            yield None
        yield increment_cross_zmax(stack, gram, diagonals)

    def draw_on(clu):
        """A fresh noise vector on `clu`, zero elsewhere."""
        f = np.zeros(graph.n_vertices)
        f[np.array(clu.vertices)] = stream.draw(clu.vertices)
        return f

    def pairing(rep, key):
        """Score a pairing report's coefficient rows against the field's
        noise Gram; with `collect_reports`, keep the report under `key`."""
        cov = moment_report(_need("phi").cross(rep.coef), rep.target, trials, seed)
        if collect_reports:
            reports[key] = rep.to_json(cov)
        return cov.max_abs_z, cov.entries

    def brownian():
        f, energies = draw_on(stack.cluster(depth)), []
        for n in range(depth + 1):
            energies.append(green_energy(stack.green(n), f))
            yield None
        rep = brownian_check(stack, f, energies)
        yield pairing(rep, "brownian")
        if rep.pythagoras_residual > TOL_STRICT * max(rep.variance_targets.max(), 1.0):
            raise _Refuted("Pythagoras residual |f_n^T G_n f_n - T_n| "
                           f"{rep.pythagoras_residual:.3g} exceeds the strict tolerance")
        if not rep.targets_monotone:
            raise _Refuted("Green energies f_n^T G_n f_n are not monotone in n")

    def sweep():
        if depth == 0:
            return  # no cluster 1 to sweep from
        f, sweeps = draw_on(stack.cluster(1)), []
        yield None  # level 0 has no sweep
        for n in range(1, depth + 1):
            sweeps.append(stack.poisson(n).T @ f[np.array(stack.cluster(n).vertices)])
            yield None
        rep = sweep_average_check(stack, f, sweeps)
        yield pairing(rep, "sweep")
        if rep.identity_residual > tol_exact * rep.identity_scale:
            raise _Refuted(f"boundary-average identity residual {rep.identity_residual:.3g} "
                           "exceeds the exact tolerance")

    rungs = [
        ("green_inverse", "exact", tol_exact, lambda: levels(_inverse_error)),
        ("green_symmetry", "exact", tol_exact, lambda: levels(_step_asymmetry)),
        ("green_positive", "exact", tol_exact, lambda: levels(_boundary_drop)),
        ("poisson_bounds", "exact", tol_exact, lambda: levels(_poisson_bounds)),
        # level 0 has no interior, and no level below it
        ("poisson_harmonic", "exact", tol_exact, lambda: levels(_poisson_harmonic, 1)),
        ("green_variation", "exact", tol_exact, lambda: levels(layer_variation, 1)),
        ("green_monotone", "exact", TOL_STRICT, lambda: levels(_boundary_drop, 1)),
        ("hadamard_identity", "exact", tol_exact, lambda: levels(layer_identity)),
        ("isometry", "exact", tol_exact, lambda: isometry_readings(stack, depth)),
        ("increment_identity", "exact", TOL_STRICT, lambda: increments(increment_identity)),
        ("increment_harmonic", "exact", tol_exact, lambda: increments(increment_harmonic)),
    ]
    if trials:
        rungs += [
            ("dgff_covariance", "statistical", z_max, dgff_covariance),
            ("oracle_covariance", "statistical", z_max, oracle_covariance),
            ("oracle_agreement", "statistical", z_max, oracle_agreement),
            ("increment_independence", "statistical", z_max, increment_independence),
            ("brownian_moments", "statistical", z_max, brownian),
            ("sweep_moments", "statistical", z_max, sweep),
        ]
    ladder = _Ladder(stack)
    for n in range(depth + 1):
        for rung in rungs:
            ladder.run(*rung)
        stack.release(n - 1)  # level n + 1 reads levels n and n + 1 only
        if not trials:  # no exact rung reads K_n after round n; the Monte Carlo ends read all
            stack.release_kernel(n)
    stack.release(depth)  # the rungs' ends read only kernels
    for rung in rungs:
        ladder.run(*rung)

    out = {
        "schema": 1,
        "stream_version": STREAM_VERSION,
        "provenance": provenance(),
        "seed": seed,
        "trials": trials,
        "depth": depth,
        "tolerances": {"exact": tol_exact, "strict": TOL_STRICT, "z_max": z_max},
        "checks": ladder.checks,
        "pass": all(row["passed"] for row in ladder.checks),
    }
    if collect_reports:
        out["reports"] = reports
    return out
