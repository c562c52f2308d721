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

No exact rung multiplies two k_n x k_n matrices. Products with the
Laplacian go through the stack's padded neighbour stencil. Two rungs read
the paper's per-level facts instead of a cubic check at every level:

* `hadamard_identity` sums the one-layer residuals
  r_m = |G_m - G_{m-1} + 0 - K_m K_m^T| after the full residual
  |K_0 K_0^T - G_0| of level 0. Q_n is Q_{n-1} + 0 with K_n in the layer-n
  columns by construction, so Q_n Q_n^T grows by exactly K_n K_n^T and the
  sum bounds the full residual |Q_n Q_n^T - G_n| up to rounding.
* `isometry` forms one Dirichlet Gram, of Q_top. Q_n is the leading block
  of Q_top with zeros below, so its Gram is the top Gram's leading k_n
  block, whose residual is part of the top's.

The increment rungs grow their fields with one `dgff_block` call; only
`isometry` assembles a dense Q, Q_top once.

Every rung is a generator with one protocol. An exact rung yields one
statistic per level it reads; `isometry` yields once, for the top level. A
statistical rung yields a (largest |z|, entries) pair per group of
z-scores: one per level for the covariance rungs, one for the increment
cross-covariances and one for each pairing rung. `_Ladder.run` alone
reduces them: the row's statistic is the largest yield, its `entries` the
sum, and a rung that yields nothing, such as the rungs that read levels
n >= 1 on a one-layer foliation, is skipped.

Rungs run in order and later rungs reuse earlier operators, but a failure
does not stop the ladder: each rung records its own statistic, or the error
code that prevented it, a numeric error included. This is what gives
tampering fixtures a precise failure point. Each row also records its wall
time and the part of it spent building operators on first use.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import DGFFError
from .foliation import Foliation
from .graph import Graph
from .hadamard import (
    OperatorStack,
    dirichlet_gram,
    layer_identity_residual,
    oracle_kernels,
    verify_hadamard_identity,
    verify_isometry,
)
from .kernels import STREAM_VERSION
from .sampling import (
    GaussianStream,
    brownian_check,
    dgff_block,
    grown_covariances,
    increment_cross_zmax,
    moment_report,
    sweep_average_check,
    two_sample_zmax,
    wnf_block,
)

TOL_EXACT = 1e-10
TOL_STRICT = 1e-12
Z_MAX = 5.0
INCREMENT_SAMPLES = 100


class _Refuted(Exception):
    """A statistical rung's exact part failed, so it has no z statistic."""


class _Ladder:
    def __init__(self, stack: OperatorStack):
        self.stack = stack
        self.checks: list[dict] = []

    def run(self, name: str, kind: str, threshold: float, rung) -> None:
        """Record one rung, the seconds it took and the part of them spent
        building operators on first use.

        `rung()` is a generator. An exact rung yields one statistic per
        level it reads, a statistical rung a (largest |z|, entries) pair per
        group of z-scores. The row's statistic is the largest yield, its
        `entries` their sum, and a rung that yields nothing is skipped. A
        statistic is never a non-finite number: such a rung records null
        with a `reason`, and so does a rung that raises `_Refuted`, which
        keeps its entries. A rung that raises anything else records null
        with an `error` code, whatever it yielded before."""
        row = {"name": name, "kind": kind, "threshold": threshold}
        stats, entries = [], None
        start, built = time.perf_counter(), self.stack.build_seconds
        try:
            for stat in rung():
                if kind == "statistical":
                    stat, m = stat
                    entries = (entries or 0) + m
                stats.append(stat)
        except (DGFFError, np.linalg.LinAlgError, FloatingPointError) as e:
            code = e.code if isinstance(e, DGFFError) else "NumericError"
            row.update(statistic=None, passed=False, error=code, message=str(e))
            entries = None
        except _Refuted as e:
            row.update(statistic=None, passed=False, reason=str(e))
        else:
            stat = float(np.max(stats)) if stats else None  # np.max keeps a NaN
            if stat is None:
                row.update(statistic=None, passed=True, skipped=True)
            elif not math.isfinite(stat):
                row.update(statistic=None, passed=False, reason=f"statistic is {stat}")
            else:
                row.update(statistic=stat, passed=bool(stat <= threshold))
        if kind == "statistical":
            row["entries"] = entries
            row["false_alarm_bound"] = None if entries is None else min(
                1.0, entries * math.erfc(threshold / math.sqrt(2)))
        row["seconds"] = time.perf_counter() - start
        row["build_seconds"] = self.stack.build_seconds - built
        self.checks.append(row)


def run_ladder(graph: Graph, fol: Foliation, seed: int = 42, trials: int = 100_000,
               tol_exact: float = TOL_EXACT, z_max: float = Z_MAX,
               stack: OperatorStack | None = None, collect_reports: bool = False) -> dict:
    """Run every check on a validated graph + foliation; returns the report.

    A prebuilt (possibly deliberately corrupted) `stack` may be supplied;
    negative-control tests use this to pin down which rung a defect trips.
    With `collect_reports` the result carries the detailed statistical
    reports (empirical and target moments) under a "reports" key.
    """
    if trials < 0:
        raise DGFFError("trials must be nonnegative", code="BadFormat")
    if not all(math.isfinite(t) and t > 0 for t in (tol_exact, z_max)):
        raise DGFFError("tolerances must be finite and positive", code="BadFormat")
    if stack is None:
        stack = OperatorStack(graph, fol)
    depth = stack.depth
    stream = GaussianStream(seed)

    def green_inverse():
        for n in range(depth + 1):
            st = stack.stencil(n)
            gn = stack.green(n).normalized
            products = [st.apply(gn)]
            if not (st.symmetric and np.array_equal(gn, gn.T)):
                products.append(st.apply(gn.T, transpose=True).T)  # G A = (A^T G^T)^T
            for prod in products:
                prod.flat[::st.size + 1] -= 1.0
            yield max(float(np.abs(prod).max()) for prod in products)

    def green_symmetry():
        for n in range(depth + 1):
            k = stack.green(n)
            weighted = k.pi[:, None] * k.unnormalized
            scale = max(float(np.abs(weighted).max()), 1.0)
            yield float(np.abs(weighted - weighted.T).max()) / scale

    def green_positive():
        for n in range(depth + 1):
            k = stack.green(n)
            scale = max(float(np.abs(k.normalized).max()), 1.0)
            yield max(0.0, -float(k.normalized.min())) / scale

    def poisson_bounds():
        for n in range(depth + 1):
            p = stack.poisson(n)
            yield max(0.0, -float(p.min()), float(p.max()) - 1.0,
                      float(p.sum(axis=1).max()) - 1.0)

    def poisson_harmonic():
        for n in range(1, depth + 1):
            st = stack.stencil(n)
            resid = st.apply(stack.poisson(n), rows=stack.cluster(n - 1).size)
            yield float(np.abs(resid).max()) / max(float(np.abs(st.val).max()), 1.0)

    def green_variation():
        for n in range(1, depth + 1):
            scale = max(float(np.abs(stack.green(n).unnormalized).max()), 1.0)
            yield stack.variation_residual(n) / scale

    def green_monotone():
        for n in range(1, depth + 1):
            diff = stack.green(n).unnormalized  # a fresh array
            scale = max(float(np.abs(diff).max()), 1.0)
            k_prev = stack.cluster(n - 1).size
            diff[:k_prev, :k_prev] -= stack.green(n - 1).unnormalized
            yield max(0.0, -float(diff.min())) / scale

    def hadamard_identity():
        # `bound` >= |Q_n Q_n^T - G_n|: the full residual at level 0 (Q_0 is
        # K_0), then level n-1's bound plus the one-layer residual
        g0, k0 = stack.green(0).normalized, stack.kernel(0)
        bound = verify_hadamard_identity(k0 @ k0.T, g0)
        yield bound / max(float(np.abs(g0).max()), 1.0)
        for n in range(1, depth + 1):
            gn = stack.green(n).normalized
            bound += layer_identity_residual(gn, stack.green(n - 1).normalized,
                                             stack.kernel(n))
            yield bound / max(float(np.abs(gn).max()), 1.0)

    def isometry():
        # level n's Gram is the top Gram's leading k_n block, so the top's
        # residual is the largest over the levels
        yield verify_isometry(dirichlet_gram(graph, stack.cluster(depth), stack.growth(depth)))

    def increments():
        """(n, noise block, Psi_n - Psi_{n-1}) for n = 1..N, the fields
        grown from one fresh block of top-cluster noise."""
        if depth == 0:
            return  # no increment, so draw no noise
        block = wnf_block(stack.cluster(depth).vertices, stream, INCREMENT_SAMPLES)
        fields = dgff_block(stack, block)
        for n in range(1, depth + 1):
            diff = fields[n].copy()
            diff[:, : fields[n - 1].shape[1]] -= fields[n - 1]
            yield n, block, diff

    def increment_identity():
        top = stack.cluster(depth)
        for n, block, diff in increments():
            other = block[:, top.layer_slice(n)] @ stack.layer_sqrt(n).T @ stack.poisson(n).T
            scale = max(float(np.abs(diff).max()), 1.0)
            yield float(np.abs(diff - other).max()) / scale

    def increment_harmonic():
        for n, _, diff in increments():
            st = stack.stencil(n)
            resid = st.apply(diff.T, rows=stack.cluster(n - 1).size)
            scale = max(float(np.abs(diff).max()), 1.0) * max(float(np.abs(st.val).max()), 1.0)
            yield float(np.abs(resid).max()) / scale

    # "phi": the DGFF noise Gram; "dgff", "oracle": per-level empirical covariances
    mc: dict[str, object] = {}

    def _need(key: str):
        if key not in mc:
            raise DGFFError(f"prerequisite rung did not produce {key!r}",
                            code="PrerequisiteFailed")
        return mc[key]

    reports: dict[str, dict] = {}

    def dgff_covariance():
        mc["phi"] = stream.gram(stack.cluster(depth).vertices, trials)
        mc["dgff"] = grown_covariances([stack.kernel(n) for n in range(depth + 1)], mc["phi"])
        for n, emp in enumerate(mc["dgff"]):
            rep = moment_report(emp, stack.green(n).normalized, trials, seed)
            yield rep.max_abs_z, rep.entries
        if collect_reports:
            reports["covariance"] = rep.to_json()  # the top level's

    def oracle_covariance():
        gram = stream.gram(stack.cluster(depth).vertices, trials)
        mc["oracle"] = grown_covariances(oracle_kernels(graph, stack.cluster(depth)), gram)
        for n, emp in enumerate(mc["oracle"]):
            rep = moment_report(emp, stack.green(n).normalized, trials, seed)
            yield rep.max_abs_z, rep.entries

    def oracle_agreement():
        for n, (a, b) in enumerate(zip(_need("dgff"), _need("oracle"))):
            yield two_sample_zmax(a, b, trials, stack.green(n).normalized)

    def increment_independence():
        if depth:  # Psi_0 alone has no increment to be independent of
            yield increment_cross_zmax(stack, _need("phi"))

    def pairing(clu, check, key):
        """Score `check`'s coefficient rows for a fresh noise vector f on
        `clu` against the field's noise Gram; returns `check`'s report."""
        f = np.zeros(graph.n_vertices)
        f[np.array(clu.vertices)] = stream.draw(clu.vertices)
        rep = check(stack, f)
        cov = moment_report(_need("phi").cross(rep.coef), rep.target, trials, seed)
        if collect_reports:
            reports[key] = rep.to_json(cov)
        yield cov.max_abs_z, cov.entries
        return rep

    def brownian():
        rep = yield from pairing(stack.cluster(depth), brownian_check, "brownian")
        if rep.pythagoras_residual > TOL_STRICT * max(rep.variance_targets.max(), 1.0):
            raise _Refuted("Pythagoras residual |f_n^T G_n f_n - T_n| "
                           f"{rep.pythagoras_residual:.3g} exceeds the strict tolerance")
        if not rep.targets_monotone:
            raise _Refuted("Green energies f_n^T G_n f_n are not monotone in n")

    def sweep():
        if depth == 0:
            return  # no cluster 1 to sweep from
        rep = yield from pairing(stack.cluster(1), sweep_average_check, "sweep")
        if rep.identity_residual > tol_exact * rep.identity_scale:
            raise _Refuted(f"boundary-average identity residual {rep.identity_residual:.3g} "
                           "exceeds the exact tolerance")

    ladder = _Ladder(stack)
    ladder.run("green_inverse", "exact", tol_exact, green_inverse)
    ladder.run("green_symmetry", "exact", tol_exact, green_symmetry)
    ladder.run("green_positive", "exact", tol_exact, green_positive)
    ladder.run("poisson_bounds", "exact", tol_exact, poisson_bounds)
    ladder.run("poisson_harmonic", "exact", tol_exact, poisson_harmonic)
    ladder.run("green_variation", "exact", tol_exact, green_variation)
    ladder.run("green_monotone", "exact", TOL_STRICT, green_monotone)
    ladder.run("hadamard_identity", "exact", tol_exact, hadamard_identity)
    ladder.run("isometry", "exact", tol_exact, isometry)
    ladder.run("increment_identity", "exact", TOL_STRICT, increment_identity)
    ladder.run("increment_harmonic", "exact", tol_exact, increment_harmonic)
    if trials:
        ladder.run("dgff_covariance", "statistical", z_max, dgff_covariance)
        ladder.run("oracle_covariance", "statistical", z_max, oracle_covariance)
        ladder.run("oracle_agreement", "statistical", z_max, oracle_agreement)
        ladder.run("increment_independence", "statistical", z_max, increment_independence)
        ladder.run("brownian_moments", "statistical", z_max, brownian)
        ladder.run("sweep_moments", "statistical", z_max, sweep)

    out = {
        "schema": 1,
        "stream_version": STREAM_VERSION,
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
