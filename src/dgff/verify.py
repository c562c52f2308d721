"""The verification ladder: every exact operator identity, then every
distributional claim, in dependency order.

Exact identities are checked at a relative max-norm tolerance (1e-10 by
default, 1e-12 for per-sample algebraic identities). Distributional claims
are Monte Carlo checks with a fixed seed; each empirical moment must sit
within `z_max` standard errors of its exact target. They run on two
streamed noise Gram matrices over the top cluster (see `dgff.sampling`):
one for the grown field, its increments and the pairings, and one, from a
disjoint draw range, for the Cholesky oracle. Each statistical row counts
the M z-scores its maximum is taken over (`entries`) and bounds the chance
that a correct program fails it, M erfc(z_max / sqrt 2), by the union bound
over normal z-scores (`false_alarm_bound`).

Rungs run in order and later rungs reuse earlier operators, but a failure
does not stop the ladder: each rung records its own statistic, or the error
code that prevented it. This is what gives tampering fixtures a precise
failure point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DGFFError
from .foliation import Foliation
from .graph import Graph
from .hadamard import OperatorStack, verify_hadamard_identity, verify_isometry
from .sampling import (
    GaussianStream,
    brownian_check,
    covariance_stderr,
    dgff_block,
    increment_cross_zmax,
    moment_report,
    oracle_moment,
    sweep_average_check,
    two_sample_zmax,
    wnf_block,
)

TOL_EXACT = 1e-10
TOL_STRICT = 1e-12
Z_MAX = 5.0
INCREMENT_SAMPLES = 100


class _Ladder:
    def __init__(self):
        self.checks: list[dict] = []

    def run(self, name: str, kind: str, threshold: float, fn) -> None:
        """Record one rung. A statistical rung's `fn` returns the largest
        |z| and the number of entries it is taken over."""
        row = {"name": name, "kind": kind, "threshold": threshold}
        entries = None
        try:
            stat = fn()
        except DGFFError as e:
            row.update(statistic=None, passed=False, error=e.code, message=str(e))
        else:
            if isinstance(stat, tuple):
                stat, entries = stat
            if stat is None:
                row.update(statistic=None, passed=True, skipped=True)
            else:
                row.update(statistic=float(stat), passed=bool(stat <= threshold))
        if kind == "statistical":
            row["entries"] = entries
            row["false_alarm_bound"] = None if entries is None else min(
                1.0, entries * math.erfc(threshold / math.sqrt(2)))
        self.checks.append(row)


def run_ladder(graph: Graph, fol: Foliation, seed: int = 42, trials: int = 100_000,
               tol_exact: float = TOL_EXACT, tol_strict: float = TOL_STRICT,
               z_max: float = Z_MAX, increment_samples: int = INCREMENT_SAMPLES,
               stack: OperatorStack | None = None, collect_reports: bool = False) -> dict:
    """Run every check on a validated graph + foliation; returns the report.

    A prebuilt (possibly deliberately corrupted) `stack` may be supplied;
    negative-control tests use this to pin down which rung a defect trips.
    With `collect_reports` the result carries the detailed statistical
    reports (empirical and target moments) under a "reports" key.
    """
    if trials < 0:
        raise DGFFError("trials must be nonnegative", code="BadFormat")
    if not all(math.isfinite(t) and t > 0 for t in (tol_exact, tol_strict, z_max)):
        raise DGFFError("tolerances must be finite and positive", code="BadFormat")
    if stack is None:
        stack = OperatorStack(graph, fol)
    depth = stack.depth
    stream = GaussianStream(seed)

    def green_inverse():
        worst = 0.0
        for n in range(depth + 1):
            a = stack.laplacian(n)
            gn = stack.green(n).normalized
            eye = np.eye(a.shape[0])
            worst = max(worst, float(np.abs(a @ gn - eye).max()),
                        float(np.abs(gn @ a - eye).max()))
        return worst

    def green_symmetry():
        worst = 0.0
        for n in range(depth + 1):
            k = stack.green(n)
            weighted = k.pi[:, None] * k.unnormalized
            scale = max(float(np.abs(weighted).max()), 1.0)
            worst = max(worst, float(np.abs(weighted - weighted.T).max()) / scale)
        return worst

    def green_positive():
        worst = 0.0
        for n in range(depth + 1):
            k = stack.green(n)
            scale = max(float(np.abs(k.normalized).max()), 1.0)
            worst = max(worst, max(0.0, -float(k.normalized.min())) / scale,
                        max(0.0, -float(np.diag(k.normalized).min())) / scale)
        return worst

    def poisson_bounds():
        worst = 0.0
        for n in range(depth + 1):
            p = stack.poisson(n)
            worst = max(worst,
                        max(0.0, -float(p.min())),
                        max(0.0, float(p.max()) - 1.0),
                        max(0.0, float(p.sum(axis=1).max()) - 1.0))
        return worst

    def poisson_harmonic():
        worst = 0.0
        for n in range(1, depth + 1):
            a = stack.laplacian(n)
            p = stack.poisson(n)
            interior = a.shape[0] - (stack.cluster(n).layer_start[n + 1]
                                     - stack.cluster(n).layer_start[n])
            resid = (a @ p)[:interior, :]
            worst = max(worst, float(np.abs(resid).max()) / max(float(np.abs(a).max()), 1.0))
        return worst

    def green_variation():
        if depth == 0:
            return None
        worst = 0.0
        for n in range(1, depth + 1):
            scale = max(float(np.abs(stack.green(n).unnormalized).max()), 1.0)
            worst = max(worst, stack.variation_residual(n) / scale)
        return worst

    def green_monotone():
        if depth == 0:
            return None
        worst = 0.0
        for n in range(1, depth + 1):
            g_n = stack.green(n).unnormalized
            k_prev = stack.cluster(n - 1).size
            diff = g_n.copy()
            diff[:k_prev, :k_prev] -= stack.green(n - 1).unnormalized
            scale = max(float(np.abs(g_n).max()), 1.0)
            worst = max(worst, max(0.0, -float(diff.min())) / scale)
        return worst

    def hadamard_identity():
        worst = 0.0
        for n in range(depth + 1):
            gn = stack.green(n).normalized
            scale = max(float(np.abs(gn).max()), 1.0)
            worst = max(worst, verify_hadamard_identity(stack.growth(n), gn) / scale)
        return worst

    def isometry():
        worst = 0.0
        for n in range(depth + 1):
            worst = max(worst, verify_isometry(graph, stack.cluster(n), stack.growth(n)))
        return worst

    def increment_identity():
        if depth == 0:
            return None
        top = stack.cluster(depth)
        block = wnf_block(top.vertices, stream, increment_samples)
        worst = 0.0
        for n in range(1, depth + 1):
            hi = dgff_block(stack, n, block)
            lo = dgff_block(stack, n - 1, block)
            diff = hi.copy()
            diff[:, : lo.shape[1]] -= lo
            layer = top.layer_slice(n)
            other = block[:, layer] @ stack.layer_sqrt(n).T @ stack.poisson(n).T
            scale = max(float(np.abs(diff).max()), 1.0)
            worst = max(worst, float(np.abs(diff - other).max()) / scale)
        return worst

    def increment_harmonic():
        if depth == 0:
            return None
        top = stack.cluster(depth)
        block = wnf_block(top.vertices, stream, increment_samples)
        worst = 0.0
        for n in range(1, depth + 1):
            hi = dgff_block(stack, n, block)
            lo = dgff_block(stack, n - 1, block)
            diff = hi.copy()
            diff[:, : lo.shape[1]] -= lo
            a = stack.laplacian(n)
            interior = stack.cluster(n - 1).size
            resid = (a @ diff.T)[:interior, :]
            scale = max(float(np.abs(diff).max()), 1.0) * max(float(np.abs(a).max()), 1.0)
            worst = max(worst, float(np.abs(resid).max()) / scale)
        return worst

    # "phi": the DGFF noise Gram; "dgff{n}", "oracle{n}": empirical covariances
    mc: dict[str, object] = {}

    def _need(key: str):
        if key not in mc:
            raise DGFFError(f"prerequisite rung did not produce {key!r}",
                            code="PrerequisiteFailed")
        return mc[key]

    reports: dict[str, dict] = {}

    def dgff_covariance():
        mc["phi"] = stream.gram(stack.cluster(depth).vertices, trials)
        worst, entries = 0.0, 0
        for n in range(depth + 1):
            mc[f"dgff{n}"] = mc["phi"].cross(stack.growth(n))
            rep = moment_report(mc[f"dgff{n}"], stack.green(n).normalized, trials, seed)
            worst, entries = max(worst, rep.max_abs_z), entries + rep.entries
            if collect_reports and n == depth:
                reports["covariance"] = rep.to_json()
        return worst, entries

    def oracle_covariance():
        gram = stream.gram(stack.cluster(depth).vertices, trials)
        worst, entries = 0.0, 0
        for n in range(depth + 1):
            mc[f"oracle{n}"] = oracle_moment(stack.green(n), gram)
            rep = moment_report(mc[f"oracle{n}"], stack.green(n).normalized, trials, seed)
            worst, entries = max(worst, rep.max_abs_z), entries + rep.entries
        return worst, entries

    def oracle_agreement():
        worst, entries = 0.0, 0
        for n in range(depth + 1):
            target = stack.green(n).normalized
            worst = max(worst, two_sample_zmax(_need(f"dgff{n}"), trials,
                                               _need(f"oracle{n}"), trials, target))
            entries += int(np.count_nonzero(covariance_stderr(target, trials) > 0))
        return worst, entries

    def increment_independence():
        if depth == 0:
            return None
        return increment_cross_zmax(stack, _need("phi"))

    def brownian():
        top = stack.cluster(depth)
        f = np.zeros(graph.n_vertices)
        f[np.array(top.vertices)] = stream.draw(top.vertices)
        rep = brownian_check(stack, f, trials=trials, seed=seed, gram=mc.get("phi"))
        if collect_reports:
            reports["brownian"] = rep.to_json()
        if rep.pythagoras_residual > tol_strict * max(rep.variance_targets.max(), 1.0):
            return np.inf, rep.entries
        if not rep.targets_monotone:
            return np.inf, rep.entries
        return rep.max_abs_z, rep.entries

    def sweep():
        if depth == 0:
            return None
        base = stack.cluster(1)
        f = np.zeros(graph.n_vertices)
        f[np.array(base.vertices)] = stream.draw(base.vertices)
        rep = sweep_average_check(stack, f, 1, depth, trials=trials, seed=seed,
                                  gram=mc.get("phi"))
        if collect_reports:
            reports["sweep"] = rep.to_json()
        if rep.identity_residual > tol_exact * rep.identity_scale:
            return np.inf, rep.entries
        return rep.max_abs_z, rep.entries

    ladder = _Ladder()
    ladder.run("green_inverse", "exact", tol_exact, green_inverse)
    ladder.run("green_symmetry", "exact", tol_exact, green_symmetry)
    ladder.run("green_positive", "exact", tol_exact, green_positive)
    ladder.run("poisson_bounds", "exact", tol_exact, poisson_bounds)
    ladder.run("poisson_harmonic", "exact", tol_exact, poisson_harmonic)
    ladder.run("green_variation", "exact", tol_exact, green_variation)
    ladder.run("green_monotone", "exact", tol_strict, green_monotone)
    ladder.run("hadamard_identity", "exact", tol_exact, hadamard_identity)
    ladder.run("isometry", "exact", tol_exact, isometry)
    ladder.run("increment_identity", "exact", tol_strict, increment_identity)
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
        "seed": seed,
        "trials": trials,
        "depth": depth,
        "tolerances": {"exact": tol_exact, "strict": tol_strict, "z_max": z_max},
        "checks": ladder.checks,
        "pass": all(row["passed"] for row in ladder.checks),
    }
    if collect_reports:
        out["reports"] = reports
    return out
