"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradTape, Tensor


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_checked: int
    tol: float
    worst_param: int = -1
    worst_entry: int = -1
    worst_fd: float = 0.0
    worst_analytic: float = 0.0

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max_rel_err={self.max_rel_err:.3e} over "
            f"{self.n_checked} entries (tol={self.tol:.1e}); worst at param "
            f"{self.worst_param}, entry {self.worst_entry}: finite difference "
            f"{self.worst_fd:.6e}, tape {self.worst_analytic:.6e}"
        )


# near-zero gradients are compared absolutely, below this relative-error denominator
DENOM_FLOOR = 1e-3
SAMPLE_SEED = 0


def grad_check(
    f,
    params: list[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    sample_size: int = 200,
) -> GradCheckReport:
    """Compare tape gradients of scalar `f(params)` against central differences.

    Checks every parameter entry, or a seeded random subsample of
    `sample_size` entries when there are more. Must run in float64; finite
    differences are not trustworthy in float32. The relative error
    denominator is floored at `DENOM_FLOOR`.
    """
    for i, p in enumerate(params):
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params; param {i} is {p.dtype.name}")

    with GradTape() as tape:
        loss = f(params)
    loss_val = loss.item()
    if not np.isfinite(loss_val):
        raise FloatingPointError(f"grad_check: loss is not finite ({loss_val})")
    analytic = tape.gradients(loss, params)
    del tape   # its closures hold every activation; the probes below need none

    entries = [(pi, ei) for pi, p in enumerate(params) for ei in range(p.size)]
    if len(entries) > sample_size:
        chosen = np.random.default_rng(SAMPLE_SEED).choice(len(entries), size=sample_size,
                                                           replace=False)
        entries = [entries[int(i)] for i in chosen]

    def probe(pi: int, ei: int, step: float) -> float:
        bumped = params[pi].data.copy()
        bumped.flat[ei] += step
        val = f([*params[:pi], Tensor._wrap(bumped), *params[pi + 1:]]).item()
        if not np.isfinite(val):
            raise FloatingPointError(f"grad_check: loss not finite at perturbed param {pi}[{ei}]")
        return val

    report = GradCheckReport(passed=True, max_rel_err=0.0, n_checked=len(entries), tol=tol)
    for pi, ei in entries:
        fd = (probe(pi, ei, eps) - probe(pi, ei, -eps)) / (2.0 * eps)
        an = float(analytic[pi].flat[ei])
        rel = abs(fd - an) / max(abs(fd), abs(an), DENOM_FLOOR)
        if rel > report.max_rel_err:
            report.max_rel_err = rel
            report.worst_param = pi
            report.worst_entry = ei
            report.worst_fd = fd
            report.worst_analytic = an
    report.passed = report.max_rel_err <= tol
    return report
