"""The benchmark's three seeded workloads against the public ``scren`` API.

Each workload builds a pool of inputs from the seed in set-up, runs items in
a closed loop (one caller, one process) and checks every output after the
timed phase.  Item ``i`` uses input ``i % pool``; ``scren`` keeps no cache
across calls, so a pass over a reused input costs what the first one did.

A workload class gives ``min_calls`` (the loop's floor of calls, and the
prefix of calls the traced counts cover), ``items_per_call`` (a call's
latency is split evenly among its items) and ``pool`` (inputs built in
set-up).  ``run(i, checkpoint)`` makes call ``i`` and may call
``checkpoint()`` between steps so that long calls are timed in short
segments; ``failures(i, output)`` counts the call's failed items.

Calls go through module attributes (``scren.scren2``, ``scren.cli.main``) at
call time so that the tracer's wrappers are used in traced runs.

Which per-layer metric should move which end-to-end metric, per workload:

pair_roofs
    ``roof.self_s``, ``roof.s_per_roof`` and ``roof.unconverged_ratio`` (Powell
    search and objective glue) move ``latency_p50_s`` and ``cpu_s``.
    ``tangle.one_tangle.calls``, ``tangle.self_s``,
    ``states.reduced_density.calls`` and ``states.self_s`` (the per-member
    sqrt-roof path, one ``PureState`` per member) move ``latency_p50_s`` via
    the ``two_tangle`` half.  No report work runs here, so a closed-form
    dispatch for qubit pairs in the report layer should change nothing.
sm_nested
    ``roof.self_s``, ``roof.s_per_roof`` and ``roof.unconverged_ratio`` move
    ``latency_p50_s`` and ``cpu_s``.  ``roof.calls_depth1..3``,
    ``monogamy.sm_report.calls``, ``monogamy.self_s`` and
    ``negativity.negativity_pure.calls`` (the nested recursion) move
    ``latency_p50_s``.  A closed-form qubit-pair dispatch should take
    ``roof.calls_depth2`` to about 0 and raise ``tangle.wootters_tangle.calls``.
wclass_verify
    Every roof exits early (probe or ``stop_below``), so the roof search
    metrics should barely move.  ``roof.early_exit_ratio``,
    ``roof.haar_unitary.calls``, ``roof.hjw_ensemble.calls``,
    ``roof.hjw_ensemble.self_s``, ``wclass.self_s``, ``suites.self_s`` and
    ``cli.self_s`` move ``items_per_s``.

On every workload ``roof.raised`` (``ConjectureViolation`` exits at any
depth) moves ``pass_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import scren
import scren.cli


def _haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _rank2_mixture(rng: np.random.Generator, dims: tuple[int, int]) -> "scren.DensityMatrix":
    """Mixture of two Haar-random pure states at a weight drawn from [0.1, 0.9]."""
    psi = _haar_vector(rng, dims[0] * dims[1])
    phi = _haar_vector(rng, dims[0] * dims[1])
    w = rng.uniform(0.1, 0.9)
    mat = w * np.outer(psi, psi.conj()) + (1.0 - w) * np.outer(phi, phi.conj())
    return scren.DensityMatrix(dims, mat)


class PairRoofs:
    """Rank-2 pair states through ``scren2`` and then ``two_tangle``.

    Nearly all the time is the roof search and its two objective paths
    (batched SVD for ``scren2``, per-member sqrt for ``two_tangle``).  Each
    call runs one two-qubit and one qubit-qutrit (3 x 2) state, the two
    items a call's latency is split between, so every run holds both kinds
    in equal share and the per-call times have one mode.  Roofs run at the
    default ``RoofConfig``.
    """

    name = "pair_roofs"
    min_calls = 2
    items_per_call = 2
    pool = 128

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self.inputs = [
            (_rank2_mixture(rng, (2, 2)), _rank2_mixture(rng, (3, 2))) for _ in range(self.pool)
        ]
        self.part = scren.Bipartition((0,), 2)

    def run(self, i: int, checkpoint):
        out = []
        for rho in self.inputs[i % self.pool]:
            scren_value = scren.scren2(rho, self.part)
            checkpoint()
            out.append((scren_value, scren.two_tangle(rho)))
            checkpoint()
        return out

    def failures(self, i: int, output) -> int:
        (qubits, qutrit), ((s22, t22), (s32, _)) = self.inputs[i % self.pool], output
        # acceptance criterion 4: the optimizer matches the Wootters closed form
        exact = scren.wootters_tangle(qubits)
        failed = not (abs(s22 - exact) <= 1e-4 and abs(t22 - exact) <= 1e-4)
        # negativity is convex, so SCREN >= N(rho)^2
        failed += not s32 >= scren.negativity_mixed(qutrit, self.part) ** 2 - 1e-9
        return int(failed)


class SmNested:
    """The m=3 SCREN term on parties (0, 1, 2) of a Haar 4-qubit state.

    This is what ``monogamy._mixed_value`` computes for that term: every
    outer objective evaluation runs an inner report with pair roofs on each
    member.  The inner budget is the program's own (3, 200); only the outer
    budget is cut, from (3, 200) to (1, 20), because a whole 4-qubit report
    takes minutes (415 s at starts=4, iters=200).  Do not lower the inner
    budget: at (1, 60) inner roofs stay unconverged and raise spurious
    ``ConjectureViolation``s.  One term takes about 20 s, so a run may hold
    a single call.
    """

    name = "sm_nested"
    min_calls = 1
    items_per_call = 1
    pool = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        self.inputs = [scren.PureState((2,) * 4, _haar_vector(rng, 16)) for _ in range(self.pool)]
        self.inner = scren.RoofConfig(starts=3, iters=200, seed=seed)
        self.outer = scren.RoofConfig(starts=1, iters=20, seed=seed)

    def run(self, i: int, checkpoint) -> float:
        def residual(member: "scren.PureState") -> float:
            checkpoint()
            return scren.n_scren_pure(member, 0, self.inner)

        rho = scren.reduced_density(self.inputs[i % self.pool], (0, 1, 2))
        return scren.roof_sqrt_functional(rho, residual, self.outer)

    def _eigen_value(self, i: int) -> float:
        """Squared eigendecomposition average, an upper bound on the roof."""
        rho = scren.reduced_density(self.inputs[i % self.pool], (0, 1, 2))
        lam, vecs = np.linalg.eigh(rho.matrix)
        total = 0.0
        for weight, vec in zip(lam, vecs.T):
            if weight > 1e-12:
                member = scren.PureState(rho.dims, vec / np.linalg.norm(vec))
                total += weight * np.sqrt(max(0.0, scren.n_scren_pure(member, 0, self.inner)))
        return total**2

    def failures(self, i: int, output: float) -> int:
        # The search starts from the eigendecomposition, so it can end above
        # that value only by roundoff.
        return 0 if 0.0 <= output <= self._eigen_value(i) + 1e-9 else 1


class WclassVerify:
    """``scren verify wclass --n 5 --d 3`` in-process; each item is one spec.

    Every roof here exits early, by probe or ``stop_below``, at nesting
    depths up to 3, so the time goes to probes, ensembles, reduced states,
    report bookkeeping and JSON.  One CLI call verifies ``items_per_call``
    specs and its latency is split evenly among them.
    """

    name = "wclass_verify"
    min_calls = 4
    items_per_call = 2
    pool = 128

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        self.inputs = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.pool)]

    def run(self, i: int, checkpoint) -> tuple[int, str]:
        argv = ["verify", "wclass", "--n", "5", "--d", "3",
                "--trials", str(self.items_per_call), "--seed", str(self.inputs[i % self.pool])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = scren.cli.main(argv)
        return code, out.getvalue()

    def failures(self, i: int, output: tuple[int, str]) -> int:
        code, text = output
        if code != 0:
            return self.items_per_call
        report = json.loads(text)
        if not report["all_passed"] or len(report["results"]) != self.items_per_call:
            return self.items_per_call
        return 0


WORKLOADS = {w.name: w for w in (PairRoofs, SmNested, WclassVerify)}
