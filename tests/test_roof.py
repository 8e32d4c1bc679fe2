"""Convex-roof engine: ensemble mixing, minimization, and its invariants."""

import math
import pickle
import statistics
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from scren import (
    Bipartition,
    ConjectureViolation,
    DensityMatrix,
    PureState,
    RoofConfig,
    bell_state,
    cren,
    haar_random_state,
    haar_unitary,
    member_average,
    n_scren_pure,
    negativity_mixed,
    negativity_pure,
    reduced_density,
    roof_minimize,
    roof_sqrt_functional,
    scren2,
    three_tangle_rows,
    to_density,
    wootters_tangle,
)
from scren import roof as roof_module
from scren.monogamy import NESTED_CONFIG
from scren.negativity import negativity_rows
from scren.roof import (
    CHORD_COUNT,
    CHORD_SCALAR_MAX_K,
    PROBE_COUNT,
    SQRT_ROOF_FLOOR,
    STENCIL_TRUST,
    _CHORD_DIRECTIONS,
    _STENCIL,
    _checked_rows,
    _chord_chart,
    _chord_rows,
    _chord_search,
    _chord_unitaries,
    _mixed_rows,
    _newton_step,
    _probe_unitaries,
    _route,
    _stack_scores,
)
from scren.wclass import build_state, random_spec

from util import (
    hjw_rows,
    random_local_unitaries,
    random_local_unitaries_mixed,
    random_mixed_state,
    random_rank2_two_qubit,
    reference_chord_roof,
    reference_chord_unitaries,
    reference_mixed_rows,
    reference_newton_step,
)

PART2 = Bipartition((0,), 2)
FAST = RoofConfig(starts=8, iters=600, seed=7)


# ---------------------------------------------------------------------------
# mixing unitaries and ensembles
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        u = haar_unitary(n, rng)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("budget", [{"starts": 0}, {"iters": 0}, {"starts": -2}])
def test_config_rejects_budgets_below_one(budget):
    with pytest.raises(ValueError, match="at least 1"):
        RoofConfig(**budget)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        RoofConfig(seed=-1)


def test_hjw_identity_returns_eigendecomposition():
    rng = np.random.default_rng(1)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    lam, base = rho.support
    rows = hjw_rows(rho, np.eye(2))
    weights = sorted(np.linalg.norm(rows, axis=1) ** 2, reverse=True)
    np.testing.assert_allclose(weights, sorted(lam, reverse=True), atol=1e-12)


def test_hjw_rank_one_gives_single_member():
    psi = bell_state()
    rows = hjw_rows(to_density(psi), np.eye(1))
    assert rows.shape[0] == 1
    overlap = abs(np.vdot(rows[0], psi.amplitudes))
    assert abs(overlap - 1.0) <= 1e-12


def test_hjw_padded_ensemble_reconstructs():
    rng = np.random.default_rng(2)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    u = haar_unitary(3, rng)
    rows = hjw_rows(rho, u)
    assert rows.shape[0] == 3
    assert np.abs(rows.T @ rows.conj() - rho.matrix).max() <= 1e-10


def test_hjw_reconstruction_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rank = int(rng.integers(1, 4))
        rho = random_mixed_state(rng, (2, 2), rank=rank)
        size = len(rho.support[0]) + int(rng.integers(0, 3))
        rows = hjw_rows(rho, haar_unitary(size, rng))
        assert np.abs(rows.T @ rows.conj() - rho.matrix).max() <= 1e-10


def _mixing_inputs(rng, rank, dim=6):
    """A Haar start ``u0`` and ``rank`` unit rows of length ``dim`` to mix."""
    base = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    return haar_unitary(rank, rng), base / np.linalg.norm(base, axis=1, keepdims=True)


def test_rank2_mixing_map_matches_the_eigh_map():
    # both maps round the angle |theta| to a double, so beyond |theta| = 1
    # they part by up to about 1.2e-16 |theta| (1.2e-13 at |theta| = 1e3)
    rng = np.random.default_rng(40)
    sizes = [1e-12, 3e-12, 1e-8, 1e-3, 0.5, 1.0, np.pi, 2 * np.pi, 10.0, 123.4, 1e3]
    sizes += list(10.0 ** rng.uniform(-12, 3, 200))
    for size in sizes:
        theta = rng.standard_normal(2)
        theta *= size / np.linalg.norm(theta)
        u0, base = _mixing_inputs(rng, 2)
        gap = np.abs(_mixed_rows(theta, u0, base) - reference_mixed_rows(theta, u0, base)).max()
        assert gap <= 1e-14 + 1e-15 * size
        unitary = _mixed_rows(theta, np.eye(2), np.eye(2))
        assert np.abs(unitary.conj().T @ unitary - np.eye(2)).max() <= 1e-14


def test_mixing_map_at_zero_is_the_start_bit_for_bit():
    rng = np.random.default_rng(41)
    for rank in (2, 3, 4):
        u0, base = _mixing_inputs(rng, rank)
        assert np.array_equal(_mixed_rows(np.zeros(rank * (rank - 1)), u0, base), u0 @ base)


@pytest.mark.parametrize("rank", [2, 3])
def test_mixing_map_without_a_start_is_the_identity_start_bit_for_bit(rank):
    # u0=None skips the product with the identity and changes no bit, on the
    # rank-2 closed form and on the eigh branch
    rng = np.random.default_rng(44 + rank)
    for size in (1e-12, 1e-3, 1.0, 1e3):
        theta = rng.standard_normal(rank * (rank - 1))
        theta *= size / np.linalg.norm(theta)
        _, base = _mixing_inputs(rng, rank)
        eye = np.eye(rank, dtype=complex)
        assert _mixed_rows(theta, None, base).tobytes() == _mixed_rows(theta, eye, base).tobytes()


@pytest.mark.parametrize("rank", [3, 4])
def test_mixing_map_above_rank_2_equals_the_eigh_map_bit_for_bit(rank):
    rng = np.random.default_rng(42 + rank)
    for size in (1e-12, 1e-3, 1.0, 1e3):
        theta = rng.standard_normal(rank * (rank - 1))
        theta *= size / np.linalg.norm(theta)
        u0, base = _mixing_inputs(rng, rank)
        assert np.array_equal(_mixed_rows(theta, u0, base), reference_mixed_rows(theta, u0, base))


# ---------------------------------------------------------------------------
# roof_minimize basics
# ---------------------------------------------------------------------------

def test_pure_input_evaluates_objective_directly():
    psi = bell_state()
    res = roof_minimize(
        to_density(psi), member_average(psi.dims, lambda s: negativity_pure(s, PART2)), FAST
    )
    assert res.starts == 0 and res.converged
    assert res.exit == "rank1"
    assert abs(res.value - 1.0) <= 1e-12


def test_constant_objective_returns_constant():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    res = roof_minimize(rho, member_average(rho.dims, lambda s: 0.7), FAST)
    assert abs(res.value - 0.7) <= 1e-12
    assert res.starts == 0  # detected as decomposition independent
    assert res.exit == "probe"


def test_value_matches_ensemble_average():
    rng = np.random.default_rng(8)
    rho = random_rank2_two_qubit(rng)
    objective = lambda s: negativity_pure(s, PART2)
    res = roof_minimize(rho, member_average(rho.dims, objective), FAST)
    assert abs(res.value - member_average(rho.dims, objective)(res.rows).sum()) <= 1e-9
    assert np.abs(res.rows.T @ res.rows.conj() - rho.matrix).max() <= 1e-10
    assert not res.rows.flags.writeable


def test_value_upper_bounded_by_eigendecomposition_average():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_mixed_state(rng, (2, 2), rank=int(rng.integers(2, 4)))
        eigen_avg = member_average(rho.dims, lambda s: negativity_pure(s, PART2))(
            hjw_rows(rho, np.eye(len(rho.support[0])))
        ).sum()
        assert cren(rho, PART2, FAST) <= eigen_avg + 1e-9


def _recorded(objective, rank):
    """``objective`` wrapped to record each decomposition's average, and the record."""
    averages = []

    def recorded(rows):
        values = objective(rows)
        averages.extend(values.reshape(-1, rank).sum(axis=1))
        return values

    return recorded, averages


def _scored_search_inputs():
    """(state, objective) pairs that run the multi-start search: three rank-3
    2 x 2 pairs, a rank-2 3 x 3 pair and the rank-2 (2, 2, 2) three-tangle
    term of a Haar 4-qubit state."""
    pairs = [(10, (2, 2), 3), (11, (2, 2), 3), (12, (2, 2), 3), (200, (3, 3), 2)]
    for seed, dims, rank in pairs:
        rho = random_mixed_state(np.random.default_rng(seed), dims, rank=rank)
        yield rho, member_average(rho.dims, lambda s: negativity_pure(s, PART2))
    psi = haar_random_state((2,) * 4, np.random.default_rng(3))
    yield reduced_density(psi, (0, 1, 2)), lambda rows: np.sqrt(three_tangle_rows(rows))


def test_value_bounds_every_scored_decomposition():
    # a searched roof runs every start, and the value is the least
    # decomposition average the roof scored; on the rank-3 states Powell's
    # end point scores up to 7.6e-12 above that least average
    for rho, objective in _scored_search_inputs():
        recorded, averages = _recorded(objective, len(rho.support[0]))
        res = roof_minimize(rho, recorded, FAST)
        assert res.exit == "search"
        assert res.starts == FAST.starts
        assert len(averages) == res.evals
        assert res.value == min(averages)


def test_search_starts_are_free_of_support_phases():
    # the same rank-3 state with its cached support rows rephased: the
    # search fixes each row's phase after the probe, so its first start
    # scores the same decomposition on both, to roundoff
    rng = np.random.default_rng(32)
    psi = haar_random_state((3, 3, 3), rng)
    rho, rephased = reduced_density(psi, (0, 1)), reduced_density(psi, (0, 1))
    lam, rows = rho.support
    rephased.__dict__["support"] = (lam, rows * np.exp(2j * np.pi * rng.random(3))[:, None])
    first_starts = []
    for state in (rho, rephased):
        recorded = []
        objective = negativity_rows(state.dims, PART2)
        result = roof_minimize(
            state, lambda rows: recorded.append(rows) or objective(rows), RoofConfig(1, 20, 5)
        )
        assert result.exit == "search"
        # the eigendecomposition, the probe, then the identity start
        first_starts.append(recorded[2])
    assert np.abs(first_starts[0] - first_starts[1]).max() <= 1e-15


def test_converged_means_the_run_behind_the_value_stopped_on_its_tolerances():
    # a rank-3 search that spends every start's and the polish's budget
    rho = reduced_density(haar_random_state((3, 2, 3), np.random.default_rng(34)), (0, 1))
    config = RoofConfig(starts=2, iters=300, seed=0)
    _, result = scren2(rho, PART2, config, full_output=True)
    assert result.exit == "search"
    assert result.evals == 1 + PROBE_COUNT + config.starts * config.iters + config.iters // 2
    assert result.converged is False
    # a rank-2 three-tangle term whose runs stop short of their budget
    rho = reduced_density(haar_random_state((2,) * 4, np.random.default_rng(0)), (0, 1, 2))
    config = RoofConfig(starts=3, iters=600, seed=0)
    result = roof_minimize(rho, lambda rows: np.sqrt(three_tangle_rows(rows)), config)
    assert result.exit == "search"
    assert result.evals < 1 + PROBE_COUNT + config.starts * config.iters + config.iters // 2
    assert result.converged is True


def _sm_nested_first_input():
    """The (0, 1, 2) reduction of the first 4-qubit state that the
    ``sm_nested`` benchmark workload draws for seed 5."""
    rng = np.random.default_rng(np.random.SeedSequence((5, 2)))
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return reduced_density(PureState((2,) * 4, z / np.linalg.norm(z)), (0, 1, 2))


def test_polish_starts_from_the_least_average_decomposition(monkeypatch):
    # the outer roof's one start ends on its 20-evaluation budget in the
    # middle of a line search, at a point that averages 0.389 where the
    # record holds 0.241; the polish runs from the record
    powell, score = roof_module._powell, roof_module._Roof.__call__
    finished, stacks = [], []

    def spied_powell(roof, *args):
        entry = (roof, roof.value, roof.rows.copy(), len(stacks))
        converged = powell(roof, *args)
        finished.append(entry)
        return converged

    def spied_score(roof, stack):
        stacks.append((roof, stack.copy()))
        return score(roof, stack)

    monkeypatch.setattr(roof_module, "_powell", spied_powell)
    monkeypatch.setattr(roof_module._Roof, "__call__", spied_score)
    value = roof_sqrt_functional(
        _sm_nested_first_input(),
        lambda member: n_scren_pure(member, 0, RoofConfig(3, 200, 5)),
        RoofConfig(1, 20, 5),
    )
    # the outer roof's polish is the last Powell run to finish
    roof, start_value, start_rows, mark = finished[-1]
    first = next(stack for owner, stack in stacks[mark:] if owner is roof)
    assert first.shape == (1, *start_rows.shape)
    assert first[0].tobytes() == start_rows.tobytes()
    assert value < start_value**2


def test_no_answer_depends_on_the_point_powell_returns(monkeypatch):
    def results():
        psi = haar_random_state((2,) * 4, np.random.default_rng(3))
        yield roof_minimize(
            reduced_density(psi, (0, 1, 2)),
            lambda rows: np.sqrt(three_tangle_rows(rows)),
            RoofConfig(3, 200, 0),
        )
        psi = haar_random_state((3, 3, 3), np.random.default_rng(200))
        yield scren2(reduced_density(psi, (0, 1)), PART2, RoofConfig(2, 100, 0), full_output=True)[1]

    def blinded(*args, **kwargs):
        res = minimize(*args, **kwargs)
        res.x = np.full_like(res.x, np.nan)
        return res

    expected = list(results())
    monkeypatch.setattr(roof_module, "minimize", blinded)
    for want, got in zip(expected, results(), strict=True):
        assert got.exit == want.exit == "search"
        assert got.value == want.value
        assert got.rows.tobytes() == want.rows.tobytes()
        assert (got.evals, got.converged) == (want.evals, want.converged)


def test_seed_determinism():
    rng = np.random.default_rng(11)
    rho = random_rank2_two_qubit(rng)
    a = cren(rho, PART2, RoofConfig(starts=6, iters=400, seed=123))
    b = cren(rho, PART2, RoofConfig(starts=6, iters=400, seed=123))
    assert abs(a - b) <= 1e-15


def test_seed_changes_explore_differently_but_agree():
    rng = np.random.default_rng(12)
    rho = random_rank2_two_qubit(rng)
    a = cren(rho, PART2, RoofConfig(seed=1))
    b = cren(rho, PART2, RoofConfig(seed=2))
    assert abs(a - b) <= 1e-5


# ---------------------------------------------------------------------------
# cren / scren2
# ---------------------------------------------------------------------------

def test_cren_vector_path_matches_generic_objective():
    # the batched negativity objective must agree with a per-member one taken
    # by the independent partial-transpose route, including on a cut whose
    # side A is not the first subsystem
    rng = np.random.default_rng(23)
    for side_a in [(0,), (1,)]:
        rho = random_mixed_state(rng, (2, 3), rank=2)
        part = Bipartition(side_a, 2)
        cfg = RoofConfig(starts=5, iters=400, seed=13)
        fast = cren(rho, part, cfg)
        generic = roof_minimize(
            rho, member_average(rho.dims, lambda s: negativity_mixed(to_density(s), part)), cfg
        )
        assert abs(fast - generic.value) <= 1e-7


@pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
def test_qubit_side_pair_roofs_take_no_svd(dims, monkeypatch):
    # a pair given by value takes its support from eigh; after that neither
    # orientation of a qubit-side cut may call the SVD
    rho = random_mixed_state(np.random.default_rng(24), dims, rank=2)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    part = Bipartition((0,), 2)
    assert scren2(rho, part, FAST) > 0.0
    assert cren(rho, part, FAST) > 0.0
    assert calls == []


def test_cren_separable_mixture_is_zero():
    zero = np.zeros(4, dtype=complex)
    a = zero.copy(); a[0] = 1.0          # |00>
    plus = np.full(2, 1 / np.sqrt(2))
    b = np.kron(plus, plus).astype(complex)  # |++>
    mat = 0.4 * np.outer(a, a.conj()) + 0.6 * np.outer(b, b.conj())
    rho = DensityMatrix((2, 2), mat)
    assert cren(rho, PART2, FAST) <= 1e-6


def test_cren_pure_bell_is_one():
    assert abs(cren(to_density(bell_state()), PART2, FAST) - 1.0) <= 1e-9


def test_cren_matches_wootters_root():
    rng = np.random.default_rng(14)
    for _ in range(5):
        rho = random_rank2_two_qubit(rng)
        assert abs(cren(rho, PART2) - np.sqrt(wootters_tangle(rho))) <= 1e-4


def test_scren2_is_cren_squared():
    rng = np.random.default_rng(15)
    rho = random_rank2_two_qubit(rng)
    assert abs(scren2(rho, PART2, FAST) - cren(rho, PART2, FAST) ** 2) <= 1e-12


def test_scren2_full_output_diagnostics():
    rng = np.random.default_rng(16)
    rho = random_rank2_two_qubit(rng)
    value, result = scren2(rho, PART2, FAST, full_output=True)
    assert result.converged
    assert abs(value - max(0.0, result.value) ** 2) <= 1e-12


def _separable_mixture(dims):
    """Builder of 0.3 and 0.7 mixtures of two Haar product states of ``dims``."""

    def build(rng):
        mat = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
        for w in (0.3, 0.7):
            psi = np.kron(*(haar_random_state((d,), rng).amplitudes for d in dims))
            mat += w * np.outer(psi, psi.conj())
        return DensityMatrix(dims, mat)

    return build


def test_scren2_separable_mixture_stops_at_floor():
    # a separable pair ends below the squared-roof floor, and every path ends
    # at its first objective call that holds an average at or below the roof
    # floor: the chord search of the 2 x 2 and 3 x 2 pairs within its one
    # start, the 3 x 3 search within its first start
    rng = np.random.default_rng(24)
    for dims, path in [((2, 2), "chord"), ((3, 2), "chord"), ((3, 3), "search")]:
        rho = _separable_mixture(dims)(rng)
        value, result = scren2(rho, PART2, full_output=True)
        assert value <= 1e-10
        assert result.starts < RoofConfig().starts
        assert result.exit == path
        assert result.starts == 1
        assert result.converged
        recorded, averages = _recorded(negativity_rows(dims, PART2), 2)
        counted, calls = _recording(recorded)
        again = roof_minimize(rho, counted, stop_below=SQRT_ROOF_FLOOR)
        # the last call holds the first average at or below the floor, and
        # the value is that call's least average
        last = len(averages) - calls[-1] // 2
        first = next(k for k, average in enumerate(averages) if average <= SQRT_ROOF_FLOOR)
        assert last <= first
        assert result.evals == again.evals == len(averages)
        assert result.value == again.value == min(averages[last:])
    # the 3 x 3 search, the last state, stops inside its first Powell start
    assert first == last > PROBE_COUNT


# ---------------------------------------------------------------------------
# routes and exits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims, rank, path", [
    ((2, 2), 1, "rank1"),
    ((3, 3), 1, "rank1"),
    ((2, 2), 2, "chord"),
    ((3, 2), 2, "chord"),
    ((2, 3), 2, "chord"),
    ((2, 9), 2, "chord"),
    ((3, 3), 2, "search"),
    ((2, 2, 2), 2, "search"),
    ((2, 2), 3, "search"),
    ((3, 3), 3, "search"),
])
def test_route_depends_on_dims_and_rank(dims, rank, path):
    assert _route(dims, rank) == path


def _negativity_roof(rho):
    return roof_minimize(rho, member_average(rho.dims, lambda s: negativity_pure(s, PART2)), FAST)


# the exits a roof on each route may take: the route's own, or a value exit
# before it
_EXITS = {"rank1": {"rank1"}, "chord": {"stop_below", "chord"},
          "search": {"stop_below", "probe", "search"}}

# an input of the tests above for each exit: its state and its roof
_EXIT_INPUTS = {
    "rank1": (lambda: to_density(bell_state()), _negativity_roof),
    "chord": (lambda: random_rank2_two_qubit(np.random.default_rng(31)), _negativity_roof),
    "probe": (
        lambda: random_mixed_state(np.random.default_rng(6), (2, 2), rank=3),
        lambda rho: roof_minimize(rho, member_average(rho.dims, lambda s: 0.7), FAST),
    ),
    "stop_below": (
        lambda: random_mixed_state(np.random.default_rng(18), (2, 2), rank=2),
        lambda rho: roof_sqrt_functional(rho, lambda s: -5e-8, FAST, full_output=True)[1],
    ),
    "search": (
        lambda: random_mixed_state(np.random.default_rng(10), (2, 2), rank=3), _negativity_roof
    ),
}


@pytest.mark.parametrize("taken", sorted(_EXIT_INPUTS))
def test_exit_is_the_route_or_a_value_exit_before_it(taken):
    build, roof = _EXIT_INPUTS[taken]
    rho = build()
    result = roof(rho)
    assert result.exit == taken
    assert result.exit in _EXITS[_route(rho.dims, len(rho.support[0]))]


# the exit inputs whose value is the least average scored, and seeded chord pairs
_LEAST_AVERAGE_INPUTS = {
    **{taken: _EXIT_INPUTS[taken] for taken in ("rank1", "stop_below", "chord", "search")},
    **{
        f"chord-{dims[0]}x{dims[1]}": (
            lambda dims=dims, seed=seed: random_mixed_state(np.random.default_rng(seed), dims, 2),
            _negativity_roof,
        )
        for seed, dims in enumerate([(2, 2), (3, 2), (2, 3), (2, 4), (5, 2)], start=50)
    },
}


@pytest.mark.parametrize("name", sorted(_LEAST_AVERAGE_INPUTS))
def test_value_and_rows_are_the_least_average_scored(name, monkeypatch):
    # every decomposition a roof scores passes through _stack_scores
    build, roof = _LEAST_AVERAGE_INPUTS[name]
    rho = build()
    scored = []

    def recorded(objective, stack):
        averages = _stack_scores(objective, stack)
        scored.extend(zip(stack, averages.tolist()))
        return averages

    monkeypatch.setattr("scren.roof._stack_scores", recorded)
    result = roof(rho)
    decompositions, averages = zip(*scored)
    k = averages.index(min(averages))
    assert result.value == averages[k]
    assert np.array_equal(result.rows, decompositions[k])
    assert result.evals == len(averages)


def test_probe_exit_returns_the_eigendecomposition():
    build, roof = _EXIT_INPUTS["probe"]
    rho = build()
    result = roof(rho)
    assert result.exit == "probe"
    assert np.array_equal(result.rows, rho.support[1])


# ---------------------------------------------------------------------------
# chord start of rank-2 pair roofs
# ---------------------------------------------------------------------------

def test_pair_roof_matches_wootters_at_default_config():
    rng = np.random.default_rng(25)
    for _ in range(50):
        rho = random_rank2_two_qubit(rng)
        assert abs(scren2(rho, PART2) - wootters_tangle(rho)) <= 1e-12


def test_rank2_pair_roof_is_free_of_seed_and_starts():
    rng = np.random.default_rng(26)
    rho = random_mixed_state(rng, (3, 2), rank=2)
    results = [
        cren(rho, PART2, RoofConfig(starts=starts, iters=600, seed=seed), full_output=True)[1]
        for seed in (0, 1, 2)
        for starts in (2, 16)
    ]
    for result in results:
        assert result.starts == 1
        assert result.value == results[0].value
        assert np.array_equal(result.rows, results[0].rows)
    eigen_avg = member_average(rho.dims, lambda s: negativity_pure(s, PART2))(
        hjw_rows(rho, np.eye(2))
    ).sum()
    assert results[0].value <= eigen_avg


@pytest.mark.parametrize("build, part", [
    (lambda rng: reduced_density(haar_random_state((2,) * 4, rng), (0, 1, 2)), Bipartition((0,), 3)),
    (lambda rng: random_mixed_state(rng, (3, 3), rank=2), PART2),
], ids=["three_qubits", "qutrit_pair"])
def test_other_rank2_roofs_keep_every_start(build, part):
    # the chord start is for rank-2 pairs with a qubit party only
    rho = build(np.random.default_rng(27))
    assert len(rho.support[0]) == 2
    config = RoofConfig(starts=3, iters=100, seed=4)
    _, result = cren(rho, part, config, full_output=True)
    assert result.starts == config.starts
    assert result.exit == "search"


def _near_pole_pair(rng, small):
    """Two-qubit state with eigenvalues 1 - small and small."""
    vecs = haar_unitary(4, rng)[:, :2]
    mat = (1 - small) * np.outer(vecs[:, 0], vecs[:, 0].conj())
    mat += small * np.outer(vecs[:, 1], vecs[:, 1].conj())
    return DensityMatrix((2, 2), mat)


# q_2 of the chord kernel tests, down to a pair whose second member weighs 2e-12
_KERNEL_Q2 = [0.5, 0.3, 1e-3, 1e-9, 2e-12]

# CHORD_SCALAR_MAX_K at which every stack takes the numpy kernel, every stack
# the scalar kernel, or each stack the kernel its size picks (the default)
_KERNEL_LIMITS = (0, 1 << 30, CHORD_SCALAR_MAX_K)


def _stack_cuts(u):
    """Leading cuts of a stack on both sides of the scalar kernel's limit, and the stack."""
    sizes = {1, 8, 9, CHORD_SCALAR_MAX_K, CHORD_SCALAR_MAX_K + 1, len(u)}
    return [u[:k] for k in sorted(sizes) if k <= len(u)]


@pytest.mark.parametrize("q2", _KERNEL_Q2)
def test_chord_unitaries_are_unitary_to_roundoff(q2, monkeypatch):
    # entries of the second column scale as 1 / sqrt(q2), so the defect is
    # measured relative to that
    q = (1.0 - q2, q2)
    poles_and_equator = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    stack = np.array(poles_and_equator + list(_CHORD_DIRECTIONS))
    assert len(stack) == 4 + CHORD_COUNT
    for limit in _KERNEL_LIMITS:
        monkeypatch.setattr(roof_module, "CHORD_SCALAR_MAX_K", limit)
        for u in _stack_cuts(stack):
            w = _chord_unitaries(q, u)
            assert w.shape == (len(u), 2, 2)
            defect = np.abs(w.conj().transpose(0, 2, 1) @ w - np.eye(2)).max(axis=(1, 2))
            assert defect.max() * q2 <= 1e-15


def _kernel_directions():
    """Directions the chord kernel is checked on, each stack also as a transpose."""
    rng = np.random.default_rng(24)
    random = rng.standard_normal((256, 3))
    stacks = [
        _CHORD_DIRECTIONS,
        np.array([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                  (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, -0.8, 0.0)]),
        np.array([(0.6, 0.8, 0.0), (0.6, 0.8, -0.0), (-0.8, 0.6, 0.0), (-0.8, 0.6, -0.0),
                  (1.0, 0.0, 0.0), (1.0, 0.0, -0.0)]),
        random / np.linalg.norm(random, axis=1, keepdims=True),
    ]
    return stacks + [np.ascontiguousarray(u.T).T for u in stacks]


@pytest.mark.parametrize("q2", _KERNEL_Q2)
def test_chord_unitaries_equal_the_reference_kernel_bit_for_bit(q2, monkeypatch):
    # the kernels may differ in the sign of a zero entry, which array_equal
    # does not see
    q = (1.0 - q2, q2)
    for limit in _KERNEL_LIMITS:
        monkeypatch.setattr(roof_module, "CHORD_SCALAR_MAX_K", limit)
        for stack in _kernel_directions():
            for u in _stack_cuts(stack):
                assert np.array_equal(_chord_unitaries(q, u), reference_chord_unitaries(q, u))


@pytest.mark.parametrize("measure", [scren2, cren], ids=["scren2", "cren"])
@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 4)], ids=["2x2", "3x2", "2x4"])
def test_scalar_chord_kernel_keeps_every_chord_roof_bit_for_bit(dims, measure, monkeypatch):
    rng = np.random.default_rng(37)
    states = [random_mixed_state(rng, dims, rank=2) for _ in range(8)]
    results = [measure(rho, PART2, full_output=True) for rho in states]
    # every stack to the numpy kernel
    monkeypatch.setattr(roof_module, "CHORD_SCALAR_MAX_K", 0)
    for rho, (value, result) in zip(states, results):
        numpy_value, reference = measure(rho, PART2, full_output=True)
        assert result.exit == reference.exit == "chord"
        assert value == numpy_value
        assert result.value == reference.value
        assert result.rows.tobytes() == reference.rows.tobytes()
        assert result.evals == reference.evals


def test_chord_chart_is_an_orthonormal_frame_with_the_cross_product():
    rng = np.random.default_rng(26)
    random = rng.standard_normal((64, 3))
    directions = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.8, -0.0), *_CHORD_DIRECTIONS,
                  *(random / np.linalg.norm(random, axis=1, keepdims=True))]
    for u0 in directions:
        frame = _chord_chart(u0)
        assert np.array_equal(frame[0], u0)
        assert np.array_equal(frame[2], np.cross(u0, frame[1]))
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15


def test_chord_scan_tie_keeps_the_eigendecomposition():
    # every decomposition averages exactly 2.0, so no chord beats the
    # eigendecomposition and no stencil point moves: the search quarters its
    # step from STENCIL_STEP to below STENCIL_FLOOR in 12 stencils of 8
    rho = random_rank2_two_qubit(np.random.default_rng(31))
    result = roof_minimize(rho, lambda rows: np.ones(len(rows)))
    assert result.value == 2.0
    assert np.array_equal(result.rows, rho.support[1])
    assert result.evals == 1 + CHORD_COUNT + 12 * 8


def test_chord_along_z_is_the_eigendecomposition():
    for q2 in (0.5, 1e-3, 1e-9):
        w = _chord_unitaries((1.0 - q2, q2), np.array([(0.0, 0.0, 1.0)]))
        assert np.abs(w[0] - np.eye(2)).max() <= 1e-15


@pytest.mark.parametrize("seed, small", [
    pytest.param(0, 1e-3, id="0.001"),
    pytest.param(0, 1e-6, id="1e-06"),
    pytest.param(0, 1e-9, id="1e-09"),
    # its probe values spread by less than PROBE_SPREAD_TOL only because the
    # second member weighs 1e-9, so this pair must not take the probe exit
    pytest.param(2, 1e-9, id="seed2-1e-09"),
])
def test_near_pole_pair_roof_matches_wootters(seed, small):
    rho = _near_pole_pair(np.random.default_rng(seed), small)
    value, result = scren2(rho, PART2, full_output=True)
    assert result.starts == 1
    assert abs(value - wootters_tangle(rho)) <= 1e-12
    assert np.abs(result.rows.T @ result.rows.conj() - rho.matrix).max() <= 1e-13


def _powell_chord_value(rho, objective):
    """Powell over the chord chart around the best chord of the roof's scan."""
    lam, base = rho.support
    q = tuple(lam / lam.sum())
    directions = np.vstack([[(0.0, 0.0, 1.0)], _CHORD_DIRECTIONS])
    scan = _stack_scores(objective, _chord_unitaries(q, directions) @ base)
    frame = _chord_chart(directions[np.argmin(scan)])

    def value(x):
        u = frame[0] + x @ frame[1:]
        rows = _chord_unitaries(q, (u / np.linalg.norm(u))[None])[0] @ base
        return _stack_scores(objective, rows[None])[0]

    options = {"xtol": 1e-10, "ftol": 1e-14, "maxfev": 3000}
    return minimize(value, np.zeros(2), method="Powell", options=options).fun


@pytest.mark.parametrize("dims", [(3, 2), (2, 3), (2, 4)])
def test_chord_search_is_no_worse_than_powell(dims):
    rng = np.random.default_rng(28)
    for _ in range(8):
        rho = random_mixed_state(rng, dims, rank=2)
        objective = negativity_rows(rho.dims, PART2)
        value, result = cren(rho, PART2, full_output=True)
        assert result.starts == 1 and result.converged
        assert value <= _powell_chord_value(rho, objective) + 1e-12


@pytest.mark.parametrize("dims, keep", [
    ((3, 2, 2), (0, 1)),
    ((3, 2, 2), (0, 2)),
    ((2, 2, 3), (0, 2)),
])
def test_chord_value_is_free_of_support_phases(dims, keep):
    # the SVD route (reduced_density) and the eigh route (the same matrix by
    # value) give support rows with other phases, but the same chords
    rng = np.random.default_rng(29)
    for _ in range(8):
        rho = reduced_density(haar_random_state(dims, rng), keep)
        by_value = DensityMatrix(rho.dims, rho.matrix)
        assert abs(scren2(rho, PART2) - scren2(by_value, PART2)) <= 1e-12


def _stencil_values(f):
    """Centre value and the 8 neighbour values of ``f`` on ``_STENCIL`` at unit step."""
    values = [f(x, y) for x, y in _STENCIL.tolist()]
    return values[0], values[1:]


@pytest.mark.parametrize("d", [-0.9, -0.4, 0.0, 0.3, 0.8])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 4, 1.2, math.pi / 2, 2.0, 2.8])
def test_valley_step_lands_on_the_valley_floor(theta, d):
    # f is least on the whole line x cos(theta) + y sin(theta) = d, so its
    # Hessian is singular and the full Newton step is not defined
    c, s = math.cos(theta), math.sin(theta)
    _, valley = _newton_step(*_stencil_values(lambda x, y: 0.3 + (x * c + y * s - d) ** 2))
    assert abs(valley[0] * c + valley[1] * s - d) <= 1e-12
    # and it goes straight across the valley
    assert abs(valley[1] * c - valley[0] * s) <= 1e-12


@pytest.mark.parametrize("f", [
    lambda x, y: 0.75,
    lambda x, y: 0.25 + 0.5 * x - 0.75 * y,
    lambda x, y: 0.5 - (x - 0.25) ** 2 - 0.5 * y * y + 0.25 * x * y,
    lambda x, y: 0.5 - (x + 0.5 * y) ** 2,
], ids=["flat", "linear", "concave", "concave_valley"])
def test_a_stencil_with_no_positive_curvature_gives_no_step(f):
    # dyadic coefficients, so the model's differences are exact and its
    # larger eigenvalue is exactly 0 or negative
    assert _newton_step(*_stencil_values(f)) == (None, None)


def test_newton_step_within_trust_is_the_full_newton_step():
    rng = np.random.default_rng(32)
    for _ in range(64):
        a = rng.standard_normal((2, 2))
        hessian = a @ a.T + 0.1 * np.eye(2)
        low = rng.uniform(-1.4, 1.4, 2)
        centre, values = _stencil_values(
            lambda x, y: 0.4 + 0.5 * (np.array([x, y]) - low) @ hessian @ (np.array([x, y]) - low)
        )
        newton, _ = _newton_step(centre, values)
        assert math.hypot(*newton) <= STENCIL_TRUST
        assert newton == reference_newton_step(centre, values)
        assert np.abs(np.array(newton) - low).max() <= 1e-9


_BITWISE_CHORD_PAIRS = {
    "rank2_3x2": lambda rng: random_mixed_state(rng, (3, 2), rank=2),
    "rank2_2x3": lambda rng: random_mixed_state(rng, (2, 3), rank=2),
    "rank2_2x4": lambda rng: random_mixed_state(rng, (2, 4), rank=2),
    "haar322_keep01": lambda rng: reduced_density(haar_random_state((3, 2, 2), rng), (0, 1)),
    "haar322_keep02": lambda rng: reduced_density(haar_random_state((3, 2, 2), rng), (0, 2)),
    "haar223_keep02": lambda rng: reduced_density(haar_random_state((2, 2, 3), rng), (0, 2)),
    "separable_2x2": _separable_mixture((2, 2)),
    "separable_3x2": _separable_mixture((3, 2)),
}


@pytest.mark.parametrize("measure", [scren2, cren], ids=["scren2", "cren"])
@pytest.mark.parametrize("family", list(_BITWISE_CHORD_PAIRS))
def test_valley_step_keeps_qudit_and_separable_chord_roofs(family, measure, monkeypatch):
    # on these pairs the valley step moves no value or decomposition and
    # costs no evaluation
    rng = np.random.default_rng(33)
    states = [_BITWISE_CHORD_PAIRS[family](rng) for _ in range(8)]
    results = [measure(rho, PART2, full_output=True)[1] for rho in states]
    monkeypatch.setattr(roof_module, "_chord_roof", reference_chord_roof)
    for rho, result in zip(states, results):
        reference = measure(rho, PART2, full_output=True)[1]
        assert result.exit == reference.exit == "chord"
        assert result.value == reference.value
        assert result.rows.tobytes() == reference.rows.tobytes()
        assert result.evals <= reference.evals


def test_valley_step_shortens_two_qubit_chord_searches(monkeypatch):
    # a rank-2 two-qubit state has a curve of optimal chords, along which the
    # stencil's Hessian is near singular.  Evaluations are compared over the
    # sample, not pair by pair: a few pairs take more
    rng = np.random.default_rng(34)
    states = [random_rank2_two_qubit(rng) for _ in range(32)]
    evals = []
    for rho in states:
        value, result = scren2(rho, PART2, full_output=True)
        assert abs(value - wootters_tangle(rho)) <= 1e-15
        evals.append(result.evals)
    monkeypatch.setattr(roof_module, "_chord_roof", reference_chord_roof)
    reference = [scren2(rho, PART2, full_output=True)[1].evals for rho in states]
    assert statistics.median(evals) <= 0.75 * statistics.median(reference)
    assert max(evals) <= max(reference)


# ---------------------------------------------------------------------------
# local-unitary invariance of the exact exits
# ---------------------------------------------------------------------------

def _spread(values) -> float:
    return max(values) - min(values)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)], ids=["2x2", "3x2", "2x3"])
@pytest.mark.parametrize("roof", [scren2, cren])
def test_chord_exit_is_local_unitary_invariant(roof, dims):
    # every copy U_A (x) U_B rho U^dagger takes the chord exit to the same value
    rng = np.random.default_rng(60 + 10 * dims[0] + dims[1])
    for _ in range(3):
        rho = random_mixed_state(rng, dims, rank=2)
        copies = [rho] + [random_local_unitaries_mixed(rho, rng) for _ in range(3)]
        results = [roof(copy, PART2, full_output=True) for copy in copies]
        assert {result.exit for _, result in results} == {"chord"}
        assert _spread([value for value, _ in results]) <= 1e-12


@pytest.mark.parametrize("roof", [scren2, cren])
def test_probe_exit_is_local_unitary_invariant_on_wclass_pairs(roof):
    # the (0, 1) reduction of a W-class state is decomposition independent, so
    # it takes the probe exit for the state and for its local-unitary copies
    rng = np.random.default_rng(64)
    for _ in range(3):
        psi = build_state(random_spec(rng, 4, 3))
        copies = [psi] + [random_local_unitaries(psi, rng) for _ in range(3)]
        results = [roof(reduced_density(copy, (0, 1)), PART2, full_output=True) for copy in copies]
        assert {result.exit for _, result in results} == {"probe"}
        assert _spread([value for value, _ in results]) <= 1e-12


# ---------------------------------------------------------------------------
# objective-evaluation counts
# ---------------------------------------------------------------------------

def _recording(objective):
    """``objective`` that also records the number of rows of each call."""
    calls = []

    def recorded(rows):
        calls.append(len(rows))
        return objective(rows)

    return recorded, calls


def test_rank_one_exit_makes_one_evaluation():
    psi = bell_state()
    res = roof_minimize(to_density(psi), member_average(psi.dims, lambda s: 1.0), FAST)
    assert res.evals == 1


# an input of each route, for the objectives that return NaN or an infinity
_NON_FINITE_INPUTS = {
    "rank1": lambda: to_density(bell_state()),
    "chord": lambda: random_rank2_two_qubit(np.random.default_rng(1)),
    "search": lambda: random_mixed_state(np.random.default_rng(2), (2, 2), rank=3),
}


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route", sorted(_NON_FINITE_INPUTS))
def test_non_finite_objective_values_are_rejected(route, fill):
    rho = _NON_FINITE_INPUTS[route]()
    assert _route(rho.dims, len(rho.support[0])) == route
    with pytest.raises(ValueError, match="non-finite"):
        roof_minimize(rho, lambda rows: np.full(len(rows), fill), RoofConfig(2, 50, 0))


def test_a_nan_after_finite_values_is_rejected():
    # the eigendecomposition scores finite; the chord scan's NaNs must not be skipped
    rho = random_rank2_two_qubit(np.random.default_rng(1))
    negativity, calls = negativity_rows(rho.dims, PART2), []

    def nan_on_second_call(rows):
        calls.append(len(rows))
        return np.full(len(rows), np.nan) if len(calls) == 2 else negativity(rows)

    with pytest.raises(ValueError, match="non-finite"):
        roof_minimize(rho, nan_on_second_call, RoofConfig(2, 50, 0))
    assert len(calls) == 2


def test_probe_exit_makes_one_evaluation_per_probe_plus_the_eigendecomposition():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    res = roof_minimize(rho, member_average(rho.dims, lambda s: 0.7), FAST)
    assert res.starts == 0
    assert res.exit == "probe"
    assert res.evals == 1 + PROBE_COUNT


def test_probe_scores_its_unitaries_in_one_objective_call():
    rho = random_mixed_state(np.random.default_rng(6), (2, 2), rank=3)
    recorded, calls = _recording(member_average(rho.dims, lambda s: 0.7))
    res = roof_minimize(rho, recorded, FAST)
    assert res.starts == 0
    assert calls == [3, 3 * PROBE_COUNT]
    assert res.evals == 1 + PROBE_COUNT


def test_chord_scan_is_one_objective_call():
    # eigendecomposition, the whole scan, then whole stencils of
    # decompositions: at most 40 calls where Powell made one per decomposition
    rho = random_rank2_two_qubit(np.random.default_rng(31))
    recorded, calls = _recording(member_average(rho.dims, lambda s: negativity_pure(s, PART2)))
    res = roof_minimize(rho, recorded)
    assert res.starts == 1
    assert res.exit == "chord"
    assert calls[:2] == [2, 2 * CHORD_COUNT]
    assert all(rows % 2 == 0 for rows in calls)
    assert res.evals == sum(calls) // 2
    assert len(calls) <= 40


@pytest.mark.parametrize("build", [
    lambda rng: random_rank2_two_qubit(rng),
    lambda rng: random_mixed_state(rng, (3, 3), rank=2),
], ids=["chord", "multi_start"])
def test_evals_counts_every_objective_call(build):
    # evals counts decompositions scored: the rows passed over the rank
    rho = build(np.random.default_rng(30))
    objective = member_average(rho.dims, lambda s: negativity_pure(s, PART2))
    recorded, calls = _recording(objective)
    res = roof_minimize(rho, recorded, RoofConfig(starts=2, iters=300, seed=3))
    rank = len(rho.support[0])
    assert res.starts >= 1
    assert all(rows % rank == 0 for rows in calls)
    assert res.evals == sum(calls) // rank


_ROW_OBJECTIVES = {
    "negativity": lambda dims: negativity_rows(dims, Bipartition((0,), 3)),
    "three_tangle": lambda dims: lambda rows: np.sqrt(three_tangle_rows(rows)),
    "member_average": lambda dims: member_average(
        dims, lambda s: negativity_pure(s, Bipartition((1,), 3))
    ),
}


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("name", sorted(_ROW_OBJECTIVES))
def test_stacked_scores_equal_one_at_a_time_scores(name, rank):
    # one call on a stack scores each decomposition to the same bits as a
    # call on it alone, and as the left-to-right sum of its member values
    rng = np.random.default_rng(40 + rank)
    rho = random_mixed_state(rng, (2, 2, 2), rank=rank)
    objective = _ROW_OBJECTIVES[name](rho.dims)
    stack = np.stack([hjw_rows(rho, haar_unitary(rank, rng)) for _ in range(PROBE_COUNT)])
    batched = _stack_scores(objective, stack)
    assert batched.shape == (PROBE_COUNT,)
    for rows, score in zip(stack, batched):
        assert score == _stack_scores(objective, rows[None])[0]
        assert score == sum(objective(rows).tolist())


def test_chord_path_evaluation_count():
    # eigendecomposition and chord scan, plus the search over the two chord
    # parameters; the chord path runs no probe and scores nothing twice.  126
    # evaluations with the stencil search, against 194 for Powell over the
    # same chart and 434 for a search over all four parameters of U(2)
    rho = random_rank2_two_qubit(np.random.default_rng(31))
    _, result = scren2(rho, PART2, full_output=True)
    assert result.starts == 1
    assert 1 + CHORD_COUNT + 1 < result.evals <= 250 - PROBE_COUNT


@pytest.mark.parametrize("iters", [1, 50, 1000])
def test_chord_search_ends_on_its_budget_within_one_stencil(iters):
    # averages that fall on every call improve on every stencil, so the step
    # never reaches its floor: after the eigendecomposition and the scan, the
    # budget ends the search, and its last stencil passes it by at most 8
    rho = random_rank2_two_qubit(np.random.default_rng(31))
    calls = []

    def falling(rows):
        calls.append(len(rows))
        return np.full(len(rows), (1.0 - 1e-3 * len(calls)) / 2)

    result = roof_minimize(rho, falling, RoofConfig(iters=iters))
    assert result.exit == "chord"
    assert result.converged is False
    ceiling = 1 + CHORD_COUNT + iters + max(300, iters // 2)
    assert ceiling <= result.evals <= ceiling + 8


def test_chord_search_needs_no_record():
    # driven by hand, with no record and no budget, the search ends by itself
    # at the chord roof's value and evaluation count
    rho = random_mixed_state(np.random.default_rng(35), (3, 2), rank=2)
    objective = negativity_rows(rho.dims, PART2)
    lam, base = rho.support
    q = tuple(float(v) for v in lam / lam.sum())
    search = _chord_search(_stack_scores(objective, base[None]).tolist()[0])
    directions, yielded, least = next(search), 0, math.inf
    with pytest.raises(StopIteration):
        for _ in range(1000):
            yielded += len(directions)
            values = _stack_scores(objective, _chord_rows(q, base, directions)).tolist()
            least = min(least, *values)
            directions = search.send(values)
    _, result = cren(rho, PART2, full_output=True)
    assert result.exit == "chord" and result.converged
    assert least == result.value
    assert 1 + yielded == result.evals


# ---------------------------------------------------------------------------
# roof_sqrt_functional
# ---------------------------------------------------------------------------

def test_sqrt_roof_pure_input():
    psi = bell_state()
    val = roof_sqrt_functional(to_density(psi), lambda s: negativity_pure(s, PART2) ** 2, FAST)
    assert abs(val - 1.0) <= 1e-9


def test_sqrt_roof_of_squared_negativity_equals_scren2():
    rng = np.random.default_rng(17)
    rho = random_rank2_two_qubit(rng)
    via_sqrt = roof_sqrt_functional(rho, lambda s: negativity_pure(s, PART2) ** 2)
    assert abs(via_sqrt - scren2(rho, PART2)) <= 1e-6


def test_sqrt_roof_clamps_roundoff_negatives():
    rng = np.random.default_rng(18)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    assert roof_sqrt_functional(rho, lambda s: -5e-8, FAST) == 0.0


def test_sqrt_roof_raises_conjecture_violation():
    rng = np.random.default_rng(19)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    with pytest.raises(ConjectureViolation) as err:
        roof_sqrt_functional(rho, lambda s: -1.0, FAST)
    assert err.value.value == -1.0
    assert isinstance(err.value.state, PureState)


def test_sqrt_roof_raises_on_nan_member_values():
    # a NaN member value is not clamped to zero: it reaches the roof record,
    # which raises on the non-finite average instead of stopping at 0.0
    rho = reduced_density(haar_random_state((2,) * 4, np.random.default_rng(0)), (0, 1, 2))
    with pytest.raises(ValueError, match="non-finite"):
        roof_sqrt_functional(rho, lambda s: float("nan"), RoofConfig(1, 20, 0))


def _seeded_member_rows(rng):
    """A rank-2 three-qubit state and the rows of three of its decompositions."""
    rho = random_mixed_state(rng, (2, 2, 2), rank=2)
    return rho, np.concatenate([hjw_rows(rho, haar_unitary(2, rng)) for _ in range(3)])


def test_member_average_hands_unchecked_members_the_row_over_its_norm():
    # members skip PureState's checks: each is the row over the square root
    # of its weight, byte for byte, read-only, with dims a tuple of ints
    rng = np.random.default_rng(45)
    _, rows = _seeded_member_rows(rng)
    seen = []
    values = member_average([2, 2, 2], lambda s: seen.append(s) or 1.0)(rows)
    weights = np.einsum("hd,hd->h", rows, rows.conj()).real.tolist()
    assert values.tolist() == weights
    assert len(seen) == len(rows)
    for state, row, w in zip(seen, rows, weights):
        assert type(state.dims) is tuple and state.dims == (2, 2, 2)
        assert all(type(d) is int for d in state.dims)
        assert state.amplitudes.tobytes() == (row / math.sqrt(w)).tobytes()
        assert not state.amplitudes.flags.writeable
        checked = PureState((2, 2, 2), row / math.sqrt(w))
        assert checked.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_conjecture_violation_on_an_unchecked_member_survives_a_pickle_round_trip():
    rng = np.random.default_rng(46)
    rho, _ = _seeded_member_rows(rng)
    with pytest.raises(ConjectureViolation) as err:
        roof_sqrt_functional(rho, lambda s: -1.0, FAST)
    state = err.value.state
    back = pickle.loads(pickle.dumps(err.value))
    assert back.value == -1.0
    assert back.state.dims == state.dims == (2, 2, 2)
    assert back.state.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert abs(np.vdot(back.state.amplitudes, back.state.amplitudes).real - 1.0) <= 1e-14


def test_conjecture_violation_survives_a_pickle_round_trip():
    # a worker pool hands a violation back to its parent by pickle
    exc = ConjectureViolation(bell_state(), -0.5)
    back = pickle.loads(pickle.dumps(exc))
    assert back.value == -0.5
    assert back.state.dims == (2, 2)
    assert np.array_equal(back.state.amplitudes, bell_state().amplitudes)
    assert str(back) == str(exc) == (
        "pure-state functional is negative (-5.000000e-01) on an ensemble member"
    )


def test_sqrt_roof_three_party_wclass_term_vanishes():
    # three-qudit reductions of a W-plus-vacuum state have zero residual
    rng = np.random.default_rng(20)
    spec = random_spec(rng, 4, 3)
    psi = build_state(spec)
    rho = reduced_density(psi, (0, 1, 2))
    nested = replace(NESTED_CONFIG, seed=FAST.seed)
    val = roof_sqrt_functional(rho, lambda s: n_scren_pure(s, 0, nested), FAST)
    assert val <= 1e-3


def test_decomposition_independence_of_wclass_pair_reduction():
    # the ensemble-average root-negativity is the same for any mixing unitary
    rng = np.random.default_rng(21)
    spec = random_spec(rng, 4, 3)
    rho = reduced_density(build_state(spec), (0, 1))
    rank = len(rho.support[0])
    average = member_average(rho.dims, lambda s: negativity_pure(s, PART2))
    averages = [average(hjw_rows(rho, haar_unitary(rank, rng))).sum() for _ in range(50)]
    assert max(averages) - min(averages) <= 1e-8


def test_support_rows_rebuild_the_matrix():
    # subnormalized eigenvector rows satisfy sum_i |b_i><b_i| = rho
    rng = np.random.default_rng(22)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    _, base = rho.support
    rebuilt = base.T @ base.conj()
    assert np.abs(rebuilt - rho.matrix).max() <= 1e-10


def test_checked_rows_reject_the_rows_of_another_state():
    rng = np.random.default_rng(23)
    rho, other = (random_mixed_state(rng, (2, 2), rank=2) for _ in range(2))
    with pytest.raises(AssertionError, match="rows do not rebuild the state"):
        _checked_rows(rho, other.support[1].copy())


# ---------------------------------------------------------------------------
# decomposition-independence probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, size", [(0, 2), (7, 3), (12345, 6)])
def test_probe_unitaries_match_a_fresh_seeded_draw(seed, size):
    _probe_unitaries.cache_clear()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9e3779b9)))
    expected = np.stack([haar_unitary(size, rng) for _ in range(PROBE_COUNT)])
    stack = _probe_unitaries(seed, size)
    assert stack.shape == (PROBE_COUNT, size, size)
    assert np.array_equal(stack, expected)
    assert not stack.flags.writeable


def test_probe_unitaries_are_drawn_once_per_seed_and_size(monkeypatch):
    _probe_unitaries.cache_clear()
    calls = []

    def counted(n, rng):
        calls.append(n)
        return haar_unitary(n, rng)

    monkeypatch.setattr("scren.roof.haar_unitary", counted)
    rho = reduced_density(build_state(random_spec(np.random.default_rng(21), 4, 3)), (0, 1))
    config = RoofConfig(seed=3)
    first = scren2(rho, PART2, config, full_output=True)
    second = scren2(rho, PART2, config, full_output=True)
    assert len(calls) == PROBE_COUNT
    assert first[1].starts == 0
    assert first[0] == second[0]
    assert np.array_equal(first[1].rows, second[1].rows)
