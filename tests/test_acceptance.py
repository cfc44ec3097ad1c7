"""Acceptance suite: one test per release criterion.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL`` before asserting, so a
``pytest -s`` run yields a one-line-per-criterion summary.  Pinned regression
values were computed once from the implementation at the stated tolerances
and frozen here.
"""

import math
import time

import numpy as np
from scipy.stats import binom, multinomial

from symgame import (
    build_generator,
    build_grid,
    check_detailed_balance,
    constant_protocol,
    decompose,
    derived_block,
    deviation_vs_ode,
    exact_stationary,
    integrate_mean_dynamic,
    invert_3to2,
    make_linear_game,
    marginal_from_exact,
    birth_death_weights,
    product_form_joint,
    simulate_paths,
    specs_from_transform,
    sum_exponential_protocol,
    table_protocol,
)
from symgame.cli import main as cli_main
from symgame.stationary import compare

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
COORDINATION = np.eye(3)

RPS_CONFIG = """\
[game]
type = linear
payoff_matrix =
    0 -1 1
    1 0 -1
    -1 1 0

[protocol]
kind = constant
c = 1.0

[run]
N = 2
horizon = 20.0
dt = 0.01
seeds = 1, 2
"""

# computed once and frozen: TV(product-form prediction, exact law) for the
# constant protocol on three strategies at N = 2..8; N = 2 equals 2/15
PINNED_PRODUCT_FORM_GAPS = {
    2: 0.1333333333333333,
    3: 0.09920634920634919,
    4: 0.1373737373737373,
    5: 0.13196679863346528,
    6: 0.14629071001620023,
    7: 0.13934330500664638,
    8: 0.13392460416718027,
}

# computed once and frozen: normalized detailed-balance imbalance of the
# cyclic game with payoff-sum exponential rates (eta = 2) at N = 4
PINNED_RPS_IMBALANCE = 0.6321205588285579


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def marginal_chain_probabilities(tg, index, size):
    game, protocol = tg.marginal_game(index)
    chain = build_generator(game, protocol, build_grid(game, size))
    exact = exact_stationary(chain)
    ordinals = chain.grid.ranks([(k, size - k) for k in range(size + 1)])
    return chain, exact, exact.probabilities[ordinals]


def protocol_game_matrix():
    games = {"rps": make_linear_game(RPS), "coordination": make_linear_game(COORDINATION)}
    protocols = {
        "constant": constant_protocol(1.0),
        "sum_exponential_0.5": sum_exponential_protocol(0.5, support_floor=math.exp(-2.0)),
        "sum_exponential_2": sum_exponential_protocol(2.0, support_floor=math.exp(-8.0)),
    }
    for gname, game in games.items():
        for pname, protocol in protocols.items():
            yield f"{gname}+{pname}", game, protocol


def test_01_transformation_round_trip():
    start = time.perf_counter()
    game = make_linear_game(RPS)
    rng = np.random.default_rng(20240601)
    x = np.array([0.25, 0.5, 0.25])
    pi = np.zeros(3)
    exact_all = True
    for _ in range(100):
        # dyadic-grid entries in [0.1, 10]: the two-term affine formulas are
        # then exact in floating point, so equality can be literal
        vals = rng.integers(103, 10241, size=(3, 3)) / 1024.0
        table = np.triu(vals) + np.triu(vals, 1).T
        recovered = invert_3to2(decompose(game, table_protocol(table))).rates(pi, x)
        exact_all = exact_all and np.array_equal(recovered, table)
    elapsed = time.perf_counter() - start
    ok = exact_all and elapsed < 1.0
    report(1, "transformation round-trip exact", ok, f"{elapsed:.2f}s")
    assert exact_all
    assert elapsed < 1.0


def test_02_birth_death_formula_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for label, game, protocol in protocol_game_matrix():
        tg = decompose(game, protocol)
        for size in range(2, 21):
            for i, spec in enumerate(specs_from_transform(tg, size)):
                weights = birth_death_weights(spec).normalized()
                _, _, probs = marginal_chain_probabilities(tg, i, size)
                worst = max(worst, 0.5 * float(np.abs(weights - probs).sum()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, "birth-death weights vs exact chains", ok, f"worst TV {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_03_paper_variant_degeneracy():
    game = make_linear_game(RPS)
    tg = decompose(game, constant_protocol(1.0))
    (spec, *_) = specs_from_transform(tg, 2, factor_variant="paper")
    result = birth_death_weights(spec)
    ok = result.degenerate and result.weights[1] == 0.0 and result.weights[2] == 0.0
    report(3, "alternative factor zeroes positive counts at N=2", ok)
    assert result.degenerate
    assert np.all(result.weights[1:] == 0.0)
    assert result.weights[0] == 1.0


def test_04_constant_protocol_ground_truth():
    start = time.perf_counter()
    game = make_linear_game(RPS)
    chain = build_generator(game, constant_protocol(1.0), build_grid(game, 4))
    exact = exact_stationary(chain)
    target = np.array(
        [multinomial.pmf(chain.grid.state(i)[0], 4, [1 / 3] * 3) for i in range(len(chain.grid))]
    )
    tv_joint = 0.5 * float(np.abs(exact.probabilities - target).sum())
    binom_target = binom.pmf(np.arange(5), 4, 1 / 3)
    tv_marginal = max(
        0.5 * float(np.abs(marginal_from_exact(exact, i) - binom_target).sum()) for i in range(3)
    )
    elapsed = time.perf_counter() - start
    ok = tv_joint <= 1e-10 and tv_marginal <= 1e-12 and elapsed < 1.0
    report(
        4,
        "exact law is multinomial under uniform switching",
        ok,
        f"joint TV {tv_joint:.3g}, marginal TV {tv_marginal:.3g}, {elapsed:.2f}s",
    )
    assert tv_joint <= 1e-10
    assert tv_marginal <= 1e-12
    assert elapsed < 1.0


def test_05_product_form_gap_pinned(tmp_path):
    game = make_linear_game(RPS)
    proto = constant_protocol(1.0)
    tg = decompose(game, proto)
    gaps = {}
    for size in range(2, 9):
        chain = build_generator(game, proto, build_grid(game, size))
        exact = exact_stationary(chain)
        marginals = [
            birth_death_weights(s).normalized() for s in specs_from_transform(tg, size)
        ]
        predicted = product_form_joint(marginals, chain.grid)
        gaps[size] = compare(predicted, exact).tv
    closed_form_ok = abs(gaps[2] - 2 / 15) <= 1e-10
    pinned_ok = all(abs(gaps[n] - PINNED_PRODUCT_FORM_GAPS[n]) <= 1e-9 for n in gaps)

    config = tmp_path / "rps.cfg"
    config.write_text(RPS_CONFIG)
    out = tmp_path / "out"
    code = cli_main(["experiment", "--config", str(config), "--out", str(out)])
    report_text = (out / "experiment_report.txt").read_text()
    tv_line = [l for l in report_text.split("\n") if l.startswith("tv_predicted_vs_exact:")][0]
    emitted_ok = code == 0 and abs(float(tv_line.split(":")[1]) - 2 / 15) < 1e-6

    ok = closed_form_ok and pinned_ok and emitted_ok
    report(5, "product-form gap 2/15 at N=2, pinned N=2..8, emitted in report", ok,
           f"gap(2)={gaps[2]:.12g}")
    assert closed_form_ok
    assert pinned_ok
    assert emitted_ok


def test_06_reversibility_facts():
    worst_derived = 0.0
    for label, game, protocol in protocol_game_matrix():
        tg = decompose(game, protocol)
        for size in (2, 6):
            for i in range(len(tg.populations)):
                chain, exact, _ = marginal_chain_probabilities(tg, i, size)
                balance = check_detailed_balance(chain, exact)
                worst_derived = max(worst_derived, balance.max_imbalance)
    game = make_linear_game(RPS)
    chain = build_generator(game, sum_exponential_protocol(2.0), build_grid(game, 4))
    original = check_detailed_balance(chain, exact_stationary(chain))
    pinned_ok = abs(original.max_imbalance - PINNED_RPS_IMBALANCE) <= 1e-9 * PINNED_RPS_IMBALANCE
    ok = worst_derived <= 1e-12 and original.max_imbalance > 0 and pinned_ok
    report(
        6,
        "derived chains reversible, original cyclic chain is not",
        ok,
        f"derived {worst_derived:.3g}, original {original.max_imbalance:.6g}",
    )
    assert worst_derived <= 1e-12
    assert original.max_imbalance > 0
    assert pinned_ok


def test_07_deterministic_approximation():
    start = time.perf_counter()
    game = make_linear_game(RPS)
    proto = sum_exponential_protocol(1.0, support_floor=math.exp(-2.0))
    x0 = (np.array([0.5, 0.3, 0.2]),)
    trajectory = integrate_mean_dynamic(game, proto, x0, 10.0, 0.01)
    hits = 0
    worst = 0.0
    paths = simulate_paths(
        (game, proto, 1000), ((500, 300, 200),), 10.0, list(range(100))
    )
    for path in paths:
        deviation = deviation_vs_ode(path, trajectory)
        worst = max(worst, deviation)
        if deviation < 0.1:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 300.0
    report(
        7,
        "paths track the mean dynamic at N=1000",
        ok,
        f"{hits}/100 under 0.1, worst {worst:.4f}, {elapsed:.0f}s",
    )
    assert hits >= 95
    assert elapsed < 300.0


def test_08_ode_mass_conservation():
    worst = 0.0
    for matrix, proto in (
        (RPS, sum_exponential_protocol(1.0)),
        (COORDINATION, constant_protocol(1.0)),
    ):
        game = make_linear_game(matrix)
        traj = integrate_mean_dynamic(
            game, proto, (np.array([0.7, 0.2, 0.1]),), 100.0, 0.01
        )
        assert traj.states.shape[0] == 10_001
        worst = max(worst, float(np.max(np.abs(traj.states.sum(axis=1) - 1.0))))
    ok = worst <= 1e-9
    report(8, "mass conserved over 10^4 RK4 steps", ok, f"max drift {worst:.3g}")
    assert worst <= 1e-9


def test_09_reduction_pipeline_shape():
    c = 1.0
    game = make_linear_game(np.eye(5))
    tg = decompose(game, constant_protocol(c))
    shape_ok = (
        len(tg.populations) == 5
        and tg.arities == (2, 2, 2, 2, 2)
        and tg.lineage == ("5->4", "4->3", "3->2")
    )
    closure_ok = True
    R = np.full((5, 5), c)
    for target in (4, 3, 2):
        staged = decompose(game, constant_protocol(c), target)
        for pop in staged.populations:
            block = derived_block(pop, R)
            inner = block[: target - 1, : target - 1]
            closure_ok = closure_ok and np.array_equal(
                inner, np.full((target - 1, target - 1), c)
            )
    ok = shape_ok and closure_ok
    report(9, "5-strategy game reduces to five 2-strategy populations", ok,
           f"lineage {'/'.join(tg.lineage)}")
    assert shape_ok
    assert closure_ok


def test_10_reproducibility(tmp_path):
    config = tmp_path / "rps.cfg"
    config.write_text(RPS_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["experiment", "--config", str(config), "--out", str(out_a)])
    code_b = cli_main(["experiment", "--config", str(config), "--out", str(out_b)])
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    ok = code_a == 0 and code_b == 0 and identical
    report(10, "identical config and seeds give byte-identical outputs", ok,
           f"{len(names_a)} files")
    assert code_a == 0 and code_b == 0
    assert identical
