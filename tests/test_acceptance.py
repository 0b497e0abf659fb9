"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS line (visible with -v as the test outcome);
tolerances are stated inline next to each assertion.
"""

import time

import numpy as np
from scipy.optimize import minimize

from fairgrade import (
    ExamResultGraph,
    MeritVector,
    PriorSpec,
    Roster,
    TaskAssignmentGraph,
    benchmark,
    decompose_error,
    edge_probabilities,
    generate_assignment,
    grade,
    is_strongly_connected,
    likelihood_equation_residual,
    mle_fit,
    per_student_error_bound,
    sample_exam_result,
    simple_average,
    simulated_cross_validate,
    strongly_connected_components,
    sweep_degree,
    sweep_question_sample_size,
    verify_ex_ante_fairness,
)
from fairgrade.cli import run as cli_run
from fairgrade.simulation import EXACT_ENUMERATION, uniform_difficulty_sampler

ABILITY_RANGE = (-1.486, 1.149)
DIFFICULTY_RANGE = (-3.090, 2.099)


def _connected_sample(g, u, seed0, tries=2000):
    for s in range(tries):
        res = sample_exam_result(g, u, seed0 + s)
        if is_strongly_connected(res):
            return res
    raise AssertionError("no strongly connected sample found")


def _nelder_mead_mle(res):
    """Independent likelihood maximizer over the mean-zero gauge."""
    nv = res.roster.n_vertices
    n = res.roster.n_students
    pairs = [((i, j + n) if bit else (j + n, i))
             for (i, j), bit in zip(res.assignment.edges, res.w)]

    def neg_ll(free):
        u = np.append(free, -free.sum())
        return float(sum(np.logaddexp(0.0, -(u[a] - u[b])) for a, b in pairs))

    best = None
    for trial in range(3):
        x0 = (np.zeros(nv - 1) if trial == 0
              else np.random.default_rng(trial).normal(0, 1, nv - 1))
        r = minimize(neg_ll, x0, method="Nelder-Mead",
                     options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 40000,
                              "maxfev": 40000})
        if best is None or r.fun < best.fun:
            best = r
    u = np.append(best.x, -best.x.sum())
    return u - u.mean()


def test_criterion_01_mle_matches_brute_force_oracle():
    """10 small connected instances: fitted merits within 1e-3 of a
    derivative-free maximizer of the same log-likelihood."""
    start = time.time()
    rng = np.random.default_rng(100)
    done = 0
    trial = 0
    while done < 10:
        trial += 1
        n, q = (2, 3) if trial % 2 else (3, 2)  # 5 vertices, 4 free parameters
        roster = Roster.index_based(n, q)
        u = MeritVector.for_roster(roster, rng.normal(0, 0.6, n), rng.normal(0, 0.6, q))
        g = TaskAssignmentGraph(roster, tuple((i, j) for i in range(n) for j in range(q)))
        try:
            res = _connected_sample(g, u, trial * 10_000, tries=300)
        except AssertionError:
            continue
        fit = mle_fit(res, range(roster.n_vertices), tol=1e-10)
        oracle = _nelder_mead_mle(res)
        ours = np.array([fit.merits[v] for v in range(roster.n_vertices)])
        assert np.abs(ours - oracle).max() <= 1e-3
        done += 1
    assert time.time() - start < 10
    print("CRITERION 1 PASS: MLE matches brute-force oracle on 10 instances (1e-3)")


def test_criterion_02_first_order_residual():
    """Every converged fit satisfies the likelihood equation to 1e-8,
    re-verified by an independent residual computation."""
    rng = np.random.default_rng(200)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(3, 7))
        q = int(rng.integers(3, 7))
        roster = Roster.index_based(n, q)
        u = MeritVector.for_roster(roster, rng.normal(0, 0.7, n), rng.normal(0, 0.7, q))
        g = generate_assignment(roster, q, min(3, q), int(rng.integers(1 << 30)))
        res = sample_exam_result(g, u, int(rng.integers(1 << 30)))
        comps = strongly_connected_components(res)
        for comp in comps.components:
            if len(comp) < 2:
                continue
            fit = mle_fit(res, comp, tol=1e-8)
            assert fit.converged
            assert fit.residual <= 1e-8
            assert likelihood_equation_residual(fit.merits, res) <= 1e-8 * (1 + 1e-9)
            checked += 1
    assert checked >= 20
    print(f"CRITERION 2 PASS: likelihood-equation residual <= 1e-8 on {checked} fits")


def test_criterion_03_connectivity_equivalence():
    """is_strongly_connected agrees with brute-force reachability, 200/200."""
    start = time.time()
    rng = np.random.default_rng(300)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        roster = Roster.index_based(n, q)
        pairs = [(i, j) for i in range(n) for j in range(q)]
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        edges = tuple(p for p, k in zip(pairs, keep) if k) or (pairs[0],)
        g = TaskAssignmentGraph(roster, edges)
        res = ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8))
        nv = roster.n_vertices
        reach = [[a == b for b in range(nv)] for a in range(nv)]
        for a, b in zip(*res.directed_edges):
            reach[a][b] = True
        for k in range(nv):
            for a in range(nv):
                if reach[a][k]:
                    row_k = reach[k]
                    row_a = reach[a]
                    for b in range(nv):
                        if row_k[b]:
                            row_a[b] = True
        expected = all(all(row) for row in reach)
        assert is_strongly_connected(res) == expected
    assert time.time() - start < 5
    print("CRITERION 3 PASS: connectivity oracle agreement 200/200")


def test_criterion_04_equivalence_with_averaging():
    """Complete assignment, degree 1, and disjoint neighborhoods all reduce
    the structural rule to simple averaging within 1e-12."""
    start = time.time()
    rng = np.random.default_rng(400)

    def check(res):
        gap = np.abs(grade(res, tol=1e-12, max_iter=100000).values
                     - simple_average(res).values).max()
        assert gap <= 1e-12

    for _ in range(50):  # complete bipartite
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        roster = Roster.index_based(n, q)
        g = TaskAssignmentGraph(roster, tuple((i, j) for i in range(n) for j in range(q)))
        check(ExamResultGraph(g, rng.integers(0, 2, n * q).astype(np.uint8)))
    for _ in range(50):  # degree one
        n, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        roster = Roster.index_based(n, q)
        g = TaskAssignmentGraph(roster, tuple((i, int(rng.integers(q))) for i in range(n)))
        check(ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8)))
    for _ in range(50):  # disjoint student neighborhoods
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q = n * d + int(rng.integers(0, 3))
        roster = Roster.index_based(n, q)
        blocks = rng.permutation(q)[: n * d].reshape(n, d)
        g = TaskAssignmentGraph(
            roster, tuple((i, int(j)) for i in range(n) for j in blocks[i])
        )
        check(ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8)))
    assert time.time() - start < 10
    print("CRITERION 4 PASS: 150/150 equivalence instances within 1e-12")


def test_criterion_05_ex_ante_fairness_exact():
    """Averaging's double-enumerated expected grade equals the benchmark."""
    r2 = Roster.index_based(2, 3)
    u2 = MeritVector.for_roster(r2, [0.5, -0.5], [-1.0, 0.0, 1.0])
    assert verify_ex_ante_fairness(r2, 3, 2, u2, tol=1e-12)
    r1 = Roster.index_based(1, 3)
    u1 = MeritVector.for_roster(r1, [0.3], [-1.0, 0.0, 1.0])
    assert verify_ex_ante_fairness(r1, 3, 1, u1, tol=1e-12)
    assert verify_ex_ante_fairness(r1, 3, 2, u1, tol=1e-12)
    print("CRITERION 5 PASS: ex-ante fairness exact to 1e-12 on all three setups")


def test_criterion_06_bias_variance_identity():
    """error == bias + variance: 1e-12 under exact enumeration; Monte Carlo
    agrees with the exact decomposition within 4 standard errors."""
    roster = Roster.index_based(2, 3)
    u = MeritVector.for_roster(roster, [0.4, -0.4], [-0.8, 0.1, 0.9])
    g = generate_assignment(roster, 3, 2, 5)  # 4 edges <= 12
    for rule in (simple_average, grade):
        exact = decompose_error(rule, [g], u, 0, 0, estimator=EXACT_ENUMERATION)
        assert abs(exact.error - exact.bias - exact.variance) <= 1e-12
    # Monte Carlo, 1000 replications of averaging
    reps = 1000
    probs = edge_probabilities(g, u)
    opt = benchmark(u, roster).values
    rng_mat = np.stack([
        simple_average(ExamResultGraph(
            g, (np.random.default_rng([6, k]).random(g.n_edges) < probs).astype(np.uint8)
        )).values
        for k in range(reps)
    ])
    per_rep_err = ((rng_mat - opt) ** 2).mean(axis=1)
    mc_err = per_rep_err.mean()
    se = per_rep_err.std(ddof=1) / np.sqrt(reps)
    exact = decompose_error(simple_average, [g], u, 0, 0, estimator=EXACT_ENUMERATION)
    assert abs(mc_err - exact.error) <= 4 * se
    mc = decompose_error(simple_average, [g], u, reps, 6)
    assert abs(mc.error - mc.bias - mc.variance) <= 1e-12
    print("CRITERION 6 PASS: decomposition identity exact (1e-12) and MC within 4 SE")


def test_criterion_07_error_bound_compliance():
    """On 100 connected replications, every realized squared deviation is
    within the quarter-sup-norm-squared merit-error bound (+1e-9)."""
    rng = np.random.default_rng(700)
    roster = Roster.index_based(10, 10)
    u = MeritVector.for_roster(roster, rng.normal(0, 0.5, 10), rng.normal(0, 0.5, 10))
    g = generate_assignment(roster, 10, 6, 7)
    opt = benchmark(u, roster).values
    done = 0
    s = 0
    while done < 100:
        res = sample_exam_result(g, u, 70_000 + s)
        s += 1
        if not is_strongly_connected(res):
            continue
        fit = mle_fit(res, range(roster.n_vertices), tol=1e-10)
        bound = per_student_error_bound(fit, u)
        dev2 = (grade(res, tol=1e-10).values - opt) ** 2
        assert dev2.max() <= bound + 1e-9
        done += 1
    print("CRITERION 7 PASS: 100/100 replications within the ex-post error bound")


def test_criterion_08_consistency_trend():
    """n = m = 100, merit span 2: median merit-estimation sup-norm error is
    strictly decreasing in the degree d over {10, 20, 40}."""
    start = time.time()
    n = q = 100
    roster = Roster.index_based(n, q)
    truth = np.concatenate([np.linspace(-1, 1, n), np.linspace(-1, 1, q)])
    truth = truth - truth.mean()
    u = MeritVector.for_roster(roster, truth[:n], truth[n:])
    medians = []
    for di, d in enumerate((10, 20, 40)):
        errs = []
        rep = 0
        attempt = 0
        while rep < 20:
            g = generate_assignment(roster, q, d, 80_000 + di * 1000 + attempt)
            res = sample_exam_result(g, u, 90_000 + di * 1000 + attempt)
            attempt += 1
            if not is_strongly_connected(res):
                continue
            fit = mle_fit(res, range(roster.n_vertices), tol=1e-8)
            est = np.array([fit.merits[v] for v in range(roster.n_vertices)])
            errs.append(np.abs(est - truth).max())
            rep += 1
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], medians
    assert time.time() - start < 120
    print(f"CRITERION 8 PASS: median sup-norm error decreasing in d: {medians}")


def test_criterion_09_published_scale_bias_ratio():
    """35 students x 22 questions, d = 10, 100 graphs x 200 replications:
    the structural rule's expected max ex-post bias is at most a tenth of
    simple averaging's."""
    start = time.time()
    rng = np.random.default_rng(900)
    roster = Roster.index_based(35, 22)
    u = MeritVector.for_roster(
        roster, rng.uniform(*ABILITY_RANGE, 35), rng.uniform(*DIFFICULTY_RANGE, 22)
    )
    result = sweep_degree(roster, u, 22, [10], 100, 200, 901)
    stats = result.points[0].per_rule
    assert stats["ours"].failed_replications == 0
    assert stats["ours"].max_bias <= stats["avg"].max_bias / 10, (
        stats["ours"].max_bias, stats["avg"].max_bias
    )
    assert time.time() - start < 300
    print(
        "CRITERION 9 PASS: expected max bias "
        f"ours={stats['ours'].max_bias:.3e} <= avg/10={stats['avg'].max_bias / 10:.3e}"
    )


def test_criterion_10_all_same_merits_decomposition():
    """Constant merits, same scale: both rules are (near) unbiased and their
    answer-noise variances differ by at most 10%."""
    start = time.time()
    roster = Roster.index_based(35, 22)
    u = MeritVector.for_roster(roster, [0.0] * 35, [0.0] * 22)
    graphs = [generate_assignment(roster, 22, 10, 100_000 + k) for k in range(100)]
    ours = decompose_error(grade, graphs, u, 200, 1001)
    avg = decompose_error(simple_average, graphs, u, 200, 1001)
    assert ours.bias <= 1e-3 and avg.bias <= 1e-3, (ours.bias, avg.bias)
    rel_var_gap = abs(ours.variance - avg.variance) / avg.variance
    assert rel_var_gap <= 0.10, rel_var_gap
    assert time.time() - start < 300
    print(
        f"CRITERION 10 PASS: biases ({ours.bias:.2e}, {avg.bias:.2e}) <= 1e-3, "
        f"variance gap {rel_var_gap:.3f} <= 0.10"
    )


def test_criterion_11_cross_validation_endpoints():
    """Hold-out MSE is exactly 0 at full degree; on synthetic published-scale
    data the structural rule's MSE is strictly smaller at d2 in {10, 15, 20}."""
    start = time.time()
    prior = PriorSpec(0.0, 0.76, 0.0, 1.50)  # matches the published merit spreads
    results = simulated_cross_validate(prior, 35, [10, 15, 20, 22], 200, 1100)
    by_d2 = {r.d2: r.mse_per_rule for r in results}
    assert by_d2[22]["ours"] == 0.0 and by_d2[22]["avg"] == 0.0
    for d2 in (10, 15, 20):
        assert by_d2[d2]["ours"] < by_d2[d2]["avg"], (d2, by_d2[d2])
    assert time.time() - start < 300
    gaps = {d2: round(1 - by_d2[d2]["ours"] / by_d2[d2]["avg"], 3) for d2 in (10, 15, 20)}
    print(f"CRITERION 11 PASS: MSE 0 at full degree; relative MSE gains {gaps}")


def test_criterion_12_exam_design_endpoints():
    """Question-sample-size sweep: rules coincide exactly at m == d == 5 and
    within Monte-Carlo noise at m = 250 with 5 students."""
    abilities = list(np.linspace(-1.0, 1.0, 5))
    sampler = uniform_difficulty_sampler(*DIFFICULTY_RANGE)
    small = sweep_question_sample_size(abilities, sampler, [5], 5, 20, 100, 1200)
    point = small.points[0].per_rule
    assert abs(point["ours"].max_bias - point["avg"].max_bias) <= 1e-12
    assert abs(point["ours"].avg_bias - point["avg"].avg_bias) <= 1e-12
    big = sweep_question_sample_size(abilities, sampler, [250], 5, 40, 100, 1201)
    stats = big.points[0].per_rule
    gap = abs(stats["ours"].avg_bias - stats["avg"].avg_bias)
    noise = 4 * np.hypot(stats["ours"].avg_bias_se, stats["avg"].avg_bias_se)
    assert gap <= max(noise, 1e-15), (gap, noise)
    print(f"CRITERION 12 PASS: exact match at m=d=5; m=250 gap {gap:.2e} <= 4 SE")


def test_criterion_13_determinism(tmp_path):
    """Identical config + seed give byte-identical report files across
    subcommands."""
    invocations = [
        ["sweep-degree", "--students", "4", "--questions", "5", "--m", "5",
         "--d", "1..3", "--graphs", "3", "--reps", "20", "--seed", "13"],
        ["cv-sim", "--students", "5", "--questions", "6", "--d2", "2,4,6",
         "--reps", "20", "--seed", "13"],
        ["simulate-bias", "--students", "4", "--questions", "5", "--m", "5",
         "--d", "2", "--reps", "30", "--seed", "13"],
    ]
    for k, base in enumerate(invocations):
        outs = []
        for run_id in range(2):
            out = tmp_path / f"run{k}_{run_id}"
            code = cli_run(base + ["--outdir", str(out)])
            assert code == 0
            outs.append(out)
        for name in ("report.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("CRITERION 13 PASS: byte-identical reports across runs")
