"""Acceptance suite. One test per headline guarantee of the toolkit;
each emits a single PASS/FAIL evidence line with the measured numbers.

The key-size formulas are exercised at full scale (they are closed
form). Leakage, smoothing, and decode guarantees are verified at desk
scale by exact enumeration, where every probability is computed without
sampling error.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from icc_kit import cli
from icc_kit import infometrics as im
from icc_kit.codes import LinearCode, sample_code, subcolumns_full_rank
from icc_kit.poly import evaluate, evaluate_batch, random_poly
from icc_kit.protocol import SchemeParams, computation_phase, plan, storage_phase
from icc_kit.rm import decode_at_key, rm_code, rm_dimension, select_available_infoset
from oracles import (
    conditional_encoded,
    conditioning_events,
    count_straggler_patterns,
    pushforward_encode,
    straggler_patterns,
)


def verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        sys.__stdout__.write(f"\n  {line}")
        sys.__stdout__.flush()
    assert ok, line


def scheme_grid():
    return [
        (q, m, d, S)
        for q in (2, 3, 5)
        for m in range(1, 5)
        for d in range(0, 4)
        if d < m * (q - 1)
        for S in range(3)
    ]


def test_decode_matches_direct_evaluation_across_straggler_patterns():
    # 1000 randomized (data, polynomial, key) trials over the whole
    # parameter grid, each sweeping every straggler pattern within
    # budget. Trials are allocated inversely to the pattern count so the
    # sweep stays exhaustive per trial without blowing the time budget.
    cells = scheme_grid()
    weights = {}
    for q, m, d, S in cells:
        metrics = plan(
            SchemeParams(n=8, q=q, protected_size=1, degree_bound=d, straggler_budget=S), m
        )
        weights[(q, m, d, S)] = count_straggler_patterns(metrics.num_workers, S)
    total_w = sum(1.0 / w for w in weights.values())
    alloc = {c: max(1, int(1000 / total_w / weights[c])) for c in cells}
    order = sorted(cells, key=lambda c: weights[c])
    i = 0
    while sum(alloc.values()) < 1000:
        alloc[order[i % len(order)]] += 1
        i += 1

    start = time.time()
    rng = np.random.default_rng(20260818)
    trials = patterns_swept = mismatches = 0
    for q, m, d, S in cells:
        rm = rm_code(q, d, m)
        for _ in range(alloc[(q, m, d, S)]):
            n = int(rng.integers(max(m, 2), 9))
            params = SchemeParams(
                n=n, q=q, protected_size=1, degree_bound=d, straggler_budget=S
            )
            code = sample_code(n, m, q, int(rng.integers(2**31)))
            x = rng.integers(0, q, n)
            f = random_poly(n, d, q, int(rng.integers(2**31)))
            session = storage_phase(x, params, code, int(rng.integers(2**31)))
            direct = evaluate(f, x)
            shares = session.admin.shares
            answers = evaluate_batch(f, shares)
            key = session.user.key
            superset = session.admin.superset
            # decode_at_key is pure, so identical answer tables (replicas
            # of the same point carry equal values) share one solve
            memo = {}
            pats = list(straggler_patterns(len(shares), S))
            for pat in pats:
                responded = [w for w in range(len(shares)) if w not in pat]
                sources = select_available_infoset(superset, responded)
                points, values = superset.entries[sources], answers[sources]
                table = (points.tobytes(), values.tobytes())
                if table not in memo:
                    memo[table] = decode_at_key(rm, points, values, key)
                mismatches += memo[table] != direct
                patterns_swept += 1
            # full end-to-end protocol on a pattern subsample
            for pat in (pats[0], pats[len(pats) // 2], pats[-1]):
                mismatches += computation_phase(session, f, pat) != direct
            trials += 1
    elapsed = time.time() - start
    verdict(
        "decode-correctness",
        mismatches == 0 and trials == 1000 and elapsed < 60,
        f"{trials} trials, {patterns_swept} straggler patterns swept, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_cost_identities_hold_for_planned_schemes():
    bad = 0
    planned = 0
    for q, m, d, S in scheme_grid():
        metrics = plan(
            SchemeParams(n=8, q=q, protected_size=1, degree_bound=d, straggler_budget=S), m
        )
        planned += 1
        if metrics.download_cost != rm_dimension(q, d, m):
            bad += 1
        if metrics.num_workers != (S + 1) * metrics.download_cost:
            bad += 1
    binom_bad = 0
    for m in range(1, 7):
        for d in range(m):
            if rm_dimension(2, d, m) != sum(math.comb(m, i) for i in range(d + 1)):
                binom_bad += 1
    verdict(
        "cost-identities",
        bad == 0 and binom_bad == 0,
        f"{planned} planned schemes exact, binary dimension matches "
        f"binomial sums for m <= 6",
    )


def test_uniform_data_leaks_nothing_through_full_rank_subcolumns():
    configs = [  # (q, n, m, r, codes)
        (2, 5, 3, 2, 200),
        (2, 6, 4, 2, 50),
        (3, 4, 2, 2, 150),
        (5, 3, 2, 1, 100),
    ]
    total = checked = skipped = 0
    worst = 0.0
    for q, n, m, r, num in configs:
        unif = im.uniform(q, n)
        seeds = np.random.SeedSequence((q, n, m, r)).generate_state(num, dtype=np.uint64)
        for cs in seeds:
            code = sample_code(n, m, q, int(cs))
            total += 1
            for indices, mi in im.subset_leakages(unif, code, r).items():
                if not subcolumns_full_rank(code, indices):
                    skipped += 1
                    continue
                worst = max(worst, mi)
                checked += 1
    # positive control: the rank condition is load bearing, a dropped
    # coordinate leaks even from uniform data
    control = im.mutual_information(im.uniform(2, 2), LinearCode(((1, 0),), 2), (1,))
    verdict(
        "zero-leakage-uniform",
        total == 500 and checked >= 1000 and worst <= 1e-9 and control == 1.0,
        f"500 codes, {checked} full-rank subsets at max leak {worst:.2e}, "
        f"{skipped} rank-deficient subsets excluded, control leak {control}",
    )


def test_keysize_bound_closed_form_large_instance():
    n, q, r, p, b = 2**18, 2, 2, 2, 2
    eps = float(n) ** -b
    bp = im.BoundParams(
        n=n, q=q, p=p, epsilon=eps, a=2.0,
        data_entropy=float(n - 1), max_subset_entropy=float(r - 1),
    )
    bound = im.keysize_lower_bound(bp)
    closed = r + p + b * math.log(n, q)
    verdict(
        "keysize-closed-form",
        bound == 40.0 and abs(bound - closed) <= 1e-12,
        f"general formula {bound!r} == 40.0, closed form differs by "
        f"{abs(bound - closed):.1e}",
    )


def test_keysize_curve_files_spot_value_and_monotonicity(tmp_path):
    out = tmp_path / "curves.csv"
    assert cli.main(["keysize-curves", "--out", str(out)]) == 0
    n = 2**18

    lines_a = (tmp_path / "curves_a.csv").read_text().splitlines()
    reals_a = [float(line.split(",")[1]) for line in lines_a[2:]]
    mono_a = all(x >= y for x, y in zip(reals_a, reals_a[1:]))

    lines_b = (tmp_path / "curves_b.csv").read_text().splitlines()
    rows_b = [line.split(",") for line in lines_b[2:]]
    reals_b = [float(row[1]) for row in rows_b]
    mono_b = all(x > y for x, y in zip(reals_b, reals_b[1:]))
    spot = {float(row[0]): row for row in rows_b}[float(n - 4)]
    spot_ok = abs(float(spot[1]) - 42.0) <= 1e-9 and spot[2] == "42"

    verdict(
        "keysize-curves",
        mono_a and mono_b and spot_ok and len(reals_a) == 60 and len(reals_b) == 65,
        f"curve a nonincreasing over {len(reals_a)} epsilon points, curve b "
        f"decreasing over {len(reals_b)} entropy points, spot value m = {spot[2]}",
    )


@pytest.fixture(scope="module")
def code_ensemble():
    """Shared 500-code ensembles for three non-uniform distributions,
    key length at the ceiling of the lower bound."""
    n, q, r, p, a = 6, 2, 2, 2, 2.0
    num_codes = 500
    out = []
    start = time.time()
    for alpha, dseed in ((5.0, 101), (15.0, 202), (50.0, 303)):
        dist = im.random_dirichlet(q, n, dseed, alpha=alpha)
        bp = im.measured_bounds(dist, p, r, 1.0, a)
        # epsilon just large enough that the bound stays within n
        eps = min(0.9, float(q) ** -(bp.data_entropy - bp.max_subset_entropy - p - 0.05))
        m = math.ceil(im.keysize_lower_bound(replace(bp, epsilon=eps)))
        assert r <= m <= n
        passes = 0
        vps = []
        for cs in np.random.SeedSequence(dseed).generate_state(num_codes, dtype=np.uint64):
            code = sample_code(n, m, q, int(cs))
            passes += im.leakage_audit(dist, code, r, p=p, epsilon=eps, a=a)["passes"]["theorem"]
            vps.append(im.smoothing_report(dist, code, p, eps).vp_uniform)
        out.append(
            {
                "alpha": alpha,
                "epsilon": eps,
                "m": m,
                "fraction": passes / num_codes,
                "vps": np.array(vps),
                "threshold": im.smoothing_threshold(p, eps),
                "a": a,
                "num_codes": num_codes,
            }
        )
    out.append({"elapsed": time.time() - start})
    return out


def test_code_ensemble_meets_leakage_bound_with_stated_probability(code_ensemble):
    *per_dist, timing = code_ensemble
    target = 1 - 1 / per_dist[0]["a"]
    sigma = math.sqrt(target * (1 - target) / per_dist[0]["num_codes"])
    floor = target - 3 * sigma
    fractions = [row["fraction"] for row in per_dist]
    ok = all(f >= floor for f in fractions) and timing["elapsed"] < 600
    verdict(
        "leakage-ensemble",
        ok,
        f"pass fractions {fractions} vs floor {floor:.4f} over "
        f"{per_dist[0]['num_codes']} codes x {len(per_dist)} distributions, "
        f"{timing['elapsed']:.1f}s",
    )


def test_mean_smoothing_distance_within_threshold(code_ensemble):
    *per_dist, _ = code_ensemble
    details = []
    ok = True
    for row in per_dist:
        vps = row["vps"]
        sem = vps.std(ddof=1) / math.sqrt(len(vps))
        ok = ok and vps.mean() <= row["threshold"] + 3 * sem
        details.append(f"{vps.mean():.4f}<= {row['threshold']:.4f}")
    verdict("smoothing-threshold", ok, "mean order-p distance vs threshold: " + "; ".join(details))


def test_entropy_gap_dominates_min_conditional_entropy():
    # the library sweep's entropy-gap cases: 200 Dirichlet laws over five
    # sample spaces, each within VERDICT_TOL of the gap or reported
    spaces = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    result = im.property_sweep(9090, 200, 0)
    cases = result["counts"]["entropy_gap"]
    failed = [v for v in result["violations"] if v["check"] == "entropy_gap"]
    uniform_dev = max(
        abs(im.check_entropy_gap(im.uniform(q, n), 2, 1)["slack"]) for q, n in spaces
    )
    verdict(
        "entropy-gap",
        not failed and uniform_dev <= 1e-12 and cases == 200,
        f"{cases} random distributions, {len(failed)} entropy-gap violations, uniform "
        f"slack {uniform_dev:.1e}",
    )


def test_metric_axioms_hold_on_randomized_cases():
    spaces = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    rng = np.random.default_rng(515151)
    violations = 0

    # order comparisons, Pinsker, and the uniform / point-mass anchors
    pair_cases = 0
    for i in range(1000):
        q, n = spaces[i % len(spaces)]
        p = 2 + i % 2
        da = im.random_dirichlet(q, n, rng.integers(0, 2**63))
        db = im.random_dirichlet(q, n, rng.integers(0, 2**63))
        violations += im.v_distance(da, db) > im.v_p_distance(da, db, p) + 1e-9
        violations += im.kl_divergence(da, db) > im.renyi_divergence(da, db, p) + 1e-9
        violations += not im.pinsker_check(da, db)["classical_form_holds"]
        violations += im.renyi_entropy(im.uniform(q, n), p) != float(n)
        violations += im.renyi_entropy(im.point_mass(q, n, (0,) * n), p) != 0.0
        pair_cases += 1

    # decomposition of conditional-to-encoded distance through uniform
    triangle_cases = 0
    while triangle_cases < 1000:
        q, n = spaces[triangle_cases % len(spaces)]
        m = int(rng.integers(1, n + 1))
        dist = im.random_dirichlet(q, n, rng.integers(0, 2**63))
        code = sample_code(n, m, q, int(rng.integers(0, 2**63)))
        encoded = pushforward_encode(dist, code)
        unif = im.uniform(q, n)
        enc_to_unif = im.v_distance(encoded, unif)
        for sel, z in conditioning_events(dist, 1):
            cond = conditional_encoded(dist, code, sel, z)
            lhs = im.v_distance(cond, encoded)
            rhs = im.v_distance(cond, unif) + enc_to_unif
            violations += lhs > rhs + 1e-9
            triangle_cases += 1

    # divergence-distance relation, restricted to its usage context as
    # screened by relation_in_context (key length at the bound, epsilon <=
    # 1/2, measured conditional distances within what the ensemble
    # guarantees); each divergence must also stay below the "proof" leakage
    # bound
    p, a = 2, 2.0
    relation_cases = skipped = 0
    min_slack = float("inf")
    i = 0
    while relation_cases < 1000:
        q, n = [(2, 5), (2, 6), (3, 4)][i % 3]
        alpha = [20.0, 50.0, 100.0][i % 3]
        i += 1
        dist = im.random_dirichlet(q, n, rng.integers(0, 2**63), alpha=alpha)
        screened = im.relation_in_context(dist, p, a, rng)
        if screened is None:
            skipped += 1
            continue
        reports, bp = screened
        chain_bound = im.leakage_bound(bp, "proof")
        for rep in reports:
            violations += not rep["holds"]
            violations += rep["dp"] > chain_bound + 1e-9
            min_slack = min(min_slack, rep["bound"] - rep["dp"])
            relation_cases += 1

    verdict(
        "metric-axioms",
        violations == 0
        and pair_cases >= 1000
        and triangle_cases >= 1000
        and relation_cases >= 1000,
        f"{violations} violations over {pair_cases} metric pairs, "
        f"{triangle_cases} triangle cases, {relation_cases} screened "
        f"divergence-distance cases ({skipped} out of context)",
    )


def test_hand_enumerated_mutual_information_cases():
    equal_bits = im.Distribution(2, 2, np.array([0.5, 0.0, 0.0, 0.5]))
    sel = (1,)
    masked_both = im.mutual_information(equal_bits, LinearCode(((1, 1),), 2), sel)
    masked_first = im.mutual_information(equal_bits, LinearCode(((1, 0),), 2), sel)
    verdict(
        "hand-enumerated-mi",
        masked_both == 0.0 and masked_first == 1.0,
        f"pair-masking generator leaks {masked_both}, single-coordinate "
        f"generator leaks {masked_first}",
    )
