"""Command-line front door: simulate, audit, keysize-curves, metrics-check.

Every CSV output (audit, keysize-curves) starts with a '#'-prefixed JSON
header holding the resolved config and seed, so a run can be reproduced
byte for byte; simulate and metrics-check write one JSON object, which
holds the seed.
Exit codes: 0 success, 1 property failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import infometrics as im
from . import protocol
from .codes import sample_code
from .gf import _check_prime, cap_limit, check_cap, integer_array
from .poly import MultiPoly, evaluate, random_poly
from .protocol import SchemeParams, computation_phase, storage_phase


class UsageError(Exception):
    pass


def _child_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


def _integers(value, key: str) -> np.ndarray:
    """Integer config values as an array; by gf.integer_array's rule a float
    or bool is a usage error, not truncated."""
    try:
        return integer_array(value, f"config key {key!r}")
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int(value, key: str, least: int = None) -> int:
    """One integer config value as a Python int (see _integers), refused
    below least when least is given."""
    arr = _integers(value, key)
    if arr.ndim:
        raise UsageError(f"config key {key!r} must be one integer, got {value!r}")
    if least is not None and arr.item() < least:
        raise UsageError(f"config key {key!r} must be at least {least}, got {value!r}")
    return arr.item()


def _prime(value, key: str) -> int:
    """A field order config value: one prime integer (see _int)."""
    number = _int(value, key)
    try:
        _check_prime(number)
    except ValueError:
        raise UsageError(f"config key {key!r} must be a prime, got {value!r}") from None
    return number


def _float(value, key: str) -> float:
    """A real config value as a float: a JSON int or finite float. A bool,
    string or non-finite number is a usage error, not coerced."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise UsageError(f"config key {key!r} must be a finite number, got {value!r}")


def _require(config: dict, keys, where: str = "config") -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise UsageError(f"{where} is missing required keys: {missing}")


def _dist_from_config(spec: dict, q: int, n: int, seed: int, cap=None) -> im.Distribution:
    if not isinstance(spec, dict):
        raise UsageError(f"config key 'dist' must be an object with a 'family', got {spec!r}")
    family = spec.get("family", "dirichlet")
    if family == "uniform":
        return im.uniform(q, n, cap)
    if family == "dirichlet":
        alpha = _float(spec.get("alpha", 1.0), "alpha")
        if not alpha > 0:
            raise UsageError(f"config key 'alpha' must be positive, got {spec['alpha']!r}")
        return im.random_dirichlet(q, n, seed, alpha=alpha, cap=cap)
    if family == "bernoulli":
        if q != 2:
            raise UsageError("bernoulli family requires q = 2")
        _require(spec, ["alpha"], "config key 'dist'")
        alpha = _float(spec["alpha"], "alpha")
        if not 0 <= alpha <= 1:
            raise UsageError(f"config key 'alpha' must lie in [0, 1], got {spec['alpha']!r}")
        return im.bernoulli_iid(n, alpha, cap)
    if family == "point_mass":
        _require(spec, ["at"], "config key 'dist'")
        at = _integers(spec["at"], "at")
        if at.shape != (n,) or not np.all((at >= 0) & (at < q)):
            raise UsageError(f"config key 'at' is not a point of F_{q}^{n}: {spec['at']!r}")
        return im.point_mass(q, n, tuple(at.tolist()), cap)
    if family == "explicit":
        _require(spec, ["probs"], "config key 'dist'")
        if not isinstance(spec["probs"], list):
            raise UsageError(f"config key 'probs' must be a list of numbers, got {spec['probs']!r}")
        probs = [_float(v, "probs") for v in spec["probs"]]
        if len(probs) != q ** n:
            raise UsageError(f"config key 'probs' must have length q^n = {q ** n}, got {len(probs)}")
        if min(probs) < 0:
            raise UsageError(f"config key 'probs' must be non-negative, got {spec['probs']!r}")
        if abs(float(np.sum(probs)) - 1.0) > 1e-12:  # Distribution's own test
            raise UsageError(f"config key 'probs' must sum to 1 within 1e-12, got {spec['probs']!r}")
        return im.Distribution(q, n, probs, cap)
    raise UsageError(f"unknown distribution family {family!r}")


def _poly_from_config(spec, params: SchemeParams) -> MultiPoly:
    """Config key 'f': a polynomial in MultiPoly.to_json's form, over the
    scheme's n variables and field F_q."""
    if not isinstance(spec, dict):
        raise UsageError(f"config key 'f' must be a polynomial object, got {spec!r}")
    _require(spec, ["n", "q", "terms"], "config key 'f'")
    if not isinstance(spec["terms"], list):
        raise UsageError(f"config key 'terms' must be a list of terms, got {spec['terms']!r}")
    for term in spec["terms"]:
        if not isinstance(term, dict):
            raise UsageError(f"config key 'terms' must hold objects, got {term!r}")
        _require(term, ["exp", "coef"], "a term of config key 'f'")
    try:
        f = MultiPoly.from_json(spec)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key 'f' is not a polynomial: {exc}") from None
    for key, have, want in (("n", f.num_vars, params.n), ("q", f.q, params.q)):
        if have != want:
            raise UsageError(f"config key 'f' has {key} = {have}, but the scheme has {key} = {want}")
    return f


def _header(command: str, config: dict, seed) -> str:
    payload = {"command": command, "config": config, "seed": seed}
    return "# " + json.dumps(payload, sort_keys=True)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _write_lines(path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(config: dict) -> tuple:
    _require(config, ["n", "q", "r", "d", "S", "m", "seed"])
    # every key is checked before any work; SchemeParams and the protocol
    # keep their own checks as a second line
    n = _int(config["n"], "n", 2)
    q = _prime(config["q"], "q")
    r = _int(config["r"], "r")
    if not 1 <= r < n:
        raise UsageError(f"config key 'r' must lie in [1, n) = [1, {n}), got {config['r']!r}")
    m = _int(config["m"], "m")
    if not r <= m <= n:
        raise UsageError(f"config key 'm' must lie in [r, n] = [{r}, {n}], got {config['m']!r}")
    d = _int(config["d"], "d", 0)
    if d >= m * (q - 1):
        raise UsageError(f"config key 'd' must be below m(q-1) = {m * (q - 1)}, "
                         f"got {config['d']!r}")
    params = SchemeParams(n=n, q=q, protected_size=r, degree_bound=d,
                          straggler_budget=_int(config["S"], "S", 0))
    seed = _int(config["seed"], "seed", 0)
    num_workers = protocol.plan(params, m).num_workers
    stragglers = config.get("stragglers", [])
    if not isinstance(stragglers, list):
        raise UsageError(f"config key 'stragglers' must be a list of worker indices, "
                         f"got {stragglers!r}")
    stragglers = [_int(s, "stragglers") for s in stragglers]
    if not all(0 <= s < num_workers for s in stragglers):
        raise UsageError(f"config key 'stragglers' must hold worker indices in [0, N) = "
                         f"[0, {num_workers}), got {config['stragglers']!r}")
    if len(set(stragglers)) > params.straggler_budget:
        raise UsageError(f"config key 'stragglers' must name at most S = {params.straggler_budget} "
                         f"distinct workers, got {config['stragglers']!r}")
    code_seed, key_seed, x_seed, f_seed = _child_seeds(seed, 4)
    code = sample_code(params.n, m, params.q, code_seed)
    if "x" in config:
        data = _integers(config["x"], "x")
        if data.shape != (params.n,):
            raise UsageError(f"config key 'x' must be a list of n = {params.n} integers, "
                             f"got {config['x']!r}")
    else:
        data = np.random.default_rng(x_seed).integers(0, params.q, params.n)
    f = _poly_from_config(config["f"], params) if "f" in config else None
    # storage first: it refuses an oversized code before random_poly lists a basis
    session = storage_phase(data, params, code, key_seed)
    if f is None:
        f = random_poly(params.n, params.degree_bound, params.q, f_seed)
    decoded = computation_phase(session, f, stragglers)
    direct = evaluate(f, data)
    result = {
        "decoded": decoded,
        "direct": direct,
        "match": decoded == direct,
        "metrics": {
            "N": session.metrics.num_workers,
            "D": session.metrics.download_cost,
            "m": session.metrics.key_length,
        },
        "download_cost": protocol.download_cost(session),
        "seed": seed,
    }
    return (0 if result["match"] else 1), result


# ---------------------------------------------------------------------------
# audit

def cmd_audit(config: dict, cap=None, variant: str = "theorem") -> tuple:
    _require(config, ["n", "q", "r", "p", "epsilon", "a", "seed"])
    n = _int(config["n"], "n")
    q = _prime(config["q"], "q")
    r = _int(config["r"], "r")
    if not 1 <= r < n:
        raise UsageError(f"config key 'r' must lie in [1, n) = [1, {n}), got {config['r']!r}")
    p = _int(config["p"], "p", 2)
    epsilon = _float(config["epsilon"], "epsilon")
    if not 0 < epsilon <= 1:
        raise UsageError(f"config key 'epsilon' must lie in (0, 1], got {config['epsilon']!r}")
    a = _float(config["a"], "a")
    if not a > 1:
        raise UsageError(f"config key 'a' must exceed 1, got {config['a']!r}")
    num_codes = _int(config.get("num_codes", 100), "num_codes")
    if num_codes < 1:
        raise UsageError("num_codes must be at least 1")
    seed = _int(config["seed"], "seed", 0)
    # refuse the q^n probability table, and more audited subsets than the
    # cap, before anything is built for them
    check_cap(q ** n, cap)
    subsets, limit = math.comb(n, r), cap_limit(cap)
    if num_codes * subsets > limit:
        raise UsageError(f"config key 'num_codes' must be at most {limit // subsets}: it times "
                         f"the {subsets} subsets audited per code may not exceed cap {limit}, "
                         f"got {config['num_codes']!r}")
    dist_seed, *code_seeds = _child_seeds(seed, num_codes + 1)
    dist = _dist_from_config(config.get("dist", {}), q, n, dist_seed, cap)

    m = math.ceil(im.keysize_lower_bound(im.measured_bounds(dist, p, r, epsilon, a)))
    if m < max(1, r):
        raise UsageError(f"key length from the bound is {m}; decrease epsilon")
    if m > n:
        raise UsageError(
            f"key length from the bound is {m} > n = {n}; increase epsilon or entropy"
        )

    rows = ["code_seed,max_mi,epsilon_c_theorem,epsilon_c_proof,pass"]
    passes = 0
    for code_seed in code_seeds:
        report = im.leakage_audit(dist, sample_code(n, m, q, code_seed), r,
                                  p=p, epsilon=epsilon, a=a)
        bounds = report["epsilon_c"]
        ok = report["passes"][variant]
        passes += ok
        fields = [report["max_mi"], bounds["theorem"], bounds["proof"], ok]
        rows.append(",".join([str(code_seed)] + [_fmt(v) for v in fields]))
    fraction = passes / num_codes
    target = 1 - 1 / a
    sigma = math.sqrt(target * (1 - target) / num_codes)
    footer = {
        "pass_fraction": fraction,
        "target": target,
        "sigma": sigma,
        "threshold": target - 3 * sigma,
        "epsilon_c": bounds,
        "variant": variant,
        "m": m,
        "keysize_bound": report["keysize_bound"],
    }
    rows.append("# " + json.dumps(footer, sort_keys=True))
    exit_code = 0 if fraction >= target - 3 * sigma else 1
    return exit_code, rows


# ---------------------------------------------------------------------------
# keysize curves

def cmd_keysize_curves(config: dict) -> tuple:
    n = _int(config.get("n", 2 ** 18), "n", 1)
    p = _int(config.get("p", 2), "p", 2)
    q = _prime(config.get("q", 2), "q")
    # a data entropy lies in [0, n]: entropy_a, and n minus each offset
    entropy_a = _float(config.get("entropy_a", max(n - 4, 0)), "entropy_a")
    if not 0 <= entropy_a <= n:
        raise UsageError(f"config key 'entropy_a' must lie in [0, n] = [0, {n}], "
                         f"got {config['entropy_a']!r}")
    # every epsilon, q^j on curve a and epsilon_b on curve b, lies in (0, 1]
    eps_exponents = [_int(j, "epsilon_log_q_exponents")
                     for j in config.get("epsilon_log_q_exponents", range(-60, 0))]
    if not all(j <= 0 and float(q) ** j > 0 for j in eps_exponents):
        raise UsageError(f"config key 'epsilon_log_q_exponents' must give q^j in (0, 1], "
                         f"got {config['epsilon_log_q_exponents']!r}")
    epsilon_b = _float(config.get("epsilon_b", float(q) ** (-2 * math.log(n, q))), "epsilon_b")
    if not 0 < epsilon_b <= 1:
        raise UsageError(f"config key 'epsilon_b' must lie in (0, 1], got {epsilon_b!r}")
    entropy_offsets = [_int(k, "entropy_offsets")
                       for k in config.get("entropy_offsets", range(min(64, n), -1, -1))]
    if not all(0 <= k <= n for k in entropy_offsets):
        raise UsageError(f"config key 'entropy_offsets' must lie in [0, n] = [0, {n}], "
                         f"got {config['entropy_offsets']!r}")

    def bound(epsilon: float, entropy: float) -> float:
        bp = im.BoundParams(
            n=n, q=q, p=p, epsilon=epsilon, a=2.0,
            data_entropy=entropy, max_subset_entropy=0.0,
        )
        return im.keysize_lower_bound(bp)

    curve_a = ["x,m_real,m_ceil"]
    for j in sorted(eps_exponents):
        eps = float(q) ** j
        m_real = bound(eps, entropy_a)
        curve_a.append(",".join([_fmt(eps), _fmt(m_real), str(math.ceil(m_real))]))

    curve_b = ["x,m_real,m_ceil"]
    for k in sorted(entropy_offsets, reverse=True):
        entropy = float(n - k)
        m_real = bound(epsilon_b, entropy)
        curve_b.append(",".join([_fmt(entropy), _fmt(m_real), str(math.ceil(m_real))]))

    resolved = {
        "n": n, "p": p, "q": q,
        "entropy_a": entropy_a,
        "epsilon_log_q_exponents": sorted(eps_exponents),
        "epsilon_b": epsilon_b,
        "entropy_offsets": sorted(entropy_offsets),
    }
    return 0, {"config": resolved, "curve_a": curve_a, "curve_b": curve_b}


# ---------------------------------------------------------------------------
# metrics check

def cmd_metrics_check(config: dict) -> tuple:
    num_dists = _int(config.get("num_dists", 200), "num_dists", 0)
    num_pairs = _int(config.get("num_pairs", 1000), "num_pairs", 0)
    seed = _int(config.get("seed", 0), "seed", 0)
    rng = np.random.default_rng(seed)
    spaces = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    uniforms = {space: im.uniform(*space) for space in spaces}
    violations = []

    gap_count = 0
    for i in range(num_dists):
        q, n = spaces[i % len(spaces)]
        r = 1 + i % 2
        p = 2 + (i // 2) % 2
        dist = im.random_dirichlet(q, n, rng.integers(0, 2 ** 63))
        report = im.check_entropy_gap(dist, p, r)
        gap_count += 1
        if not report["holds"]:
            violations.append({"check": "entropy_gap", "case": i, "report": report})

    uniform_count = 0
    for q, n in spaces:
        report = im.check_entropy_gap(uniforms[q, n], 2, 1)
        uniform_count += 1
        if abs(report["slack"]) > im.VERDICT_TOL:
            violations.append({"check": "entropy_gap_uniform", "space": [q, n], "report": report})

    pair_count = 0
    for i in range(num_pairs):
        q, n = spaces[i % len(spaces)]
        p = 2 + i % 2
        da = im.random_dirichlet(q, n, rng.integers(0, 2 ** 63))
        db = im.random_dirichlet(q, n, rng.integers(0, 2 ** 63))
        pair_count += 1
        pinsker = im.pinsker_check(da, db)  # v_sum is v_distance, d_base_q kl_divergence
        if pinsker["v_sum"] > im.v_p_distance(da, db, p) + im.VERDICT_TOL:
            violations.append({"check": "v_le_vp", "case": i})
        if pinsker["d_base_q"] > im.renyi_divergence(da, db, p) + im.VERDICT_TOL:
            violations.append({"check": "d_le_dp", "case": i})
        if not pinsker["classical_form_holds"]:
            violations.append({"check": "pinsker_classical", "case": i})
        if abs(im.renyi_entropy(uniforms[q, n], p) - n) > im.VERDICT_TOL:
            violations.append({"check": "uniform_entropy", "case": i})

    relation_count = 0
    relation_skipped = 0
    for i in range(max(1, num_dists // 4)):
        q, n = [(2, 5), (2, 6), (3, 4)][i % 3]
        alpha = [20.0, 50.0, 100.0][i % 3]
        dist = im.random_dirichlet(q, n, rng.integers(0, 2 ** 63), alpha=alpha)
        screened = im.relation_in_context(dist, 2, 2.0, rng)
        if screened is None:
            relation_skipped += 1
            continue
        for report in screened[0]:
            relation_count += 1
            if not report["holds"]:
                violations.append({"check": "divergence_distance", "case": i, "report": report})

    result = {
        "counts": {
            "entropy_gap": gap_count,
            "entropy_gap_uniform": uniform_count,
            "metric_pairs": pair_count,
            "divergence_distance": relation_count,
            "divergence_distance_skipped": relation_skipped,
        },
        "violations": violations,
        "all_pass": not violations,
        "seed": seed,
    }
    return (0 if not violations else 1), result


# ---------------------------------------------------------------------------
# wiring

def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")


def _split_out(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{tag}{ext or '.csv'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icc-kit",
        description="masked distributed polynomial computation: simulate, audit, curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in ("simulate", "audit", "keysize-curves", "metrics-check"):
        cmd = commands[name] = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="overrides config seed")
    commands["audit"].add_argument("--cap", type=int, default=im.DEFAULT_CAP,
                                   help="most entries any one table may have")
    commands["audit"].add_argument("--variant", choices=("theorem", "proof"), default="theorem",
                                   help="leakage bound constant-factor variant")
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that has gone shows up here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader closed the pipe (say, `| head`): point stdout at
        # devnull so that no later write or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _run(args) -> int:
    """One parsed command; returns its exit code."""
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed

        if args.command == "audit":
            code, rows = cmd_audit(config, cap=args.cap, variant=args.variant)
            lines = [_header("audit", config, config.get("seed"))] + rows
            _write_lines(args.out, lines)
            return code

        if args.command == "keysize-curves":
            if args.out is None:
                raise UsageError("keysize-curves requires --out (two files are written)")
            code, payload = cmd_keysize_curves(config)
            header = _header("keysize-curves", payload["config"], config.get("seed"))
            _write_lines(_split_out(args.out, "a"), [header] + payload["curve_a"])
            _write_lines(_split_out(args.out, "b"), [header] + payload["curve_b"])
            return code

        if args.command == "simulate":
            code, result = cmd_simulate(config)
        else:
            code, result = cmd_metrics_check(config)
        text = json.dumps(result, indent=2, sort_keys=True)
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return code
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except Exception as exc:
        # anything else is a crash, not a failed property: report it as a
        # usage/config error so exit code 1 keeps its meaning
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
