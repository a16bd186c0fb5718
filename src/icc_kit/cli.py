"""Command-line front door: simulate, audit, keysize-curves, metrics-check.

Every CSV output (audit, keysize-curves) starts with a '#'-prefixed JSON
header holding the resolved config and seed, so a run can be reproduced
byte for byte; simulate and metrics-check write one JSON object, which
holds the seed.
Exit codes: 0 success, 1 property failure, 2 usage or config error (or a
crash, labelled "internal error").
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


_BOUNDS = (("at least", lambda x, b: x >= b), ("above", lambda x, b: x > b),
           ("at most", lambda x, b: x <= b), ("below", lambda x, b: x < b))


def _ranged(number, key: str, value, least=None, above=None, most=None, below=None):
    """number if it lies within its bounds (least, most inclusive; above, below
    exclusive), else a usage error naming key and value. A bound is a number,
    or a (number, reason) pair when other keys or the cap set it."""
    for (words, inside), bound in zip(_BOUNDS, (least, above, most, below)):
        if bound is not None:
            limit, reason = bound if isinstance(bound, tuple) else (bound, None)
            if not inside(number, limit):
                why = f": {reason}" if reason else ""
                raise UsageError(f"config key {key!r} must be {words} {limit}{why}, got {value!r}")
    return number


def _int(value, key: str, **bounds) -> int:
    """One integer config value as a Python int (see _integers), within
    bounds (see _ranged)."""
    arr = _integers(value, key)
    if arr.ndim:
        raise UsageError(f"config key {key!r} must be one integer, got {value!r}")
    return _ranged(arr.item(), key, value, **bounds)


def _ints(value, key: str, **bounds) -> list:
    """A list config value of integers (see _integers) as Python ints, each
    within bounds (see _ranged)."""
    arr = _integers(value, key) if isinstance(value, list) else None
    if arr is None or arr.ndim != 1:
        raise UsageError(f"config key {key!r} must be a list of integers, got {value!r}")
    numbers = arr.tolist()
    for extreme in (min, max) if numbers else ():
        _ranged(extreme(numbers), key, value, **bounds)
    return numbers


def _prime(value, key: str) -> int:
    """A field order config value: one prime integer (see _int)."""
    number = _int(value, key)
    try:
        _check_prime(number)
    except ValueError:
        raise UsageError(f"config key {key!r} must be a prime, got {value!r}") from None
    return number


def _float(value, key: str, **bounds) -> float:
    """A real config value as a float: a JSON int or finite float within
    bounds (see _ranged). A bool, string or non-finite number is a usage
    error, not coerced."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return _ranged(number, key, value, **bounds)
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
        half_range = sys.float_info.max / 2 / q ** n  # q^n gamma draws near alpha are summed
        alpha = _float(spec.get("alpha", 1.0), "alpha", above=0,
                       most=(half_range, "half the float range over q^n for keys 'q' and 'n'"))
        return im.random_dirichlet(q, n, seed, alpha=alpha, cap=cap)
    if family == "bernoulli":
        _ranged(q, "q", q, most=(2, "key 'family' is bernoulli, which is binary"))
        alpha = _float(spec.get("alpha"), "alpha", least=0, most=1)
        return im.bernoulli_iid(n, alpha, cap)
    if family == "point_mass":
        at = _ints(spec.get("at"), "at", least=0, below=(q, f"else it is not a point of F_{q}^{n}"))
        if len(at) != n:
            raise UsageError(f"config key 'at' is not a point of F_{q}^{n}: {spec['at']!r}")
        return im.point_mass(q, n, tuple(at), cap)
    if family == "explicit":
        given = spec.get("probs")
        if not isinstance(given, list):
            raise UsageError(f"config key 'probs' must be a list of numbers, got {given!r}")
        probs = [_float(v, "probs") for v in given]
        if len(probs) != q ** n:
            raise UsageError(f"config key 'probs' must have length q^n = {q ** n}, got {len(probs)}")
        _ranged(min(probs), "probs", given, least=0)
        _ranged(abs(float(np.sum(probs)) - 1.0), "probs", given,  # Distribution's own test
                most=(1e-12, "the distance of its sum from 1"))
        return im.Distribution(q, n, probs, cap)
    families = ["uniform", "dirichlet", "bernoulli", "point_mass", "explicit"]
    raise UsageError(f"config key 'family' must be one of {families}, got {family!r}")


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
    try:  # its own degree bound 'd': -1 (the default) takes the degree of its terms
        f = MultiPoly.from_json(dict(spec, d=_int(spec.get("d", -1), "d", least=-1)))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key 'f' is not a polynomial: {exc}") from None
    for key, have, want in (("n", f.num_vars, params.n), ("q", f.q, params.q)):
        if have != want:
            raise UsageError(f"config key 'f' has {key} = {have}, but the scheme has {key} = {want}")
    _ranged(f.degree, "f", spec, most=(params.degree_bound, "key 'd' bounds its degree"))
    return f


def _header(command: str, config: dict, seed) -> str:
    payload = {"command": command, "config": config, "seed": seed}
    return "# " + json.dumps(payload, sort_keys=True)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and abs(value) < 1e15 and value == int(value):
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
    cap = (cap_limit(), "the share table of a larger one exceeds cap")
    n = _int(config["n"], "n", least=2, most=cap)
    q = _prime(config["q"], "q")
    r = _int(config["r"], "r", least=1, below=(n, "the value of key 'n'"))
    m = _int(config["m"], "m", least=(r, "the value of key 'r'"), most=(n, "the value of key 'n'"))
    d = _int(config["d"], "d", least=0, below=(m * (q - 1), "m(q-1) for keys 'm' and 'q'"))
    params = SchemeParams(n=n, q=q, protected_size=r, degree_bound=d,
                          straggler_budget=_int(config["S"], "S", least=0, most=cap))
    seed = _int(config["seed"], "seed", least=0)
    num_workers = protocol.plan(params, m).num_workers
    stragglers = _ints(config.get("stragglers", []), "stragglers", least=0,
                       below=(num_workers, "the worker count N planned from the other keys"))
    _ranged(len(set(stragglers)), "stragglers", config.get("stragglers"),
            most=(params.straggler_budget, "key 'S' bounds the distinct workers that straggle"))
    code_seed, key_seed, x_seed, f_seed = _child_seeds(seed, 4)
    code = sample_code(params.n, m, params.q, code_seed)
    if "x" in config:
        data = _ints(config["x"], "x")
        if len(data) != params.n:
            raise UsageError(f"config key 'x' must be a list of n = {params.n} integers, got {data}")
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
    # refuse the q^n probability table, and more audited subsets than the
    # cap, before anything is built for them: n first, so that q ** n is
    # formed only for an n whose 2^n fits the cap
    limit = cap_limit(cap)
    top = limit.bit_length() - 1
    n = _int(config["n"], "n", least=2, most=(top, f"2^{top + 1} exceeds cap {limit}"))
    q = _prime(config["q"], "q")
    check_cap(q ** n, cap)
    r = _int(config["r"], "r", least=1, below=(n, "the value of key 'n'"))
    p = _int(config["p"], "p", least=2,
             most=(n, "the key length from the bound, at least p, may not exceed key 'n'"))
    epsilon = _float(config["epsilon"], "epsilon", above=0, most=1)
    a = _float(config["a"], "a", above=1,
               most=(sys.float_info.max / 8, "the leakage envelope, below 8a, must stay finite"))
    subsets = math.comb(n, r)
    num_codes = _int(config.get("num_codes", 100), "num_codes", least=1, most=(limit // subsets,
                     f"it times the {subsets} subsets audited per code may not exceed cap {limit}"))
    seed = _int(config["seed"], "seed", least=0)
    dist_seed, *code_seeds = _child_seeds(seed, num_codes + 1)
    dist = _dist_from_config(config.get("dist", {}), q, n, dist_seed, cap)

    m = math.ceil(im.keysize_lower_bound(im.measured_bounds(dist, p, r, epsilon, a)))
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
    n = _int(config.get("n", 2 ** 18), "n", least=1,
             most=(2 ** 53, "above it a float no longer holds every integer, so the bound is inexact"))
    p = _int(config.get("p", 2), "p", least=2)
    q = _prime(config.get("q", 2), "q")
    # entropy_a and n minus each offset are data entropies; q^j for each
    # exponent j, and epsilon_b, are epsilons
    entropy = (n, "a data entropy lies in [0, n] for key 'n'")
    entropy_a = _float(config.get("entropy_a", max(n - 4, 0)), "entropy_a", least=0, most=entropy)
    underflow = (math.ceil(-1074 / math.log2(q)), "q^j for key 'q' may not fall below 2^-1074")
    eps_exponents = _ints(config.get("epsilon_log_q_exponents", list(range(-60, 0))),
                          "epsilon_log_q_exponents", least=underflow, most=0)
    epsilon_b = _float(config.get("epsilon_b", float(q) ** (-2 * math.log(n, q))), "epsilon_b",
                       above=0, most=1)
    entropy_offsets = _ints(config.get("entropy_offsets", list(range(min(64, n), -1, -1))),
                            "entropy_offsets", least=0, most=entropy)

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
    cap = (cap_limit(), "the enumeration cap")
    num_dists = _int(config.get("num_dists", 200), "num_dists", least=0, most=cap)
    num_pairs = _int(config.get("num_pairs", 1000), "num_pairs", least=0, most=cap)
    seed = _int(config.get("seed", 0), "seed", least=0)
    result = im.property_sweep(seed, num_dists, num_pairs)
    return (0 if result["all_pass"] else 1), result


# ---------------------------------------------------------------------------
# wiring

def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a JSON object of keys, got {config!r}")
    return config


def _split_out(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{tag}{ext or '.csv'}"


def _cap(text: str) -> int:
    """audit --cap: a positive integer, since a cap below 1 admits no table."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return cap


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
    commands["audit"].add_argument("--cap", type=_cap, default=im.DEFAULT_CAP,
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
        # a library check (ValueError) behind the readers, or a crash: not a
        # failed property, so exit 2 keeps exit code 1's meaning
        label = "" if isinstance(exc, ValueError) else "internal error: "
        print(json.dumps({"error": f"{label}{type(exc).__name__}: {exc}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
