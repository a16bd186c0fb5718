"""Golden CLI outputs: exact stdout and file bytes of every subcommand at
fixed seeds. A behaviour-preserving refactor must leave them unchanged.

Regenerate the files under tests/golden/ (only on a commit whose outputs
are known to be right) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import itertools
import json
import sys
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from icc_kit import cli
from icc_kit import infometrics as im
from icc_kit.codes import sample_code

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (subcommand, config, output file names the run writes)
CASES = {
    "simulate_seed11": (
        "simulate",
        {"n": 6, "q": 3, "r": 1, "d": 2, "S": 1, "m": 2, "seed": 11},
        ["out.json"],
    ),
    "simulate_seed12_stragglers": (
        "simulate",
        {"n": 8, "q": 2, "r": 1, "d": 2, "S": 2, "m": 5, "seed": 12, "stragglers": [0, 7]},
        ["out.json"],
    ),
    "simulate_wide_straggler": (
        "simulate",
        {"n": 90, "q": 5, "r": 1, "d": 2, "S": 1, "m": 4, "seed": 7, "stragglers": [3]},
        ["out.json"],
    ),
    "simulate_q61_straggler": (
        "simulate",
        {"n": 6, "q": 2305843009213693951, "r": 1, "d": 2, "S": 1, "m": 3, "seed": 5,
         "stragglers": [4]},
        ["out.json"],
    ),
    "audit_three_codes": (
        "audit",
        {"n": 8, "q": 2, "r": 2, "p": 2, "epsilon": 0.25, "a": 2.0, "seed": 5,
         "num_codes": 3, "dist": {"family": "dirichlet", "alpha": 30.0}},
        ["out.csv"],
    ),
    "keysize_curves_short": (
        "keysize-curves",
        {"n": 64, "q": 2, "epsilon_log_q_exponents": [-8, -4, -1],
         "entropy_offsets": [0, 2, 4]},
        ["out_a.csv", "out_b.csv"],
    ),
    "metrics_check_small": (
        "metrics-check",
        {"num_dists": 12, "num_pairs": 10, "seed": 3},
        ["out.json"],
    ),
}


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in workdir; returns {golden file name: bytes}."""
    command, config, files = CASES[name]
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    out = workdir / ("out.csv" if command in ("audit", "keysize-curves") else "out.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    produced = {f"{name}.exit": f"{code}\n".encode(), f"{name}.stdout": stdout.getvalue().encode()}
    for file_name in files:
        produced[f"{name}.{file_name}"] = (workdir / file_name).read_bytes()
    return produced


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for file_name, content in run_case(name, tmp_path).items():
        assert content == (GOLDEN / file_name).read_bytes(), file_name


def _exact_mutual_information(dist, code, indices) -> Decimal:
    """I(data + key.G; X_R) in q-ary symbols from a Fraction joint table over
    every (data, key) pair, with 60-digit decimal logarithms."""
    q, n, m = dist.q, dist.n, code.m
    gen = code.generator.tolist()
    codewords = [
        [sum(k * g[j] for k, g in zip(key, gen)) for j in range(n)]
        for key in itertools.product(range(q), repeat=m)
    ]
    weight = Fraction(1, q ** m)
    joint, row, col = {}, {}, {}
    for x_idx, prob in enumerate(dist.probs.tolist()):
        if prob == 0:
            continue
        x = [(x_idx // q ** (n - 1 - j)) % q for j in range(n)]
        sub = tuple(x[i] for i in indices)
        mass = Fraction(prob) * weight
        for word in codewords:
            y = tuple((a + b) % q for a, b in zip(x, word))
            joint[y, sub] = joint.get((y, sub), 0) + mass
    for (y, sub), mass in joint.items():
        row[y] = row.get(y, 0) + mass
        col[sub] = col.get(sub, 0) + mass
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(
            Decimal(mass.numerator) / Decimal(mass.denominator)
            * (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln()
            for (y, sub), mass in joint.items()
            for ratio in [mass / (row[y] * col[sub])]
        )
        return total / Decimal(q).ln()


def test_audit_max_mi_matches_exact_rationals(tmp_path):
    """Each max_mi in the audit golden case lies within 5e-16 of the exact
    mutual information of that code's worst subset."""
    _, config, _ = CASES["audit_three_codes"]
    out = run_case("audit_three_codes", tmp_path)["audit_three_codes.out.csv"]
    rows = [line.split(",") for line in out.decode().splitlines()[2:-1]]
    m = json.loads(out.decode().splitlines()[-1][2:])["m"]
    q, n, r = config["q"], config["n"], config["r"]
    dist_seed = cli._child_seeds(config["seed"], config["num_codes"] + 1)[0]
    dist = im.random_dirichlet(q, n, dist_seed, alpha=config["dist"]["alpha"])
    errors = {}
    for code_seed, max_mi, *_ in rows:
        code = sample_code(n, m, q, int(code_seed))
        leaks = im.subset_leakages(dist, code, r)
        worst = max(leaks, key=leaks.get)
        errors[code_seed] = abs(Decimal(max_mi) - _exact_mutual_information(dist, code, worst))
    assert len(errors) == 3 and max(errors.values()) <= Decimal("5e-16"), errors


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, content in run_case(case, Path(tmp)).items():
                (GOLDEN / file_name).write_bytes(content)
                print(f"wrote {file_name}", file=sys.stderr)
