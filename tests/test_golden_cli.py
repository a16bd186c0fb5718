"""Golden CLI outputs: exact stdout and file bytes of every subcommand at
fixed seeds. A behaviour-preserving refactor must leave them unchanged.

Regenerate the files under tests/golden/ (only on a commit whose outputs
are known to be right) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from icc_kit import cli

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, content in run_case(case, Path(tmp)).items():
                (GOLDEN / file_name).write_bytes(content)
                print(f"wrote {file_name}", file=sys.stderr)
