"""The four benchmark workloads.

Each workload turns a seeded random stream into one icc-kit config per op,
runs the op through the documented CLI entry points (``cmd_*`` in process,
or ``python -m icc_kit.cli`` as a subprocess), and checks the output. The
program only ever sees the generated configs.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TRACED_CLI = HERE / "traced_cli.py"
SUBPROCESS_TIMEOUT_S = 60


def rm_dimension(q: int, d: int, m: int) -> int:
    """Monomials in m variables with every exponent below q and total degree
    at most d, counted independently of icc_kit."""
    counts = [1] + [0] * d  # counts[k]: exponent tuples of total degree k
    for _ in range(m):
        counts = [sum(counts[k - e] for e in range(min(q - 1, k) + 1)) for k in range(d + 1)]
    return sum(counts)


class Workload:
    name = ""
    params: dict = {}
    in_process = True

    def config(self, rng) -> dict:
        raise NotImplementedError

    def run(self, config: dict, trace_path=None) -> tuple:
        """Run one op; returns (exit code, output)."""
        raise NotImplementedError

    def check(self, config: dict, code: int, output) -> list:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def digest(self, output) -> dict:
        """The part of an output that is pinned by the recorded reference."""
        raise NotImplementedError

    def compare(self, digest: dict, reference: dict) -> list:
        return [] if digest == reference else [f"output {digest} differs from reference {reference}"]


class Simulate(Workload):
    """One storage-plus-computation round trip with random stragglers."""

    stragglers = 0

    def config(self, rng) -> dict:
        p = self.params
        workers = (p["S"] + 1) * rm_dimension(p["q"], p["d"], p["m"])
        return dict(p, seed=rng.getrandbits(63),
                    stragglers=sorted(rng.sample(range(workers), self.stragglers)))

    def check(self, config, code, output) -> list:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if output.get("match") is not True:
            problems.append(f"decoded {output.get('decoded')} != direct {output.get('direct')}")
        dim = rm_dimension(config["q"], config["d"], config["m"])
        planned = {"N": (config["S"] + 1) * dim, "D": dim, "m": config["m"]}
        if output.get("metrics") != planned:
            problems.append(f"cost triple {output.get('metrics')} != planned {planned}")
        if output.get("download_cost") != dim:
            problems.append(f"download cost {output.get('download_cost')} != {dim}")
        return problems

    def digest(self, output) -> dict:
        return {key: output[key] for key in ("decoded", "direct", "metrics")}


class SimWide(Simulate):
    name = "sim-wide"
    params = {"n": 90, "q": 5, "r": 1, "d": 2, "S": 1, "m": 4}
    stragglers = 1

    def run(self, config, trace_path=None):
        from icc_kit import cli

        return cli.cmd_simulate(config)


class SimCold(Simulate):
    name = "sim-cold"
    params = {"n": 32, "q": 2, "r": 1, "d": 2, "S": 3, "m": 12}
    stragglers = 3
    in_process = False

    def __init__(self, config_path: Path):
        self.config_path = config_path

    def run(self, config, trace_path=None):
        self.config_path.write_text(json.dumps(config))
        if trace_path is None:
            cmd = [sys.executable, "-m", "icc_kit.cli"]
        else:
            cmd = [sys.executable, str(TRACED_CLI), str(trace_path)]
        cmd += ["simulate", "--config", str(self.config_path)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if done.stderr:
            sys.stderr.write(done.stderr)
        try:
            output = json.loads(done.stdout)
        except json.JSONDecodeError:
            output = {"unparsed_stdout": done.stdout[-200:]}
        return done.returncode, output


class AuditEnsemble(Workload):
    name = "audit-ensemble"
    params = {"n": 10, "q": 2, "r": 1, "p": 2, "epsilon": 0.125, "a": 2.0,
              "num_codes": 1, "dist": {"family": "dirichlet", "alpha": 30.0}}
    key_length = 7

    def config(self, rng) -> dict:
        return dict(self.params, seed=rng.getrandbits(63))

    def run(self, config, trace_path=None):
        from icc_kit import cli

        return cli.cmd_audit(config)

    @staticmethod
    def _parse(rows):
        if not rows or rows[0] != "code_seed,max_mi,epsilon_c_theorem,epsilon_c_proof,pass":
            raise ValueError("missing CSV header")
        if not rows[-1].startswith("# "):
            raise ValueError("missing JSON footer")
        return [float(row.split(",")[1]) for row in rows[1:-1]], json.loads(rows[-1][2:])

    def check(self, config, code, output) -> list:
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            max_mis, footer = self._parse(output)
        except (ValueError, IndexError) as exc:
            return problems + [f"unreadable audit output: {exc}"]
        if len(max_mis) != config["num_codes"]:
            problems.append(f"{len(max_mis)} code rows, expected {config['num_codes']}")
        if footer.get("m") != self.key_length:
            problems.append(f"key length {footer.get('m')} != {self.key_length}")
        bad = [v for v in max_mis if not (math.isfinite(v) and -1e-12 <= v <= config["r"] + 1e-12)]
        if bad:
            problems.append(f"max_mi outside [0, r]: {bad}")
        return problems

    def digest(self, output) -> dict:
        max_mis, footer = self._parse(output)
        return {"m": footer["m"], "max_mi": max_mis}

    def compare(self, digest, reference) -> list:
        same = (digest["m"] == reference["m"]
                and len(digest["max_mi"]) == len(reference["max_mi"])
                and all(abs(a - b) <= 1e-9 for a, b in zip(digest["max_mi"], reference["max_mi"])))
        return [] if same else [f"audit {digest} differs from reference {reference}"]


class MetricsCheck(Workload):
    name = "metrics-check"
    params = {"num_dists": 50, "num_pairs": 50}
    spaces = 5  # sample spaces cmd_metrics_check sweeps for the uniform case

    def config(self, rng) -> dict:
        return dict(self.params, seed=rng.getrandbits(63))

    def run(self, config, trace_path=None):
        from icc_kit import cli

        return cli.cmd_metrics_check(config)

    def check(self, config, code, output) -> list:
        problems = [] if code == 0 else [f"exit code {code}"]
        if output.get("all_pass") is not True:
            problems.append(f"violations: {output.get('violations')}")
        counts = output.get("counts", {})
        expected = {"entropy_gap": config["num_dists"], "metric_pairs": config["num_pairs"],
                    "entropy_gap_uniform": self.spaces}
        for key, value in expected.items():
            if counts.get(key) != value:
                problems.append(f"count {key} = {counts.get(key)}, expected {value}")
        if not 0 <= counts.get("divergence_distance_skipped", -1) <= max(1, config["num_dists"] // 4):
            problems.append(f"relation cases skipped: {counts.get('divergence_distance_skipped')}")
        return problems

    def digest(self, output) -> dict:
        return {"counts": output["counts"]}


def make_workloads(scratch: Path) -> dict:
    workloads = [SimWide(), SimCold(scratch / "sim-cold-config.json"), AuditEnsemble(), MetricsCheck()]
    return {w.name: w for w in workloads}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
