"""CLI surface: subcommand behavior, config handling, headers, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

from icc_kit import cli
from icc_kit.cli import (
    UsageError,
    cmd_audit,
    cmd_keysize_curves,
    cmd_metrics_check,
    cmd_simulate,
    main,
)

BASE_SIM = {"n": 5, "q": 3, "r": 1, "d": 2, "S": 1, "m": 2, "seed": 0}


def test_simulate_matches_direct_evaluation():
    code, result = cmd_simulate(dict(BASE_SIM))
    assert code == 0
    assert result["match"] is True
    assert result["decoded"] == result["direct"]
    assert result["download_cost"] == result["metrics"]["D"]
    assert result["metrics"]["N"] == 2 * result["metrics"]["D"]


def test_simulate_seed_sweep_always_matches():
    for seed in range(100):
        code, result = cmd_simulate(dict(BASE_SIM, seed=seed))
        assert code == 0 and result["match"], f"seed {seed}"


def test_simulate_explicit_inputs_and_stragglers():
    f_json = {"n": 5, "q": 3, "d": 1, "terms": [{"exp": [1, 0, 0, 0, 0], "coef": 2}]}
    config = dict(BASE_SIM, x=[0, 1, 2, 0, 1], f=f_json)
    config["stragglers"] = [0]
    code, result = cmd_simulate(config)
    assert code == 0
    assert result["direct"] == 0  # f = 2*x1 at x1 = 0
    assert result["match"]


def test_simulate_missing_keys_is_usage_error():
    with pytest.raises(UsageError, match="missing required keys"):
        cmd_simulate({"n": 5, "q": 3})


AUDIT_UNIFORM = {
    "n": 6, "q": 2, "r": 1, "p": 2, "epsilon": 0.125, "a": 2.0,
    "seed": 5, "num_codes": 40, "dist": {"family": "uniform"},
}


def test_audit_uniform_all_codes_pass():
    code, rows = cmd_audit(dict(AUDIT_UNIFORM), cap=2**24)
    assert code == 0
    assert rows[0].startswith("code_seed,")
    footer = json.loads(rows[-1][2:])
    assert footer["pass_fraction"] == 1.0
    assert footer["m"] == 6
    assert set(footer["epsilon_c"]) == {"theorem", "proof"}
    assert footer["epsilon_c"]["theorem"] < footer["epsilon_c"]["proof"]
    assert len(rows) == 2 + AUDIT_UNIFORM["num_codes"]


def test_audit_dirichlet_meets_ensemble_target():
    config = dict(AUDIT_UNIFORM, dist={"family": "dirichlet", "alpha": 30.0},
                  epsilon=0.25, seed=11)
    code, rows = cmd_audit(config, cap=2**24)
    footer = json.loads(rows[-1][2:])
    assert code == 0
    assert footer["pass_fraction"] >= footer["threshold"]
    assert footer["target"] == 0.5


def test_audit_is_deterministic():
    a = cmd_audit(dict(AUDIT_UNIFORM), cap=2**24)
    b = cmd_audit(dict(AUDIT_UNIFORM), cap=2**24)
    assert a == b


def test_audit_key_length_overflow_is_usage_error():
    config = dict(AUDIT_UNIFORM, epsilon=2.0 ** -8)
    with pytest.raises(UsageError, match="increase epsilon"):
        cmd_audit(config, cap=2**24)


def test_audit_variant_selects_bound():
    strict = cmd_audit(dict(AUDIT_UNIFORM), cap=2**24, variant="theorem")
    loose = cmd_audit(dict(AUDIT_UNIFORM), cap=2**24, variant="proof")
    assert json.loads(strict[1][-1][2:])["variant"] == "theorem"
    assert json.loads(loose[1][-1][2:])["variant"] == "proof"


def test_keysize_curves_payload():
    code, payload = cmd_keysize_curves({})
    assert code == 0
    n = payload["config"]["n"]
    assert n == 2 ** 18

    curve_a = payload["curve_a"]
    assert curve_a[0] == "x,m_real,m_ceil"
    assert len(curve_a) == 1 + 60
    reals_a = [float(line.split(",")[1]) for line in curve_a[1:]]
    assert all(x >= y for x, y in zip(reals_a, reals_a[1:]))  # epsilon up, key down

    curve_b = payload["curve_b"]
    rows_b = [line.split(",") for line in curve_b[1:]]
    assert len(rows_b) == 65
    reals_b = [float(row[1]) for row in rows_b]
    assert all(x > y for x, y in zip(reals_b, reals_b[1:]))  # entropy up, key down
    spot = {float(row[0]): row for row in rows_b}[float(n - 4)]
    assert float(spot[1]) == pytest.approx(42.0, abs=1e-9)
    assert spot[2] == "42"


def test_keysize_curves_custom_grid():
    config = {"n": 64, "q": 2, "epsilon_log_q_exponents": [-8, -4],
              "entropy_offsets": [0, 2, 4]}
    code, payload = cmd_keysize_curves(config)
    assert code == 0
    assert len(payload["curve_a"]) == 3
    assert len(payload["curve_b"]) == 4


def test_metrics_check_passes_and_counts():
    code, result = cmd_metrics_check({"num_dists": 40, "num_pairs": 100, "seed": 7})
    assert code == 0
    assert result["all_pass"] is True
    assert result["violations"] == []
    assert result["counts"]["entropy_gap"] == 40
    assert result["counts"]["metric_pairs"] == 100
    assert result["counts"]["divergence_distance"] > 0


def test_metrics_check_schema_stable_across_seeds():
    _, r7 = cmd_metrics_check({"num_dists": 40, "num_pairs": 100, "seed": 7})
    _, r8 = cmd_metrics_check({"num_dists": 40, "num_pairs": 100, "seed": 8})
    assert set(r7) == set(r8)
    assert set(r7["counts"]) == set(r8["counts"])


# ---------------------------------------------------------------------------
# argv wiring


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_main_simulate_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, BASE_SIM)
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["match"] is True
    assert json.loads(out.read_text()) == printed


def test_main_seed_flag_overrides_config(tmp_path, capsys):
    path = write_config(tmp_path, BASE_SIM)
    assert main(["simulate", "--config", path, "--seed", "41"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 41
    # the flag's seed is checked as the config's is
    assert main(["simulate", "--config", path, "--seed", "-1"]) == 2
    assert "config key 'seed'" in json.loads(capsys.readouterr().out)["error"]


def test_main_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_main_missing_keys_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"n": 4})
    assert main(["simulate", "--config", str(path)]) == 2
    assert "missing required keys" in json.loads(capsys.readouterr().out)["error"]


def test_main_audit_writes_header_and_reruns_identically(tmp_path):
    path = write_config(tmp_path, AUDIT_UNIFORM)
    out1 = tmp_path / "audit1.csv"
    out2 = tmp_path / "audit2.csv"
    assert main(["audit", "--config", path, "--out", str(out1)]) == 0
    assert main(["audit", "--config", path, "--out", str(out2)]) == 0
    first = out1.read_text()
    assert first == out2.read_text()
    header = json.loads(first.splitlines()[0][2:])
    assert header["command"] == "audit"
    assert header["seed"] == AUDIT_UNIFORM["seed"]


def test_main_keysize_curves_requires_out(capsys):
    assert main(["keysize-curves"]) == 2
    assert "--out" in json.loads(capsys.readouterr().out)["error"]


def test_main_keysize_curves_writes_two_files(tmp_path):
    config = write_config(tmp_path, {"n": 64, "q": 2,
                                     "epsilon_log_q_exponents": [-8, -4],
                                     "entropy_offsets": [0, 2]})
    out = tmp_path / "curves.csv"
    assert main(["keysize-curves", "--config", config, "--out", str(out)]) == 0
    for tag, rows in (("a", 2), ("b", 2)):
        lines = (tmp_path / f"curves_{tag}.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "x,m_real,m_ceil"
        assert len(lines) == 2 + rows


def test_main_metrics_check_defaults_small(tmp_path, capsys):
    config = write_config(tmp_path, {"num_dists": 10, "num_pairs": 20, "seed": 3})
    assert main(["metrics-check", "--config", config]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_main_crash_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    # an internal crash must not be reported as exit 1 ("a property failed")
    def crash(config):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "cmd_simulate", crash)
    path = write_config(tmp_path, BASE_SIM)
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"].startswith("internal error: RuntimeError: ")
    assert "Traceback" not in captured.err


def test_main_simulate_refuses_field_order_from_2_63(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_SIM, n=4, q=2**64 - 59, m=3, seed=5))
    assert main(["simulate", "--config", path]) == 2
    assert "not below 2^63" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_main_closed_stdout_exits_2_without_traceback(tmp_path, unbuffered):
    # `icc-kit simulate | head` closes the pipe early; the write must not
    # fail again in the crash handler or in the flush at interpreter exit.
    # Buffered, the write fails only at the flush; unbuffered, in print.
    path = write_config(tmp_path, BASE_SIM)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "icc_kit.cli", "simulate", "--config", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                     PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == ""


def test_main_simulate_many_variables(tmp_path, capsys):
    # n=1200 is far deeper than the interpreter's recursion limit
    path = write_config(tmp_path, dict(BASE_SIM, n=1200, d=1, m=2))
    assert main(["simulate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_main_simulate_refuses_point_enumeration_beyond_cap(tmp_path, capsys):
    # F_q^m is never enumerated, so q = 2^31 - 1 decodes exactly
    path = write_config(tmp_path, dict(BASE_SIM, n=2, q=2147483647, d=1, S=0, m=1))
    assert main(["simulate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    # RM_2(10, 40) has about 1.2e9 monomials: refused before any is listed
    start = time.monotonic()
    path = write_config(tmp_path, dict(BASE_SIM, n=41, q=2, d=10, S=0, m=40))
    assert main(["simulate", "--config", path]) == 2
    assert "exceeds cap" in json.loads(capsys.readouterr().out)["error"]
    assert time.monotonic() - start < 10


def test_main_simulate_refuses_oversized_polynomial_basis(tmp_path, capsys):
    # RM_2(6, 8) is small, but 60 variables at degree 6 have about 5.6e7
    # monomials: random_poly is refused before it lists them
    start = time.monotonic()
    path = write_config(tmp_path, dict(BASE_SIM, n=60, q=2, d=6, S=0, m=8))
    assert main(["simulate", "--config", path]) == 2
    assert "exceeds cap" in json.loads(capsys.readouterr().out)["error"]
    assert time.monotonic() - start < 1


def test_main_audit_point_mass_outside_the_space_exits_2(tmp_path, capsys):
    for at in ([0, 2] + [0] * (AUDIT_UNIFORM["n"] - 2), [0, 1]):
        dist = {"family": "point_mass", "at": at}
        path = write_config(tmp_path, dict(AUDIT_UNIFORM, dist=dist))
        assert main(["audit", "--config", path]) == 2
        assert "not a point" in json.loads(capsys.readouterr().out)["error"]


def test_main_cap_env_enforced_on_audit(tmp_path, capsys):
    # q^n = 64 probabilities: the largest table this audit builds
    path = write_config(tmp_path, AUDIT_UNIFORM)
    assert main(["audit", "--config", path, "--cap", "32"]) == 2
    assert "exceeds cap 32" in json.loads(capsys.readouterr().out)["error"]


def test_main_audit_refuses_a_subset_size_above_n(tmp_path, capsys):
    path = write_config(tmp_path, dict(AUDIT_UNIFORM, r=AUDIT_UNIFORM["n"] + 1))
    assert main(["audit", "--config", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "config key 'r' must be below 6: the value of key 'n', got 7", error


def test_audit_checks_the_cap_before_building_the_table(monkeypatch):
    # q^n = 2^28 probabilities exceed the default cap: n is refused by key
    # before the table (2 GiB) is built, or q^n formed
    def build_table(*args):
        raise AssertionError("the probability table was built")

    monkeypatch.setattr(cli, "_dist_from_config", build_table)
    with pytest.raises(UsageError, match="'n' must be at most 24: 2\\^25 exceeds cap 16777216, got 28"):
        cmd_audit(dict(AUDIT_UNIFORM, n=28))


@pytest.mark.parametrize("argv", [
    ["simulate", "--cap", "100"],
    ["keysize-curves", "--variant", "proof"],
    ["metrics-check", "--variant", "proof"],
    ["metrics-check", "--cap", "100"],
])
def test_main_refuses_options_a_subcommand_does_not_take(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("num_codes", [0, -1])
def test_audit_needs_at_least_one_code(tmp_path, capsys, num_codes):
    config = dict(AUDIT_UNIFORM, num_codes=num_codes)
    with pytest.raises(UsageError, match="'num_codes' must be at least 1"):
        cmd_audit(config)
    assert main(["audit", "--config", write_config(tmp_path, config)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == f"config key 'num_codes' must be at least 1, got {num_codes}", error


@pytest.mark.parametrize("command,config", [
    ("simulate", dict(BASE_SIM, n=5.9)),
    ("simulate", dict(BASE_SIM, m=2.7)),
    ("simulate", dict(BASE_SIM, seed=0.5)),
    ("simulate", dict(BASE_SIM, S=True)),
    ("simulate", dict(BASE_SIM, stragglers=[0.0])),
    ("audit", dict(AUDIT_UNIFORM, num_codes=2.5)),
    ("audit", dict(AUDIT_UNIFORM, p="2")),
    ("keysize-curves", {"n": 64.0}),
    ("keysize-curves", {"entropy_offsets": [0, 1.5]}),
    ("metrics-check", {"num_pairs": 10.5}),
    ("audit", dict(AUDIT_UNIFORM, epsilon="0.25")),
    ("audit", dict(AUDIT_UNIFORM, epsilon=10**400)),
    ("audit", dict(AUDIT_UNIFORM, a="Infinity")),
    ("audit", dict(AUDIT_UNIFORM, a=math.inf)),
    ("audit", dict(AUDIT_UNIFORM, dist={"family": "dirichlet", "alpha": True})),
    ("audit", dict(AUDIT_UNIFORM, dist={"family": "bernoulli", "alpha": "0.1"})),
    ("keysize-curves", {"epsilon_b": True}),
    ("keysize-curves", {"entropy_a": "60"}),
])
def test_main_rejects_non_integer_config_values(tmp_path, capsys, command, config):
    # a float or bool for an integer key, or a bool, string or non-finite
    # value for a real key, is a usage error that names the key, not coerced
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("config key") and "must be" in error


@pytest.mark.parametrize("command,config,key", [
    ("simulate", dict(BASE_SIM, seed=-1), "seed"),
    ("audit", dict(AUDIT_UNIFORM, seed=-1), "seed"),
    ("metrics-check", {"seed": -1}, "seed"),
    ("metrics-check", {"num_dists": -1, "num_pairs": -5}, "num_dists"),
    ("metrics-check", {"num_dists": 4, "num_pairs": -5}, "num_pairs"),
    ("keysize-curves", {"n": 0}, "n"),
    ("simulate", dict(BASE_SIM, n=0), "n"),
    ("simulate", dict(BASE_SIM, d=-1), "d"),
    ("simulate", dict(BASE_SIM, S=-1), "S"),
])
def test_main_refuses_an_integer_below_its_range_by_key(tmp_path, capsys, command, config, key):
    # a negative seed used to leak numpy's "expected non-negative integer",
    # negative counts to pass vacuously after no checks, and n = 0 to print
    # "math domain error"
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"config key '{key}' must be at least"), error


@pytest.mark.parametrize("command,config,key", [
    ("audit", dict(AUDIT_UNIFORM, r=0), "r"),
    ("audit", dict(AUDIT_UNIFORM, p=1), "p"),
    ("audit", dict(AUDIT_UNIFORM, epsilon=0.0), "epsilon"),
    ("audit", dict(AUDIT_UNIFORM, epsilon=1.5), "epsilon"),
    ("audit", dict(AUDIT_UNIFORM, a=1.0), "a"),
    ("audit", dict(AUDIT_UNIFORM, q=4), "q"),
    ("audit", dict(AUDIT_UNIFORM, num_codes=10**9), "num_codes"),
    ("keysize-curves", {"q": 1}, "q"),
    ("keysize-curves", {"n": 3, "entropy_offsets": [5]}, "entropy_offsets"),
    ("keysize-curves", {"n": 3, "entropy_offsets": [-1]}, "entropy_offsets"),
    ("keysize-curves", {"n": 3, "entropy_a": 4}, "entropy_a"),
    ("keysize-curves", {"entropy_a": -1}, "entropy_a"),
    ("keysize-curves", {"epsilon_b": 2.0}, "epsilon_b"),
    ("keysize-curves", {"epsilon_b": 0.0}, "epsilon_b"),
    ("keysize-curves", {"epsilon_log_q_exponents": [-1, 1]}, "epsilon_log_q_exponents"),
    ("keysize-curves", {"epsilon_log_q_exponents": [-2000]}, "epsilon_log_q_exponents"),
    ("simulate", dict(BASE_SIM, r=5), "r"),
    ("simulate", dict(BASE_SIM, r=0), "r"),
    ("simulate", dict(BASE_SIM, m=0), "m"),
    ("simulate", dict(BASE_SIM, m=6), "m"),
    ("simulate", dict(BASE_SIM, r=3, m=2), "m"),
    ("simulate", dict(BASE_SIM, q=4), "q"),
    ("simulate", dict(BASE_SIM, d=4), "d"),
    ("simulate", dict(BASE_SIM, stragglers=[12]), "stragglers"),
    ("simulate", dict(BASE_SIM, stragglers=[-1]), "stragglers"),
    ("simulate", dict(BASE_SIM, stragglers=[0, 1]), "stragglers"),
    ("audit", dict(AUDIT_UNIFORM, a=1e308), "a"),
    ("keysize-curves", {"n": 2 ** 63}, "n"),
    ("keysize-curves", {"n": 2 ** 53 + 1}, "n"),
])
def test_main_refuses_a_value_outside_its_range_by_key(tmp_path, capsys, monkeypatch,
                                                       command, config, key):
    # these used to reach the catch-all as "need 1 <= subset size < n",
    # "need 1 <= protected_size < n", "order p must be ...",
    # "ZeroDivisionError", "epsilon must lie in (0, 1]", a MemoryError from
    # 10^9 code seeds, or (keysize-curves) to write rows from a negative
    # entropy; an audit refuses them before its q^n law is built, a
    # simulation before its code is drawn
    def build_table(*args):
        raise AssertionError("the probability table was built")

    monkeypatch.setattr(cli, "_dist_from_config", build_table)
    monkeypatch.setattr(cli, "sample_code", lambda *args: pytest.fail("a code was drawn"))
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"config key '{key}' must"), error


def test_audit_largest_a_keeps_every_bound_finite():
    # the envelope is below 8a, so at a = max / 8 every bound is finite and
    # the footer is strict JSON (a = 1e308 used to print inf and Infinity)
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in the footer")

    config = {"n": 8, "q": 2, "r": 2, "p": 2, "epsilon": 0.25, "a": sys.float_info.max / 8,
              "seed": 5, "num_codes": 2, "dist": {"family": "dirichlet", "alpha": 30.0}}
    for variant in ("theorem", "proof"):
        code, rows = cmd_audit(config, variant=variant)
        footer = json.loads(rows[-1][2:], parse_constant=refuse)
        assert all(math.isfinite(bound) for bound in footer["epsilon_c"].values())
        assert all(math.isfinite(float(field)) for row in rows[1:-1] for field in row.split(","))


@pytest.mark.parametrize("cap", ["0", "-1", "x"])
def test_main_refuses_a_cap_below_one_by_option(tmp_path, capsys, cap):
    # --cap 0 used to be blamed on config key 'n' ("must be at most -1")
    path = write_config(tmp_path, AUDIT_UNIFORM)
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--config", path, "--cap", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --cap: must be a positive integer, got {cap!r}" in err, err


def test_keysize_curves_is_exact_at_the_largest_n():
    # at n = 2^53 the key length n + p - log_q(eps) - (n - 4) is still
    # exactly 14; at n = 2^63 it read 0 and is now refused by key
    config = {"n": 2 ** 53, "q": 2, "epsilon_log_q_exponents": [-8], "entropy_offsets": [0]}
    assert cmd_keysize_curves(config)[1]["curve_a"][1] == "0.00390625,14,14"
    with pytest.raises(UsageError, match="config key 'n' must be at most 9007199254740992"):
        cmd_keysize_curves(dict(config, n=2 ** 63))


def test_audit_num_codes_is_capped_by_the_subsets_it_audits():
    # C(6, 2) = 15 subsets a code: 4 codes fit a cap of 64, 5 do not
    config = dict(AUDIT_UNIFORM, r=2, epsilon=0.5, num_codes=5)
    with pytest.raises(UsageError, match="'num_codes' must be at most 4: .* cap 64, got 5"):
        cmd_audit(config, cap=64)
    assert cmd_audit(dict(config, num_codes=4), cap=64)[0] in (0, 1)


def test_keysize_curves_defaults_stay_within_n():
    # the offsets run from min(64, n) down to 0, and entropy_a is n - 4 or 0
    code, payload = cmd_keysize_curves({"n": 3})
    assert code == 0
    assert payload["config"]["entropy_offsets"] == [0, 1, 2, 3]
    assert payload["config"]["entropy_a"] == 0.0
    assert [row.split(",")[0] for row in payload["curve_b"][1:]] == ["0", "1", "2", "3"]
    assert cmd_keysize_curves({})[1]["config"]["entropy_offsets"] == list(range(65))


@pytest.mark.parametrize("dist,key", [
    ("uniform", "dist"),
    (None, "dist"),
    ({"family": "bernoulli"}, "alpha"),
    ({"family": "point_mass", "at": 3}, "at"),
    ({"family": "explicit"}, "probs"),
    ({"family": "explicit", "probs": "abc"}, "probs"),
    ({"family": "explicit", "probs": [math.nan] + [1 / 63] * 63}, "probs"),
    ({"family": "explicit", "probs": [-0.5, 1.5] + [0.0] * 62}, "probs"),
    ({"family": "dirichlet", "alpha": 0}, "alpha"),
    ({"family": "dirichlet", "alpha": -1.5}, "alpha"),
    ({"family": "bernoulli", "alpha": 1.5}, "alpha"),
    ({"family": "bernoulli", "alpha": -0.1}, "alpha"),
    ({"family": "explicit", "probs": [0.5, 0.5]}, "probs"),
    ({"family": "explicit", "probs": [0.5] * 64}, "probs"),
])
def test_main_audit_names_the_key_of_a_malformed_dist_spec(tmp_path, capsys, dist, key):
    # these used to surface as raw AttributeError, KeyError, TypeError and
    # ValueError messages (a NaN entry as "cannot convert float NaN to
    # integer", a probs list of the wrong length or sum as the Distribution's
    # own "must have length q^n" or "must sum to 1", which name no key)
    path = write_config(tmp_path, dict(AUDIT_UNIFORM, dist=dist))
    assert main(["audit", "--config", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("config key") and f"'{key}'" in error, error


def test_real_config_keys_accept_json_integers():
    # an int is a real number: a = 2 reads as 2.0
    assert cmd_audit(dict(AUDIT_UNIFORM, a=2)) == cmd_audit(dict(AUDIT_UNIFORM, a=2.0))


def test_split_out_naming():
    assert cli._split_out("run.csv", "a") == "run_a.csv"
    assert cli._split_out("run", "b") == "run_b.csv"


def test_fmt_compact_numbers():
    assert cli._fmt(True) == "1"
    assert cli._fmt(4.0) == "4"
    assert cli._fmt(0.25) == "0.25"


@pytest.mark.parametrize("extra,key", [
    ({"stragglers": 3}, "stragglers"),
    ({"f": 7}, "f"),
    ({"f": {"n": 5, "q": 3, "d": 1}}, "terms"),
    ({"f": {"n": 5, "q": 3, "d": 1, "terms": [{"exp": [1, 0, 0, 0, 0]}]}}, "coef"),
    ({"f": {"n": 5, "q": 3, "d": 1, "terms": [{"exp": 1, "coef": 1}]}}, "f"),
    ({"x": [0, 1, 2]}, "x"),
    ({"x": 4}, "x"),
])
def test_main_simulate_names_the_key_of_a_malformed_input(tmp_path, capsys, extra, key):
    path = write_config(tmp_path, dict(BASE_SIM, **extra))
    assert main(["simulate", "--config", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert "config key" in error and f"'{key}'" in error, error


@pytest.mark.parametrize("f,field", [
    ({"n": 4, "q": 3, "terms": [{"exp": [1, 0, 0, 0], "coef": 1}]}, "n"),
    ({"n": 5, "q": 5, "terms": [{"exp": [1, 0, 0, 0, 0], "coef": 4}]}, "q"),
])
def test_main_simulate_refuses_a_polynomial_over_other_parameters(
        tmp_path, capsys, monkeypatch, f, field):
    # refused by key and field before the storage phase runs; this used to
    # surface after it as "polynomial does not match the scheme parameters"
    monkeypatch.setattr(cli, "storage_phase", lambda *args: pytest.fail("storage ran"))
    path = write_config(tmp_path, dict(BASE_SIM, f=f))
    assert main(["simulate", "--config", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"config key 'f' has {field} = "), error


def test_main_simulate_rejects_float_polynomial_terms(tmp_path, capsys):
    # a float exponent or coefficient in "f" is refused, not truncated
    for term in ({"exp": [1.7, 0, 0, 0, 0], "coef": 1}, {"exp": [1, 0, 0, 0, 0], "coef": 2.9}):
        f = {"n": 5, "q": 3, "d": 2, "terms": [term]}
        path = write_config(tmp_path, dict(BASE_SIM, f=f))
        assert main(["simulate", "--config", path]) == 2
        assert "integers" in json.loads(capsys.readouterr().out)["error"]


def test_audit_measures_subset_entropies_once_per_distribution(monkeypatch):
    # choosing m and auditing every code read the same entropies of one
    # law: the law's own entropy is taken once, not once per code
    calls = []
    real = cli.im.renyi_entropy
    monkeypatch.setattr(cli.im, "renyi_entropy", lambda *args: calls.append(1) or real(*args))
    code, rows = cmd_audit(dict(AUDIT_UNIFORM, num_codes=3))
    assert len(rows) == 3 + 2
    assert len(calls) == 1


def _readme_configs():
    """(subcommand, config) for each JSON block that follows an
    `icc-kit <sub> --config` block in README.md."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"```(\w+)\n(.*?)```", readme, re.DOTALL)
    for (kind, text), (next_kind, config) in zip(blocks, blocks[1:]):
        if kind == "sh" and next_kind == "json" and re.match(r"icc-kit \S+ --config", text):
            command = text.split()[1]
            yield pytest.param(command, json.loads(config), id=command)


@pytest.mark.parametrize("command,config", list(_readme_configs()))
def test_readme_config_examples_run(tmp_path, capsys, command, config):
    # each README example's config, written to tmp_path, with --out there too
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    code = main(argv)
    assert code == 0, capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit-code probe: each key of an accepted config of every subcommand, and
# each key of the objects 'dist' and 'f', set in turn to each value below

PROBE_VALUES = [None, True, 0.5, -1, 0, 10**12, "x", [], {}, 2**63, 1e308]
PROBE_BASES = {
    "simulate": (dict(BASE_SIM, x=[0, 1, 2, 0, 1], stragglers=[0], f={
        "n": 5, "q": 3, "d": 1, "terms": [{"exp": [1, 0, 0, 0, 0], "coef": 2}]}), []),
    # the golden audit_three_codes config at two codes
    "audit": ({"n": 8, "q": 2, "r": 2, "p": 2, "epsilon": 0.25, "a": 2.0, "seed": 5,
               "num_codes": 2, "dist": {"family": "dirichlet", "alpha": 30.0}}, ["--cap", "4096"]),
    "keysize-curves": ({"n": 64, "p": 2, "q": 2, "entropy_a": 60.0, "epsilon_b": 0.25,
                        "epsilon_log_q_exponents": [-8, -4, -1], "entropy_offsets": [0, 2, 4]}, []),
    "metrics-check": ({"num_dists": 4, "num_pairs": 4, "seed": 3}, []),
}
# refusals of what two or more keys give together, which name no one key
JOINT_REFUSALS = ("exceeds cap", "key length from the bound")


def _probe_cases():
    for command, (base, _) in PROBE_BASES.items():
        paths = [(key,) for key in base]
        paths += [(key, inner) for key, value in base.items() if isinstance(value, dict)
                  for inner in value]
        for path in paths:
            for value in PROBE_VALUES:
                yield pytest.param(command, path, value,
                                   id=f"{command}-{'.'.join(path)}-{value!r}")


def _failed_verdict(command: str, out: str) -> bool:
    if command == "audit":
        footer = json.loads(out.splitlines()[-1][2:])
        return footer["pass_fraction"] < footer["threshold"]
    result = json.loads(out)
    return result["match"] is False if command == "simulate" else result["all_pass"] is False


@pytest.mark.parametrize("command,path,value", list(_probe_cases()))
def test_main_exit_code_contract_holds_for_every_key_and_value(tmp_path, capsys,
                                                               command, path, value):
    # exit 0, 1 (a failed verdict) or 2 (a message naming the key, the object
    # that holds it, or a joint refusal); never a crash labelled internal
    base, options = PROBE_BASES[command]
    config = json.loads(json.dumps(base))
    holder = config if len(path) == 1 else config[path[0]]
    holder[path[-1]] = value
    argv = [command, "--config", write_config(tmp_path, config), *options]
    if command == "keysize-curves":
        argv += ["--out", str(tmp_path / "curves.csv")]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code == 1:
        assert _failed_verdict(command, out), out
    if code == 2:
        error = json.loads(out)["error"]
        assert not error.startswith("internal error"), error
        assert (any(f"'{key}'" in error for key in path)
                or any(words in error for words in JOINT_REFUSALS)), error
