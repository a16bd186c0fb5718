"""Exact metrics-check outputs and one-law metric floats at fixed inputs.

A change to how the sweep draws and checks its laws must leave every value
here unchanged, down to the last bit of each float: the pins are sha256
digests of `json.dumps(result, sort_keys=True)` for metrics-check, and of
the `repr` lines of each one-law function on a fixed list of laws (point
masses, zero entries, the uniform law and Dirichlet draws), and of
relation_in_context's screen outcomes, reports and BoundParams on fixed
laws and rng seeds.

Print the current digests (only on a commit whose outputs are known to be
right) with:

    PYTHONPATH=src python tests/test_sweep_pin.py
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from icc_kit import cli
from icc_kit import infometrics as im
from icc_kit.codes import sample_code

SEEDS = range(10)

METRICS_CHECK_SHA256 = {
    "50,50": [
        "10b6f8c5595306f86aec908401559372cf8204c4c53f97cae790d04c253a9abb",
        "81d6f5f5102d9f9f876099d2360f3b6cc882d8230163574fd45bb1c77baabb02",
        "2370ee9825ac45ba361c2df7513d622613b7e13d713bb28f3770ceccaa459888",
        "a5da61c1b4a6ee4acaf01ff9e626d97c816a6c1ff6a1da9d432eb13d435ceecf",
        "2fad23356bf9d5723074698914a3453ceb44617c712332e48637c16f7337f41a",
        "16dd3251625bce0f6daa5fc2bd07ec0724217e6c1f916f8308a11975901e88ce",
        "bfdee706abdc60d63093251d73110937866b54507cb25e6b8e8a783ce6b05edf",
        "a370f5af34a5b0805b17b7c5da746de834ce80cf2f4d21a73a41662766dfe8b2",
        "11a5254740f173027fea3a1fc1a816debbf5193a9ecaaef91a1a8d9f31d60dbd",
        "d8e692b77bfd58618bdef9844e5df5e65e84a5981aa91b8638bd08df3e9d1c43"
    ],
    "40,100": [
        "cfc667415b0b1b4d1e82d647d7c918b307b368f3891f380348cbc9ef0cef43cc",
        "ba6be8cf995d0c194e754c9476fe6920d8ecf413b4810ef9ca903166ded77a94",
        "d81289551ac1ce4daae7b01194fb2502bd958242fda3d31e425212d1407ca20b",
        "1c54bebd362ec9678afbbd46da9bdfde6446888648d5fcae182cc2b06116560d",
        "25c7f08aa7858e5e3d3a5e78449a68980e7709fb005d87845b34753b90e0dbad",
        "c31ecb1614bd3ec68a8ce4be094b9a3169c61ad2a7f868fa134046e276d778d1",
        "84a173e219c3f87d50c15c9618b61a7220a7726b22dbc53bfc78f1c2fca2fdfb",
        "522599a8516c612da0b3b6efe53f401fb3e9ff2beea029dc535acb7ad1c494c6",
        "bb8cbf3b6cdf1fe486c661955af9e7f981531de572cb46b8f855e29485385be4",
        "632a8aa0e9cf74bd87a0d746dd4a64be08bf61271d09606e4f9b709559929373"
    ]
}

FLOATS_SHA256 = {
    "random_dirichlet": "59a252df46b708b57680517d5e23c40c0f53f53d3cf85700a8be0db4afffc41f",
    "check_entropy_gap": "fcab40aebc4121b0bacba7f24c7aca6e16f4cfa826bc145deb1358b378b49eb7",
    "v_distance": "decc30633d7672ec9a7a6e5af5fefa7342fbb374a38b2f7f638cb1ff8e268432",
    "kl_divergence": "d6ebcffb5b7459542f0df0f88e6253811244b02dbd4dbd1bfe359fe0f014e867",
    "v_p_distance": "d481530bab2862cadc69858b7833b75b9a5503926320d204c087c3fe8a81847f",
    "renyi_divergence": "95a85fa2846976e519cf3947cae228b631028df45b62350c962e0b645f4a99bf",
    "renyi_entropy": "e4029bbc71c447c5d1c085a906ab073b3bc9b8b6ae45dd4318bfc659804f0e05",
    "pinsker_check": "2a2d2f051a6da311fa27548794415973a6f973480bbc9811f7e60ca703176a6f"
}

# per envelope stand-in: the digest of relation_in_context's repr lines,
# and each case's outcome in order ("full" and "deficient" name the rank of
# the code drawn, "screen" and "envelope" the check that refused the case)
RELATION_SHA256 = {
    "envelope=None": {
        "sha256": "b29dfa5d3cbfe968a4e77f33c29d89f82837e294bfc00653b4506a8b2f8e89cd",
        "outcomes": [
            "full", "full", "screen", "full", "screen",
            "full", "full", "deficient", "deficient", "screen",
            "full", "deficient", "deficient", "deficient", "full",
            "deficient", "deficient", "screen", "screen", "screen"
        ],
    },
    "envelope=1.0": {
        "sha256": "f432d0d4c08cb0fbf015ee1aed6f2352ee0c05d6b4961b3133f1c406ae24a196",
        "outcomes": [
            "full", "full", "screen", "full", "screen",
            "full", "full", "deficient", "envelope", "screen",
            "full", "deficient", "envelope", "deficient", "full",
            "deficient", "envelope", "screen", "screen", "screen"
        ],
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics_check_digests() -> dict:
    return {
        f"{num_dists},{num_pairs}": [
            _sha(json.dumps(cli.cmd_metrics_check(
                {"num_dists": num_dists, "num_pairs": num_pairs, "seed": seed})[1], sort_keys=True))
            for seed in SEEDS
        ]
        for num_dists, num_pairs in ((50, 50), (40, 100))
    }


def _sparse(q: int, n: int, seed: int, keep) -> im.Distribution:
    """A Dirichlet draw with every entry outside the index set keep set to 0."""
    table = np.zeros(q ** n)
    table[keep] = im.random_dirichlet(q, n, seed).probs[keep]
    return im.Distribution(q, n, table / table.sum())


def _laws() -> dict:
    """Fixed laws by sample space: each list mixes full-support, sparse and
    point-mass tables, so the pairs include support violations."""
    return {
        (2, 4): [
            im.random_dirichlet(2, 4, 11),
            im.random_dirichlet(2, 4, 12, alpha=0.05),
            im.uniform(2, 4),
            im.bernoulli_iid(4, 0.2),
            im.point_mass(2, 4, (1, 0, 1, 1)),
            _sparse(2, 4, 13, [0, 3, 5, 6, 9, 10, 12, 15]),
        ],
        (3, 3): [
            im.random_dirichlet(3, 3, 21, alpha=20.0),
            im.random_dirichlet(3, 3, 22),
            im.uniform(3, 3),
            im.point_mass(3, 3, (2, 0, 1)),
            _sparse(3, 3, 23, list(range(0, 27, 2))),
        ],
        (5, 2): [
            im.random_dirichlet(5, 2, 31),
            im.random_dirichlet(5, 2, 32, alpha=0.3),
            im.point_mass(5, 2, (4, 4)),
            _sparse(5, 2, 33, list(range(12))),
        ],
        (2, 6): [
            im.random_dirichlet(2, 6, 41, alpha=50.0),
            im.random_dirichlet(2, 6, 42),
            _sparse(2, 6, 43, list(range(1, 64, 3))),
        ],
    }


def _float_lines() -> dict:
    """{function name: its repr lines on the fixed laws}."""
    lines = {name: [] for name in (
        "random_dirichlet", "check_entropy_gap", "v_distance", "kl_divergence", "v_p_distance",
        "renyi_divergence", "renyi_entropy", "pinsker_check")}
    for (q, n), laws in _laws().items():
        for seed, alpha in itertools.product((0, 7, 2 ** 62), (1.0, 0.05, 20.0)):
            probs = im.random_dirichlet(q, n, np.int64(seed), alpha=alpha).probs
            lines["random_dirichlet"].append(f"{q},{n},{seed},{alpha}: {[repr(x) for x in probs]}")
        for i, law in enumerate(laws):
            for p in (2, 3):
                lines["renyi_entropy"].append(f"{q},{n},{i},{p}: {im.renyi_entropy(law, p)!r}")
                for r in range(1, min(n, 3)):
                    report = im.check_entropy_gap(law, p, r)
                    lines["check_entropy_gap"].append(f"{q},{n},{i},{p},{r}: {report!r}")
        for (i, a), (j, b) in itertools.product(enumerate(laws), repeat=2):
            case = f"{q},{n},{i},{j}"
            lines["v_distance"].append(f"{case}: {im.v_distance(a, b)!r}")
            lines["kl_divergence"].append(f"{case}: {im.kl_divergence(a, b)!r}")
            lines["pinsker_check"].append(f"{case}: {im.pinsker_check(a, b)!r}")
            for p in (2, 3):
                lines["v_p_distance"].append(f"{case},{p}: {im.v_p_distance(a, b, p)!r}")
                lines["renyi_divergence"].append(f"{case},{p}: {im.renyi_divergence(a, b, p)!r}")
    return lines


def _relation_cases():
    """(label, law, p, rng seed) over the sweep's three relation spaces at its
    alphas, and laws that the budget screen refuses."""
    for (q, n), alpha in zip(((2, 5), (2, 6), (3, 4)), (20.0, 50.0, 100.0)):
        for law_seed, rng_seed in ((0, 0), (0, 1), (1, 2), (3, 1), (7, 0)):
            law = im.random_dirichlet(q, n, law_seed, alpha=alpha)
            yield f"{q},{n},{alpha},{law_seed},{rng_seed}", law, 2, rng_seed
        yield f"{q},{n},uniform,p3", im.uniform(q, n), 3, 5
    yield "2,5,0.2,0", im.random_dirichlet(2, 5, 0, alpha=0.2), 2, 0
    yield "2,3,uniform", im.uniform(2, 3), 2, 0


def _relation_lines(envelope=None) -> tuple:
    """(repr lines of relation_in_context on _relation_cases, with the rng's
    next draw after each call, and each case's outcome). envelope, if given,
    stands in for the ensemble envelope the screen compares v_p against."""
    lines, outcomes = [], []
    for label, law, p, rng_seed in _relation_cases():
        rng = np.random.default_rng(rng_seed)
        before = rng.bit_generator.state
        if envelope is None:
            screened = im.relation_in_context(law, p, 2.0, rng)
        else:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(im, "_vp_envelope", lambda bp, variant: envelope)
                screened = im.relation_in_context(law, p, 2.0, rng)
        drew = rng.bit_generator.state != before
        lines.append(f"{label}: {screened!r} next={rng.integers(0, 2 ** 63)}")
        if screened is None:
            outcomes.append("envelope" if drew else "screen")
            continue
        reports, bp = screened
        code_seed = np.random.default_rng(rng_seed).integers(0, 2 ** 63)
        m = math.ceil(im.keysize_lower_bound(bp))
        rank = sample_code(law.n, m, law.q, code_seed).coset_labels[1]
        outcomes.append("full" if rank == m else "deficient")
    return lines, outcomes


def _relation_digests() -> dict:
    digests = {}
    for envelope in (None, 1.0):
        lines, outcomes = _relation_lines(envelope)
        digests[f"envelope={envelope}"] = {"sha256": _sha("\n".join(lines)), "outcomes": outcomes}
    return digests


def _floats_digests() -> dict:
    return {name: _sha("\n".join(text)) for name, text in _float_lines().items()}


def test_metrics_check_outputs_are_pinned():
    assert _metrics_check_digests() == METRICS_CHECK_SHA256


def test_one_law_metric_floats_are_pinned():
    assert _floats_digests() == FLOATS_SHA256


def test_relation_screen_outcomes_and_reports_are_pinned():
    # full-rank and rank-deficient codes, and each screen that refuses a
    # case: budget or key length before the code seed is drawn, the envelope
    # (here a stand-in of 1.0, which no Dirichlet law of the sweep reaches
    # at a = 2) after it
    assert _relation_digests() == RELATION_SHA256


def test_point_mass_metrics_are_pinned():
    # the readable corner of the digests above: a law against a point mass
    # off its support, and a point mass against itself
    mass = im.point_mass(2, 4, (1, 0, 1, 1))
    other = im.point_mass(2, 4, (0, 0, 0, 0))
    flat = im.uniform(2, 4)
    assert im.kl_divergence(flat, mass) == float("inf")
    assert im.renyi_divergence(other, mass, 3) == float("inf")
    assert im.kl_divergence(mass, flat) == 4.0
    assert im.renyi_divergence(mass, flat, 2) == 4.0
    assert repr(im.v_distance(mass, other)) == "2.0"
    assert repr(im.v_p_distance(mass, other, 2)) == "5.656854249492381"
    assert im.pinsker_check(mass, mass) == {
        "v_sum": 0.0, "d_base_q": 0.0, "sum_form_holds": True,
        "tv": 0.0, "d_nats": 0.0, "classical_form_holds": True,
    }
    assert im.check_entropy_gap(mass, 2, 1) == {"lhs": 0.0, "rhs": -0.0, "slack": 0.0,
                                                "holds": True}


if __name__ == "__main__":
    print("METRICS_CHECK_SHA256 =", json.dumps(_metrics_check_digests(), indent=4))
    print("FLOATS_SHA256 =", json.dumps(_floats_digests(), indent=4))
    print("RELATION_SHA256 =", json.dumps(_relation_digests(), indent=4))
