"""Toolkit for confidential polynomial computation over non-uniform data:
additive masking with random linear codes, evaluation-code based
distributed computation with straggler tolerance, and exact
enumeration-based leakage audits."""

from .gf import field_array, rank
from .poly import MultiPoly, evaluate, random_poly
from .codes import LinearCode, encode, key_gen, sample_code, shift, subcolumns_full_rank
from .rm import (
    RMCode,
    SuperSet,
    decode_at_key,
    information_set,
    rm_code,
    rm_dimension,
    select_available_infoset,
    trivial_superset,
)
from .infometrics import (
    BoundParams,
    Distribution,
    SmoothingReport,
    check_divergence_distance_relation,
    check_entropy_gap,
    keysize_lower_bound,
    kl_divergence,
    leakage_audit,
    leakage_bound,
    mutual_information,
    pinsker_check,
    renyi_divergence,
    renyi_entropy,
    smoothing_report,
    smoothing_threshold,
    v_distance,
    v_p_distance,
)
from .protocol import (
    SchemeMetrics,
    SchemeParams,
    SessionState,
    computation_phase,
    download_cost,
    plan,
    storage_phase,
)

__version__ = "0.1.0"
