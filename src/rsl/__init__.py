"""Exact-repair regenerating codes with information-theoretic secrecy.

The pieces compose in layers: finite fields (field), linear algebra over
them (matrix), rank-based entropy of linear observations (entropy), the
product-matrix storage code at d = 2k-2 (product_matrix), eavesdropper
models and rank-metric wrapping (secrecy), closed-form capacity bounds
(capacity), executable property checks (harness), and an on-disk cluster
simulation (cluster) driven by the rsl command (cli).
"""

from .capacity import (CapacityQuery, CapacityValue, bounds_table,
                       capacity_csv, cutset_bound, pi, secrecy_capacity)
from .entropy import conditional_entropy, joint_entropy, mutual_information
from .errors import RslError
from .field import ExtensionSpec, FieldSpec
from .harness import PROPERTY_IDS, Budget, check_all, report_jsonl, run_property
from .matrix import Matrix
from .product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                             RepairTo, Stored)
from .secrecy import (EavesdropperModel, SecureScheme, achieved_secure_size,
                      attack_report, leakage, scheme_make, verify_perfect,
                      worst_case_leakage)

__version__ = "0.1.0"

__all__ = [
    "Budget", "CapacityQuery", "CapacityValue", "CodeParams",
    "EavesdropperModel", "ExtensionSpec", "FieldSpec", "Matrix",
    "PROPERTY_IDS", "ProductMatrixCode", "RepairFromTo", "RepairTo",
    "RslError", "SecureScheme", "Stored", "achieved_secure_size",
    "attack_report", "bounds_table", "capacity_csv", "check_all",
    "conditional_entropy", "cutset_bound", "joint_entropy", "leakage",
    "mutual_information", "pi", "report_jsonl", "run_property",
    "scheme_make", "secrecy_capacity", "verify_perfect",
    "worst_case_leakage", "__version__",
]
