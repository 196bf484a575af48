"""Exact-repair regenerating codes with information-theoretic secrecy.

The pieces compose in layers: finite fields (field) and their
extensions (extension), linear algebra over them (matrix), rank-based
entropy of linear observations (entropy), the product-matrix storage
code at d = 2k-2 (product_matrix), eavesdropper models and rank-metric
wrapping (secrecy), closed-form capacity bounds (capacity), executable
property checks (harness), and an on-disk cluster simulation (cluster)
driven by the rsl command (cli).

The names in __all__ load on first use: `from rsl import check_all`
imports the harness then, and a command that never touches it never
pays for importing it.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    "Budget": "harness", "CapacityQuery": "capacity",
    "CapacityValue": "capacity", "CodeParams": "product_matrix",
    "EavesdropperModel": "secrecy", "ExtensionSpec": "extension",
    "FieldSpec": "field", "Matrix": "matrix", "PROPERTY_IDS": "harness",
    "ProductMatrixCode": "product_matrix", "RepairFromTo": "product_matrix",
    "RepairTo": "product_matrix", "RslError": "errors",
    "SecureScheme": "secrecy", "Stored": "product_matrix",
    "achieved_secure_size": "secrecy", "attack_report": "secrecy",
    "bounds_table": "capacity", "capacity_csv": "capacity",
    "check_all": "harness", "conditional_entropy": "entropy",
    "cutset_bound": "capacity", "joint_entropy": "entropy",
    "leakage": "secrecy", "mutual_information": "entropy", "pi": "capacity",
    "report_jsonl": "harness", "run_property": "harness",
    "scheme_make": "secrecy", "secrecy_capacity": "capacity",
    "verify_perfect": "secrecy", "worst_case_leakage": "secrecy",
}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    # a submodule name falls through to AttributeError, which is what
    # lets `from rsl import harness` import the submodule itself
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
