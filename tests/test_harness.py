"""The property harness itself: registry, determinism, sampling, witnesses."""

import json

import pytest

from rsl import extension, harness
from rsl.field import FieldSpec
from rsl.harness import (PROPERTY_IDS, Budget, check_all, report_jsonl,
                         run_property)
from rsl.product_matrix import CodeParams, ProductMatrixCode

GF16 = FieldSpec(2, 4)
GF256 = FieldSpec(2, 8)


def _code(n=5, m=1, field=GF16):
    return ProductMatrixCode(CodeParams(n=n, k=3, d=4, m=m), field)


EXPECTED_IDS = [
    "msr.node_entropy", "msr.link_entropy", "msr.reconstruction",
    "lemma.repair_independence", "lemma.repair_determinism",
    "lemma.secure_size", "lemma.helper_symmetry", "lemma.express",
    "thm.scalar_repair_rank", "thm.simple_bound", "cor.capacity_exact",
    "def.stability", "lemma.truncation", "scheme.perfect_secrecy",
]


def test_registry_ids():
    assert PROPERTY_IDS == EXPECTED_IDS


def test_all_pass_on_base_instance():
    results = check_all(_code())
    assert [r.property for r in results] == EXPECTED_IDS
    for r in results:
        assert r.passed, (r.property, r.witness)
    # every non-vacuous property actually enumerated something
    for r in results:
        if r.property != "lemma.truncation":
            assert r.checks > 0, r.property


def test_all_pass_with_spare_nodes():
    results = check_all(_code(n=6))
    for r in results:
        assert r.passed, (r.property, r.witness)
    trunc = next(r for r in results if r.property == "lemma.truncation")
    assert trunc.checks > 0


def test_truncation_vacuous_at_minimum_width():
    r = run_property("lemma.truncation", _code())
    assert r.passed and r.checks == 0
    assert "nothing to truncate" in r.witness["note"]


def test_concatenated_capacity_properties():
    # exact regime at l2 = 1, bound regime at l2 = 2, both must hold
    code = _code(m=2)
    for prop in ("cor.capacity_exact", "thm.simple_bound"):
        r = run_property(prop, code)
        assert r.passed, r.witness


def test_unknown_property():
    with pytest.raises(KeyError):
        run_property("lemma.nonexistent", _code())


def test_instance_descriptor():
    r = run_property("msr.node_entropy", _code())
    assert r.instance == "n=5 k=3 d=4 m=1 field=GF(2^4)"


def test_report_jsonl_shape_and_stability():
    code = _code()
    first = report_jsonl(check_all(code))
    second = report_jsonl(check_all(_code()))
    assert first == second
    lines = first.strip().split("\n")
    assert len(lines) == len(EXPECTED_IDS)
    for line, prop in zip(lines, EXPECTED_IDS):
        record = json.loads(line)
        assert record["property"] == prop
        assert record["passed"] is True
        assert set(record) == {"property", "instance", "passed", "checks",
                               "witness", "seed"}
    assert first.endswith("\n")


def test_sampling_records_seed_and_is_deterministic():
    code = _code(n=7, field=GF256)
    budget = Budget(samples=6, seed=11)
    first = run_property("msr.reconstruction", code, budget)
    assert first.passed
    assert first.seed == 11  # comb(7,3) = 35 > 6 forces sampling
    again = run_property("msr.reconstruction", code, budget)
    assert report_jsonl([first]) == report_jsonl([again])
    wider = run_property("msr.reconstruction", code, Budget(samples=100))
    assert wider.seed is None
    assert wider.checks == 35


def test_few_samples_sample_a_small_pool():
    # the subsets decide, not the node count: 5 samples of the C(6,3) = 20
    # reconstruction groups are drawn, and the seed recorded
    result = run_property("msr.reconstruction", _code(n=6),
                          Budget(samples=5, seed=3))
    assert result.passed
    assert result.seed == 3
    assert result.checks <= 5


def test_budget_rejects_sizes_that_check_nothing():
    # samples=0 would make every sampled property pass on zero checks
    for bad in ({"samples": 0}, {"samples": -3}):
        with pytest.raises(ValueError):
            Budget(**bad)
    Budget(samples=1)


def test_seed_zero_is_recorded(monkeypatch):
    budget = Budget(samples=6, seed=0)
    code = _code(n=7)  # C(6,4) = 15 helper sets per node > 6 samples
    for pid in ("def.stability", "scheme.perfect_secrecy"):
        result = run_property(pid, code, budget)
        assert result.passed and result.seed == 0, pid
    # a sampled draw followed by exhaustive ones still records the seed
    subsets = harness._subsets

    def first_node_sampled(pool, size, budget, label):
        groups, seed = subsets(pool, size, budget, label)
        return groups, budget.seed if label == "stability:1" else seed
    monkeypatch.setattr(harness, "_subsets", first_node_sampled)
    assert run_property("def.stability", _code(), budget).seed == 0


def test_forced_failure_has_witness():
    class Broken(ProductMatrixCode):
        def repair_symbol(self, helper, failed, helper_share):
            out = super().repair_symbol(helper, failed, helper_share)
            if helper == 4:  # one liar among the helpers
                out = [self.field.add(x, 1) for x in out]
            return out

    code = Broken(CodeParams(n=5, k=3, d=4), GF16)
    r = run_property("def.stability", code)
    assert not r.passed
    assert r.witness is not None
    assert "failed" in r.witness and "helpers" in r.witness
    record = json.loads(report_jsonl([r]).strip())
    assert record["passed"] is False


def test_check_all_handles_zero_capacity_shapes():
    # (0,2) on the base instance leaks everything; the secrecy property
    # must skip it rather than fail
    r = run_property("scheme.perfect_secrecy", _code())
    assert r.passed
    assert r.checks == 41  # 1 + 5 + 5 + 20 + 10 models across viable shapes


# report_jsonl of check_all on GF(16) n=7 k=3 d=4 under a sampling budget,
# frozen byte for byte; checks and seeds pin which models were sampled
GOLDEN_SAMPLED = (
    '{"checks":7,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"msr.node_entropy","seed":null,"witness":null}\n'
    '{"checks":42,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"msr.link_entropy","seed":null,"witness":null}\n'
    '{"checks":6,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"msr.reconstruction","seed":11,"witness":null}\n'
    '{"checks":7,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.repair_independence","seed":null,"witness":null}\n'
    '{"checks":30,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.repair_determinism","seed":null,"witness":null}\n'
    '{"checks":190,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.secure_size","seed":null,"witness":null}\n'
    '{"checks":50,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.helper_symmetry","seed":null,"witness":null}\n'
    '{"checks":85,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.express","seed":null,"witness":null}\n'
    '{"checks":50,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"thm.scalar_repair_rank","seed":null,"witness":null}\n'
    '{"checks":266,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"thm.simple_bound","seed":11,"witness":null}\n'
    '{"checks":50,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"cor.capacity_exact","seed":11,"witness":null}\n'
    '{"checks":37,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"def.stability","seed":11,"witness":null}\n'
    '{"checks":51,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.truncation","seed":null,"witness":null}\n'
    '{"checks":44,"instance":"n=7 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"scheme.perfect_secrecy","seed":11,"witness":null}\n'
)


def test_sampled_report_golden():
    # 6 samples, fewer than the subsets of n=7 nodes, force sampling in
    # the five seeded properties
    budget = Budget(samples=6, seed=11)
    assert report_jsonl(check_all(_code(n=7), budget)) == GOLDEN_SAMPLED


def test_check_all_builds_no_extension(monkeypatch):
    code = _code(n=6, field=GF256)

    def no_search(*args):
        raise AssertionError("modulus search during check_all")
    monkeypatch.setattr(extension, "_find_modulus", no_search)

    # GF(256)^6 is frozen: building it would search nothing
    def no_extension(*args):
        raise AssertionError("an extension built during check_all")
    monkeypatch.setattr(extension.ExtensionSpec, "__init__", no_extension)
    for r in check_all(code):
        assert r.passed, (r.property, r.witness)


class Faulty(ProductMatrixCode):
    """Three injected faults: a zero repair row from 2 to 1, a lying
    helper 4, and node 5 storing slot 1's row in slot 0 as well."""

    def repair_row(self, helper, failed, copy):
        if (helper, failed) == (2, 1):
            return (0,) * self.params.message_length
        return super().repair_row(helper, failed, copy)

    def repair_symbol(self, helper, failed, helper_share):
        out = super().repair_symbol(helper, failed, helper_share)
        if helper == 4:
            out = [self.field.add(x, 1) for x in out]
        return out

    def stored_row(self, node, slot):
        return super().stored_row(node, 1 if (node, slot) == (5, 0) else slot)


# report_jsonl of check_all on Faulty at n = d+1, where truncate() is the
# code itself, so every property sees the faults; checks and witnesses pin
# where each property stops
GOLDEN_FAULTS = (
    '{"checks":5,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"msr.node_entropy","seed":null,"witness":{"expected":2,'
    '"node":5,"observed":1}}\n'
    '{"checks":5,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"msr.link_entropy","seed":null,"witness":{"expected":1,'
    '"failed":1,"helper":2,"observed":0}}\n'
    '{"checks":3,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"msr.reconstruction","seed":null,"witness":{"expected":6,'
    '"nodes":[1,2,5],"observed":5}}\n'
    '{"checks":1,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"lemma.repair_independence","seed":null,'
    '"witness":{"expected":4,"failed":1,"observed":3}}\n'
    '{"checks":1,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"lemma.repair_determinism","seed":null,'
    '"witness":{"first_helpers":[2,3],"node":1,"with_all":4,'
    '"with_first":3}}\n'
    '{"checks":11,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"lemma.secure_size","seed":null,"witness":{"conditional":2,'
    '"direct":1,"fresh":[2,3],"repaired":[1],"stored":[]}}\n'
    '{"checks":4,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"lemma.helper_symmetry","seed":null,'
    '"witness":{"repaired":[1],"values":{"2":0,"3":1,"4":1,"5":1}}}\n'
    '{"checks":8,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"lemma.express","seed":null,"witness":{"full":6,"order":[1,'
    '3],"triangular":5}}\n'
    '{"checks":1,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"thm.scalar_repair_rank","seed":null,'
    '"witness":{"expected":1,"helper":2,"observed":0,"repaired":[1]}}\n'
    '{"checks":7,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"thm.simple_bound","seed":null,"witness":{"achieved":3,'
    '"bound":2,"fresh":3,"repaired":[1],"stored":[]}}\n'
    '{"checks":2,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"cor.capacity_exact","seed":null,"witness":{"achieved":3,'
    '"expected":2,"repaired":[1],"stored":[]}}\n'
    '{"checks":1,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"def.stability","seed":null,"witness":{"failed":1,'
    '"helpers":[2,3,4,5]}}\n'
    '{"checks":0,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":true,'
    '"property":"lemma.truncation","seed":null,"witness":{"note":"n == d+1,'
    ' nothing to truncate"}}\n'
    '{"checks":2,"instance":"n=5 k=3 d=4 m=1 field=GF(2^4)","passed":false,'
    '"property":"scheme.perfect_secrecy","seed":null,"witness":{"highest":4,'
    '"l1":0,"l2":1,"lowest":3}}\n'
)


def _faulty():
    return Faulty(CodeParams(n=5, k=3, d=4), GF16)


def test_fault_witnesses_golden():
    results = [run_property(pid, _faulty()) for pid in PROPERTY_IDS[:-1]]
    golden = GOLDEN_FAULTS.splitlines(keepends=True)
    assert report_jsonl(results) == "".join(golden[:-1])


def test_asymmetric_leakage_is_a_failure_not_an_abort():
    # (0,1) models leak 3 or 4 on Faulty: perfect secrecy reports the
    # shape and range, and check_all still returns every other result
    assert report_jsonl(check_all(_faulty())) == GOLDEN_FAULTS


# report_jsonl of check_all on GF(16) n=6 k=3 d=4 m=2: a spare node, beta=2,
# every property exhaustive
GOLDEN_SPARE_M2 = (
    '{"checks":6,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"msr.node_entropy","seed":null,"witness":null}\n'
    '{"checks":30,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"msr.link_entropy","seed":null,"witness":null}\n'
    '{"checks":20,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"msr.reconstruction","seed":null,"witness":null}\n'
    '{"checks":6,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.repair_independence","seed":null,"witness":null}\n'
    '{"checks":30,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.repair_determinism","seed":null,"witness":null}\n'
    '{"checks":190,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.secure_size","seed":null,"witness":null}\n'
    '{"checks":50,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.helper_symmetry","seed":null,"witness":null}\n'
    '{"checks":85,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.express","seed":null,"witness":null}\n'
    '{"checks":20,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"thm.scalar_repair_rank","seed":null,"witness":null}\n'
    '{"checks":306,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"thm.simple_bound","seed":null,"witness":null}\n'
    '{"checks":58,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"cor.capacity_exact","seed":null,"witness":null}\n'
    '{"checks":30,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"def.stability","seed":null,"witness":null}\n'
    '{"checks":51,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"lemma.truncation","seed":null,"witness":null}\n'
    '{"checks":58,"instance":"n=6 k=3 d=4 m=2 field=GF(2^4)","passed":true,'
    '"property":"scheme.perfect_secrecy","seed":null,"witness":null}\n'
)


def test_spare_node_report_golden():
    assert report_jsonl(check_all(_code(n=6, m=2))) == GOLDEN_SPARE_M2
