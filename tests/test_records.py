"""The package's records are named tuples: keyword construction with the
documented defaults, value equality where every field is a value, identity
equality where a field holds arrays or a callable, and read-only fields."""

import numpy as np
import pytest

from privcomp import (
    Codeword,
    EntropyProfile,
    FixedCode,
    FunctionTable,
    MessageStore,
    RateReport,
    SimulationConfig,
    UsageError,
    candidate_set_from_exponents,
    encode_fixed,
    generate_query_plan,
    monomial_candidate_set,
    rate_report,
    run_simulation,
    verify_privacy_structure,
)
from privcomp.coding import TypeVector, type_of
from privcomp.protocol import DEFAULT_EPSILON, build_concrete_codes

RATE_KEYS = [
    "n", "mu", "f", "h_min", "achievable", "outer_bound", "lower_bound",
    "baseline_pir", "baseline_pir_unnormalized", "d_opt", "d_one",
    "capacity_met", "degenerate",
]


def test_keyword_construction_and_defaults():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    config = SimulationConfig(n=2, candidate_set=cs, length=4, v=1, mode="concrete", seed=3)
    assert (config.n, config.candidate_set, config.length, config.v) == (2, cs, 4, 1)
    assert (config.mode, config.seed, config.epsilon) == ("concrete", 3, DEFAULT_EPSILON)
    plain = SimulationConfig(n=2, candidate_set=cs, length=4, v=1)
    assert (plain.mode, plain.seed, plain.epsilon) == ("symbolic", 0, DEFAULT_EPSILON)
    with pytest.raises(TypeError):
        SimulationConfig(n=2, candidate_set=cs, length=4)  # v has no default
    table = FunctionTable(q=3, f=1, values=[0, 2, 1])
    assert table.exponents is None
    assert table.values.dtype == np.int64 and not table.values.flags.writeable
    code = FixedCode(q=3, alphabet_size=2, length=8, budget=0.75)
    assert (code.header_len, code.payload_len, code.codeword_len) == (2, 6, 8)
    store = MessageStore(q=3, messages=np.zeros((1, 2, 4), dtype=np.int8))
    assert store.length == 4 and store.input_codes().shape == (2, 4)


def test_validation_runs_at_construction_and_replace():
    profile = EntropyProfile(h=(1.0, 0.5), prefix_joint=(1.0, 1.5))
    table = FunctionTable(q=3, f=1, values=[0, 2, 1])
    code = FixedCode(q=3, alphabet_size=2, length=8, budget=0.75)
    report = rate_report(3, monomial_candidate_set(2, 2, 3))
    with pytest.raises(UsageError, match="nonincreasing"):
        EntropyProfile(h=(0.5, 1.0), prefix_joint=(0.5, 1.0))
    with pytest.raises(UsageError, match="nonincreasing"):
        profile._replace(h=(0.5, 1.0))
    with pytest.raises(UsageError, match="out of field range"):
        table._replace(values=[0, 1, 3])
    replaced = table._replace(values=[2, 2, 0])  # copied read-only, as at construction
    assert replaced.values.dtype == np.int64 and not replaced.values.flags.writeable
    with pytest.raises(UsageError, match="budget"):
        code._replace(budget=-1.0)
    with pytest.raises(UsageError, match="exceeds outer bound"):
        RateReport(**{**report.as_dict(), "achievable": report.outer_bound + 1e-6})
    with pytest.raises(UsageError, match="lower bound exceeds"):
        report._replace(lower_bound=report.achievable + 1e-6)


def test_value_records_compare_and_hash_by_value():
    profile = EntropyProfile(h=(1.0, 0.5), prefix_joint=(1.0, 1.5))
    assert profile == EntropyProfile((1.0, 0.5), (1.0, 1.5))
    assert hash(profile) == hash(EntropyProfile((1.0, 0.5), (1.0, 1.5)))
    assert profile != EntropyProfile((1.0, 0.5), (1.0, 1.25))
    code = FixedCode(3, 2, 8, 0.75)
    twin = FixedCode(q=3, alphabet_size=2, length=8, budget=0.75)
    assert code.codeword_len == 8  # a cached property is not a field
    assert code == twin and hash(code) == hash(twin) and {code: 1}[twin] == 1
    assert code != FixedCode(3, 2, 8, 1.0)
    seq = [0, 1, 1, 0, 1, 0, 0, 0]
    assert encode_fixed(seq, code) == encode_fixed(seq, twin)
    assert hash(encode_fixed(seq, code)) == hash(encode_fixed(list(seq), twin))
    assert encode_fixed(seq, code) != encode_fixed(seq[::-1], code)
    assert isinstance(encode_fixed(seq, code), Codeword)
    assert type_of(seq, 2) == TypeVector(counts=(5, 3))
    assert hash(type_of(seq, 2)) == hash(TypeVector((5, 3)))
    cs = monomial_candidate_set(2, 2, 3)
    assert rate_report(3, cs) == rate_report(3, cs)
    assert hash(rate_report(3, cs)) == hash(rate_report(3, cs))
    assert rate_report(3, cs) != rate_report(5, cs)


def test_array_records_compare_by_identity():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    twin = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    table = cs.functions[0]
    plan = generate_query_plan(2, 2, 1, seed=0)
    codes = build_concrete_codes(cs, 8)
    pairs = [
        (cs, twin),
        (table, FunctionTable(table.q, table.f, table.values, table.exponents)),
        (plan, generate_query_plan(2, 2, 1, seed=0)),
        (codes, codes._replace()),  # the same field objects
    ]
    for record, other in pairs:
        # equal fields, yet distinct records: no array is ever compared
        assert record == record and not record != record
        assert record != other and not record == other
        assert hash(record) != hash(other)
        assert len({record, other, record}) == 2
        assert record in [other, record] and record not in [other]
    assert plan.round is plan.round and "round" in vars(plan)  # cached per plan
    assert cs.functions is cs.functions and "functions" in vars(cs)


def test_fields_are_read_only():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    config = SimulationConfig(n=2, candidate_set=cs, length=4, v=1)
    report = run_simulation(config)
    plan = generate_query_plan(2, 2, 1, seed=0)
    code = FixedCode(3, 2, 8, 0.75)
    records = [
        (cs, "profile"),
        (cs.functions[0], "values"),
        (cs.profile, "h"),
        (config, "v"),
        (report, "recovery_ok"),
        (plan, "sums"),
        (code, "budget"),
        (encode_fixed([0] * 8, code), "symbols"),
        (type_of([0, 1], 2), "counts"),
        (rate_report(3, monomial_candidate_set(2, 2, 3)), "achievable"),
        (verify_privacy_structure(plan), "violations"),
        (MessageStore(q=3, messages=np.zeros((1, 2, 4), dtype=np.int8)), "q"),
        (build_concrete_codes(cs, 8), "joint_code"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert report._replace(recovery_ok=False).recovery_ok is False
    assert report.recovery_ok is True


def test_rate_report_as_dict_keeps_field_order():
    report = rate_report(3, monomial_candidate_set(2, 2, 3))
    as_dict = report.as_dict()
    assert list(as_dict) == RATE_KEYS == list(RateReport._fields)
    assert list(as_dict.values()) == list(report)
    assert type(as_dict) is dict
