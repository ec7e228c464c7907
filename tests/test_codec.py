"""Verification-code generation and serialization."""

import numpy as np
import pytest

from uwblab.adversary import plan_attack
from uwblab.codec import (CodeParams, VerificationCode, bins, code_from_line,
                          code_to_line, generate_code)

FIG_SENT = "0,-1,0,0,0,-1,1,0,0,0,0,0,1,0,-1,0,0,0"
PIN_PARAMS = CodeParams(n=12, alpha=4, beta=8, r=2)  # C11's geometry, as in the session pin
CHI2_23_TAIL_1E6 = 70.55  # P(chi-square with 23 degrees of freedom > 70.55) = 1e-6


def test_params_validation():
    CodeParams(n=18, alpha=5, beta=13, r=5)
    with pytest.raises(ValueError):
        CodeParams(n=10, alpha=4, beta=4)
    # an all-empty frame carries no code, whatever r it is given
    for r in (0, 1):
        with pytest.raises(ValueError, match="alpha >= 1"):
            CodeParams(n=10, alpha=0, beta=10, r=r)
    with pytest.raises(ValueError):
        CodeParams(n=10, alpha=4, beta=6, r=2, ts_ns=-1.0)
    # nan fails every comparison, so the range check must be one nan fails
    with pytest.raises(ValueError, match="tp_ns"):
        CodeParams(n=10, alpha=4, beta=6, r=2, tp_ns=float("nan"))
    with pytest.raises(ValueError, match="ts_ns"):
        CodeParams(n=10, alpha=4, beta=6, r=2, ts_ns=float("inf"))


def test_generate_code_counts_and_phases():
    params = CodeParams(n=100, alpha=30, beta=70)
    code = generate_code(params, seed=42)
    assert code.slots.shape == (100,)
    assert int(np.sum(code.slots != 0)) == 30
    assert set(np.unique(code.slots)) <= {-1, 0, 1}


def test_generate_code_deterministic():
    params = CodeParams(n=40, alpha=10, beta=30)
    a = generate_code(params, seed=7)
    b = generate_code(params, seed=7)
    c = generate_code(params, seed=8)
    assert np.array_equal(a.slots, b.slots)
    assert not np.array_equal(a.slots, c.slots)


def test_slots_read_only():
    code = generate_code(CodeParams(n=12, alpha=4, beta=8, r=4), seed=0)
    with pytest.raises(ValueError):
        code.slots[0] = 1


def test_bins_partition():
    params = CodeParams(n=30, alpha=9, beta=21)
    code = generate_code(params, seed=3)
    occ, emp = bins(code)
    assert len(occ) == 9 and len(emp) == 21
    assert sorted(list(occ) + list(emp)) == list(range(30))
    assert np.all(code.slots[occ] != 0)
    assert np.all(code.slots[emp] == 0)


def test_position_uniformity():
    # every 2-subset of 4 slots should carry the pulses equally often
    params = CodeParams(n=4, alpha=2, beta=2, r=1)
    counts = {}
    trials = 60000
    for seed in range(trials):
        occ, _ = bins(generate_code(params, seed))
        counts[tuple(occ)] = counts.get(tuple(occ), 0) + 1
    assert len(counts) == 6
    for pair, cnt in counts.items():
        assert abs(cnt / trials - 1 / 6) < 0.01, pair


def test_subset_and_signs_are_jointly_uniform():
    # at n 4, alpha 2 a code is one of 6 pulse subsets times 4 sign
    # patterns, and each of the 24 cells comes up equally often: chi-square
    # over 24,000 codes drawn in place from one generator
    params = CodeParams(n=4, alpha=2, beta=2, r=1)
    rng = np.random.default_rng(2024)
    draws = 24000
    counts = {}
    for _ in range(draws):
        cell = tuple(generate_code(params, rng).slots.tolist())
        counts[cell] = counts.get(cell, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_23_TAIL_1E6, chi2


def test_code_and_plan_draw_pin():
    # the one draw of codes and plans at the session pin's geometry and
    # seed; a change that moves it must update these and say so in CHANGES.md
    assert generate_code(PIN_PARAMS, 7).slots.tolist() == [1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0]
    assert plan_attack(PIN_PARAMS, 3, seed=7).phases.tolist() == [0, 0, 0, 0, -1, 0, -1, 0, 0,
                                                                  0, 1, 0]


def test_phase_balance():
    params = CodeParams(n=10, alpha=5, beta=5, r=5)
    total = 0
    pulses = 0
    for seed in range(4000):
        slots = generate_code(params, seed).slots
        total += int(slots.sum())
        pulses += 5
    assert abs(total / pulses) < 0.05


def test_line_round_trip():
    params = CodeParams(n=24, alpha=6, beta=18, r=3)
    code = generate_code(params, seed=9)
    line = code_to_line(code)
    back = code_from_line(line)
    assert np.array_equal(back.slots, code.slots)
    assert back.params.alpha == 6 and back.params.beta == 18


def test_figure_row_parses():
    code = code_from_line(FIG_SENT)
    assert code.params.n == 18
    assert code.params.alpha == 5 and code.params.beta == 13
    occ, _ = bins(code)
    assert list(occ) == [1, 5, 6, 12, 14]
    assert list(code.slots[occ]) == [-1, -1, 1, 1, -1]


@pytest.mark.parametrize("bad", [np.int8(2), np.int8(-2), np.int8(127), np.int8(-128),
                                 np.int64(255), 0.5], ids=str)
def test_code_rejects_slot_values_outside_unit_range(bad):
    # one bad value among alpha nonzero slots, so only the value check can fire;
    # -128 guards against an abs() test, since abs(-128) is -128 in int8, and
    # the int8 cast must neither wrap 255 to -1 nor truncate 0.5 to 0
    params = CodeParams(n=4, alpha=2, beta=2, r=1)
    with pytest.raises(ValueError, match="slot values"):
        VerificationCode(params=params, slots=np.array([bad, 1, 0, 0], dtype=np.asarray(bad).dtype))
    VerificationCode(params=params, slots=np.array([-1, 1, 0, 0], dtype=np.int8))


def test_code_rejects_wrong_pulse_count_and_shape():
    params = CodeParams(n=4, alpha=2, beta=2, r=1)
    with pytest.raises(ValueError, match="number of pulses"):
        VerificationCode(params=params, slots=np.array([1, 1, -1, 0]))
    with pytest.raises(ValueError, match="length"):
        VerificationCode(params=params, slots=np.array([1, -1, 0, 0, 0]))
    with pytest.raises(ValueError, match="length"):
        VerificationCode(params=params, slots=np.array([[1, -1], [0, 0]]))


def test_code_from_line_rejects_bad_slot_value():
    with pytest.raises(ValueError):
        code_from_line("0,2,1,0")
    # 300 does not fit int8; it is refused, not wrapped or overflowed
    with pytest.raises(ValueError, match="slot values"):
        code_from_line("0,300,1")
    # past int64 the count of pulses would overflow before the value check
    with pytest.raises(ValueError, match="slot values"):
        code_from_line("0,99999999999999999999,1")
    with pytest.raises(ValueError, match="alpha >= 1"):
        code_from_line("0,0,0")
