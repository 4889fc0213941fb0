"""Acceptance suite: every criterion at its stated tolerance and sample size.

One pass/fail line is printed per criterion (visible with -s or in the
captured output of a failure); each test asserts both the mathematical
checks and the runtime budget.
"""

import pytest

from cayley_workbench import verify


def _run(fn, **kw):
    result = fn(**kw)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.name} "
          f"({result.elapsed:.1f}s / budget {result.budget:.0f}s)")
    assert result.passed, result.details["checks"]
    assert result.within_budget(), \
        f"criterion {result.number} took {result.elapsed:.1f}s, budget {result.budget}s"
    return result


def test_criterion_1_phi0_construction():
    _run(verify.criterion_1_phi0)


def test_criterion_2_stabilizer_dimension():
    r = _run(verify.criterion_2_stabilizer)
    assert r.details["stab_dim"] == 21


def test_criterion_3_representation_split():
    r = _run(verify.criterion_3_representations)
    assert r.details["lambda2_multiplicities"] == {"3": 7, "-1": 21}


def test_criterion_4_acs_theorem():
    _run(verify.criterion_4_acs, seed=0)


def test_criterion_5_contraction_identities():
    r = _run(verify.criterion_5_identities, seed=0)
    expected = {"1": (3, 2), "2": (4, 2), "3": (6, 7)}
    for i, want in expected.items():
        got = (abs(r.details["identities"][i]["c_a"]),
               abs(r.details["identities"][i]["c_b"]))
        assert got == pytest.approx(want, abs=1e-9)


def test_criterion_5_coefficients_are_exact():
    r = verify.criterion_5_identities(seed=0)
    for fit in r.details["identities"].values():
        assert type(fit["c_a"]) is int and type(fit["c_b"]) is int
        assert fit["fit_residual"] == 0


def test_criterion_6_comass_and_free_dimension():
    r = _run(verify.criterion_6_free_dimension, seed=0)
    assert r.details["free_frame_value"] == 0


def test_criterion_7_cayley_test_equivalence():
    r = _run(verify.criterion_7_cayley_equivalence, seed=0)
    assert r.details["disagreements"] == 0


def test_criterion_8_topology_calculus():
    _run(verify.criterion_8_topology)


def test_criterion_9_mirror_construction():
    r = _run(verify.criterion_9_mirror, seed=0)
    assert abs(r.details["ratio_im"] + 4.0 / 3.0) < 1e-9
