"""Acceptance criteria, one test per criterion, each printing pass/fail lines.

Every criterion is evaluated at its stated tolerance by the shared
verification suites in spinsurf.verify (also reachable via `spinsurf verify`).
"""
import pytest

from spinsurf import verify


def _line(r) -> str:
    return f"{r.name}: {r} ({r.runtime_s:.2f}s)"


def _report(criterion: str, results) -> None:
    print()
    for r in results:
        print(f"  criterion {criterion} | {_line(r)}")
        # the one rule, re-applied to what verify.json records
        d = r.as_dict()
        assert d["pass"] is (d["lo"] <= d["value"] <= d["hi"]), d
    failed = [r for r in results if not r.passed]
    assert not failed, f"criterion {criterion}: " + "; ".join(r.name for r in failed)


@pytest.fixture(scope="module")
def norm_results():
    return verify.suite_norms()


def test_criterion_1_symbolic_dsii_identity():
    # zero residual polynomial for both catalog data with symbolic c, < 10 s
    _report("1", verify.suite_symbolic())


def test_criterion_2_norm_quantization(norm_results):
    res = [r for r in norm_results if "ozawa" not in r.name]
    _report("2", res)


def test_criterion_3_ozawa_norm(norm_results):
    res = [r for r in norm_results if "ozawa" in r.name]
    assert res, "ozawa check missing from the norms suite"
    _report("3", res)


def test_criterion_4_singularity_ledger():
    _report("4", verify.suite_singularities())


def test_criterion_5_willmore_equalities():
    _report("5", verify.suite_willmore())


def test_criterion_6_weierstrass_consistency():
    _report("6", verify.suite_weierstrass())


def test_criterion_7_moutard_correctness():
    _report("7", verify.suite_moutard())


@pytest.mark.parametrize("mutant", ["dropped", "sign-flipped"])
def test_criterion_7_route_rejects_a_wrong_time_offset(mutant, monkeypatch):
    # the time-augmented route's s2 records, each order ratio and each 256^2 bound,
    # fail when verify's Gamma int omega1 dt is dropped or has its sign flipped:
    # W then misses U by about the size of U
    offset = verify.time_offset_integral
    wrong = {"dropped": lambda *a: 0 * offset(*a), "sign-flipped": lambda *a: -offset(*a)}
    monkeypatch.setattr(verify, "time_offset_integral", wrong[mutant])
    route = [r for r in verify.suite_moutard() if r.name.startswith("s2 route")]
    print()
    for r in route:
        print(f"  {mutant} offset | {_line(r)}")
    assert len(route) == 8
    assert not any(r.passed for r in route)


def test_criterion_8_evolver_cross_check():
    # 256^2 on the half-width-30 box, dt = 1e-4, t in [0, 0.1]
    _report("8", verify.suite_evolver())


def test_criterion_9_mkdv_reduction_identity():
    _report("9", verify.suite_reduction())
