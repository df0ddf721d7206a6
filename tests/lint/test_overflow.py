"""The overflow checker: proofs, gates, stale entries, and the site report."""

from __future__ import annotations

from repro.lint.overflow import (
    OVERFLOW_SCOPE,
    PROOFS,
    RULE_OVERFLOW,
    RULE_STALE,
    RULE_UNPROVEN,
    OverflowChecker,
    SiteProof,
)

SCOPE = {"overflow_mod.py": frozenset({"Mod.forward"})}
KEY = ("overflow_mod.py", "Mod.forward", "a * b")


def _proof(worst_bits: int = 41, requires: tuple[str, ...] = ()) -> SiteProof:
    return SiteProof(
        kind="gated",
        worst_bits=worst_bits,
        note="|a| <= 2**20 by the runtime gate; b is in-range int",
        requires=requires,
    )


def test_unproven_site_is_flagged(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(scope=SCOPE, proofs={})
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "'a * b'" in findings[0].message
    assert checker.site_report == []


def test_proved_site_is_clean_and_reported(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(
        scope=SCOPE, proofs={KEY: _proof(requires=("abs(a) > 1048576",))}
    )
    assert checker.run(project) == []
    (site,) = checker.site_report
    assert site["status"] == "proven"
    assert site["worst_bits"] == 41
    assert site["headroom_bits"] == 63 - 41
    assert site["where"] == "Mod.forward"


def test_removing_the_gate_voids_the_proof(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(
        scope=SCOPE, proofs={KEY: _proof(requires=("abs(a) > 9999999",))}
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "which is gone" in findings[0].message
    (site,) = checker.site_report
    assert site["status"] == "violated"


def test_worst_case_beyond_int64_is_an_overflow(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(scope=SCOPE, proofs={KEY: _proof(worst_bits=70)})
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_OVERFLOW]
    assert "2**69" in findings[0].message


def test_stale_proof_and_stale_scope_are_flagged(fixture_project):
    project = fixture_project("overflow_mod.py")
    stale_key = ("overflow_mod.py", "Mod.forward", "a + deleted")
    checker = OverflowChecker(
        scope={"overflow_mod.py": frozenset({"Mod.forward", "Mod.gone"})},
        proofs={KEY: _proof(), stale_key: _proof()},
    )
    rules = sorted(f.rule for f in checker.run(project))
    assert rules == [RULE_STALE, RULE_STALE]


F64_SCOPE = {"float64_mod.py": frozenset({"Kernel.gated", "Kernel.ungated"})}
F64_GATED = ("float64_mod.py", "Kernel.gated", "x @ self.weights")


def _f64_proof(worst_bits: int = 53, gate: str = "bound < _FLOAT64_EXACT") -> SiteProof:
    return SiteProof(
        kind="float64-exact",
        worst_bits=worst_bits,
        note="integer operands and partial sums below 2**53 by the gate",
        requires=(gate,),
    )


def test_ungated_float64_product_is_unproven(fixture_project):
    project = fixture_project("float64_mod.py")
    checker = OverflowChecker(scope=F64_SCOPE, proofs={F64_GATED: _f64_proof()})
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "'x.astype(np.float64) @ w'" in findings[0].message
    (site,) = checker.site_report
    assert site["kind"] == "float64-exact"
    assert site["headroom_bits"] == 0


def test_float64_exact_proof_needs_its_gate(fixture_project):
    project = fixture_project("float64_mod.py")
    checker = OverflowChecker(
        scope={"float64_mod.py": frozenset({"Kernel.gated"})},
        proofs={F64_GATED: _f64_proof(gate="bound < 2 ** 53")},
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "which is gone" in findings[0].message


def test_float64_exact_bound_beyond_the_mantissa_is_an_overflow(fixture_project):
    project = fixture_project("float64_mod.py")
    checker = OverflowChecker(
        scope={"float64_mod.py": frozenset({"Kernel.gated"})},
        proofs={F64_GATED: _f64_proof(worst_bits=54)},
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_OVERFLOW]
    assert "does not fit float64 exactly" in findings[0].message


def test_repo_ledger_proves_every_site_with_headroom():
    """Every PROOFS entry fits its carrier and every scope key is a real file."""
    for (path, where, expr), proof in PROOFS.items():
        assert proof.worst_bits <= proof.limit_bits, (path, where, expr)
        assert proof.headroom_bits >= 0
        assert proof.note
        if proof.kind == "float64-exact":
            assert proof.worst_bits <= 53 and proof.requires, (path, where, expr)
    for path in OVERFLOW_SCOPE:
        assert path.startswith("src/repro/"), path
