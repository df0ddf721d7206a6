"""The float-in-fpga checker against violating and clean fixtures."""

from __future__ import annotations

from repro.lint.purity import (
    PURITY_SCOPE,
    RULE,
    RULE_STALE,
    PurityChecker,
    PurityScope,
)

SCOPE = {
    "purity_bad.py": PurityScope(mode="all", allow=frozenset({"to_float"})),
    "purity_clean.py": PurityScope(mode="all"),
}


def test_every_float_leak_is_flagged(fixture_project):
    project = fixture_project("purity_bad.py")
    findings = PurityChecker(scope=SCOPE).run(project)
    assert len(findings) == 6
    assert all(f.rule == RULE for f in findings)
    blob = " ".join(f.message for f in findings)
    assert "float literal 0.5" in blob
    assert "true division" in blob
    assert "math.* is float-only: math.cos()" in blob
    assert "float-producing call np.mean()" in blob
    assert "astype() to a float dtype" in blob
    assert "np.empty() without dtype= allocates float64" in blob


def test_allowed_dequantizer_is_exempt(fixture_project):
    project = fixture_project("purity_bad.py")
    findings = PurityChecker(scope=SCOPE).run(project)
    # to_float divides by 65536.0 -- both would flag without the allow.
    assert all(f.line < 22 for f in findings)


def test_integer_only_datapath_is_clean(fixture_project):
    project = fixture_project("purity_clean.py")
    assert PurityChecker(scope=SCOPE).run(project) == []


def test_raw_only_mode_checks_just_the_named_functions(fixture_project):
    project = fixture_project("purity_bad.py")
    scope = {
        "purity_bad.py": PurityScope(mode="raw-only", only=frozenset({"to_float"}))
    }
    findings = PurityChecker(scope=scope).run(project)
    # Only to_float is in scope now; its float division must flag while
    # forward's six leaks fall outside the raw-only selection.
    assert len(findings) == 2
    assert all(f.line >= 22 for f in findings)


def test_default_scope_names_only_real_repo_files():
    for path in PURITY_SCOPE:
        assert path.startswith("src/repro/"), path


def test_stale_scope_is_flagged(fixture_project):
    """A scope entry that checks nothing is itself a finding, not silence."""
    project = fixture_project("purity_bad.py", "purity_clean.py")
    scope = {
        # Names the file does not define: a raw-only entry whose functions
        # were deleted, and an allow list naming a renamed dequantizer.
        "purity_bad.py": PurityScope(
            mode="raw-only", only=frozenset({"to_float", "deleted_shim"})
        ),
        "purity_clean.py": PurityScope(mode="all", allow=frozenset({"renamed"})),
        # A scoped file that does not exist, whatever its mode.
        "purity_gone.py": PurityScope(mode="exempt", reason="fixture"),
    }
    findings = PurityChecker(scope=scope).run(project)
    stale = {f.path: f.message for f in findings if f.rule == RULE_STALE}
    assert sorted(stale) == ["purity_bad.py", "purity_clean.py", "purity_gone.py"]
    assert "scoped function deleted_shim not defined" in stale["purity_bad.py"]
    assert "scoped function renamed not defined" in stale["purity_clean.py"]
    assert "scoped file does not exist" in stale["purity_gone.py"]
    # The live names keep being checked: to_float's two leaks still flag.
    assert sum(f.rule == RULE for f in findings) == 2

