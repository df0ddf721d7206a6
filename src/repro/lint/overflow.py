"""Overflow-bound analysis of the fixed-point multiply/accumulate chains.

The datapath does all arithmetic in int64 and proves, per site, that the
worst-case intermediate magnitude stays below ``2**63`` for the declared
Q16.16 operand ranges.  This checker makes those proofs *load-bearing*: it
enumerates every arithmetic site (``@``, ``*``, ``+``, ``-``, ``<<``,
``+=``-family, and the ``fmt.multiply*``/``reduceat`` calls) in the scoped
datapath functions and requires each to match an entry of :data:`PROOFS` --
a reviewed ledger carrying the worst-case magnitude bound, the proof sketch,
and the source fragments (runtime gates, constructor guards) the proof
depends on.

- a site with no ledger entry reports ``overflow-unproven`` (new arithmetic
  must arrive with a proof);
- a ledger entry whose ``requires`` fragment disappeared from the module
  reports ``overflow-unproven`` too (the gate the proof leaned on is gone);
- a ledger entry matching no site reports ``overflow-stale-proof``;
- a proof whose bound does not fit int64 reports ``int64-overflow``.

Matching is by ``(path, function, ast.unparse(site))``, so any edit to a
proven expression -- however small -- re-opens the proof obligation.  The
per-site worst-case magnitudes (in bits) and remaining int64 headroom are
exported in the JSON report (``overflow_report``).

Proof conventions (Q16.16: word length ``w = 32``, in-range ``|raw| <=
2**31``, fast-multiply guard ``g = 8`` so operands to ``fmt.multiply`` may
reach ``2**39``; int64 wraps at ``2**63``):

- ``bounded``  -- magnitude bound follows from declared operand ranges;
- ``gated``    -- a runtime/constructor check (named in ``requires``)
                  reroutes to an exact path before the bound can fail;
- ``planned``  -- the bound is enforced by ``_plan_multiply``'s strategy
                  selection at format-construction time;
- ``python-int``   -- Python scalar integers (arbitrary precision);
- ``exact-object`` -- NumPy ``object`` arrays of Python ints (exact);
- ``float64-exact`` -- a float64 product or sum whose every operand and
                  partial sum is an integer of magnitude below ``2**53``,
                  which float64 represents exactly, so the result is exact
                  in any summation order; ``requires`` names the
                  construction-time ``2**53`` gate, and ``worst_bits`` must
                  not exceed 53 (reported as ``int64-overflow`` otherwise);
- ``adc``      -- the capture conversion itself: float input times
                  ``2**fractional_bits`` (an exact power-of-two scaling), then
                  ``rint`` and saturation; no integer exists before it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutil import call_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.runner import Project

__all__ = [
    "OverflowChecker",
    "SiteProof",
    "OVERFLOW_SCOPE",
    "PROOFS",
    "RULE_OVERFLOW",
    "RULE_STALE",
    "RULE_UNPROVEN",
]

RULE_UNPROVEN = "overflow-unproven"
RULE_OVERFLOW = "int64-overflow"
RULE_STALE = "overflow-stale-proof"

#: int64 magnitudes must stay strictly below 2**63.
_INT64_BITS = 63

#: float64 holds every integer of magnitude below 2**53 exactly.
_FLOAT64_EXACT_BITS = 53

#: Functions whose arithmetic is part of the integer datapath and must be
#: covered by the proof ledger, per file.
OVERFLOW_SCOPE: dict[str, frozenset[str]] = {
    "src/repro/fpga/modules.py": frozenset(
        {
            "AverageModule.forward",
            "NormalizeModule.forward",
            "MatchedFilterModule.forward",
            "DenseLayerModule.forward",
            "ThresholdModule.forward",
        }
    ),
    "src/repro/fpga/emulator.py": frozenset(
        {
            "FpgaStudentEmulator._plan_float64_routes",
            "FpgaStudentEmulator._run",
            "FpgaStudentEmulator._fill_arena",
            "FpgaStudentEmulator._reduce_arena",
            "FpgaStudentEmulator._exact_product",
            "FpgaStudentEmulator._features_chunk",
            "FpgaStudentEmulator._logits_chunk",
            "FpgaStudentEmulator.predict_logits_from_raw",
        }
    ),
    "src/repro/fpga/fixed_point.py": frozenset(
        {
            "FixedPointFormat._saturate",
            "FixedPointFormat.add",
            "FixedPointFormat.multiply",
            "FixedPointFormat.multiply_exact_reference",
            "FixedPointFormat.mac_static_bound",
            "FixedPointFormat.multiply_accumulate",
            "FixedPointFormat.multiply_accumulate_exact_reference",
            "FixedPointFormat.shift_right",
        }
    ),
}

#: Binary/augmented ops that can grow magnitude (right shifts and bit masks
#: only shrink it and are exempt).
_TRACKED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.MatMult, ast.LShift)

#: Call names (last dotted component) that perform multiply/accumulate work.
_ARITH_CALLS = {
    "multiply",
    "multiply_exact_reference",
    "multiply_accumulate",
    "multiply_accumulate_exact_reference",
    "reduceat",
}


@dataclass(frozen=True)
class SiteProof:
    """One reviewed overflow bound for one arithmetic site."""

    kind: str
    worst_bits: int
    note: str
    #: Source fragments the proof leans on: runtime gates, constructor
    #: guards.  A plain fragment is checked against the site's own module;
    #: ``"relpath::fragment"`` pins a gate living in another file (e.g. a
    #: modules.py call site relying on fixed_point.py's MAC gate).  If any
    #: fragment disappears the proof is void and the site reports as
    #: unproven again.
    requires: tuple[str, ...] = ()

    @property
    def limit_bits(self) -> int:
        """Bits the site's carrier holds exactly: 53 for float64, 63 for int64."""
        return _FLOAT64_EXACT_BITS if self.kind == "float64-exact" else _INT64_BITS

    @property
    def headroom_bits(self) -> int:
        return self.limit_bits - self.worst_bits


_MOD = "src/repro/fpga/modules.py"
_EMU = "src/repro/fpga/emulator.py"
_FXP = "src/repro/fpga/fixed_point.py"

#: The proof ledger: (path, function, unparsed expression) -> proof.
PROOFS: dict[tuple[str, str, str], SiteProof] = {
    # ------------------------------------------------------- AverageModule
    (
        _MOD,
        "AverageModule.forward",
        "n_intervals * self.samples_per_interval",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="window-count arithmetic on Python scalars",
    ),
    (_MOD, "AverageModule.forward", "n_shots * n_intervals"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="reshape-size arithmetic on Python scalars",
    ),
    (_MOD, "AverageModule.forward", "windows @ self._sum_matrix"): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "adder tree: |sum| <= S * 2**31 with S <= 2**30 enforced at "
            "construction, so partial sums stay <= 2**61"
        ),
        requires=("samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length))",),
    ),
    (
        _MOD,
        "AverageModule.forward",
        "np.add.reduceat(trace_raw[:, :usable, :], boundaries, axis=1)",
    ): SiteProof(
        kind="bounded",
        worst_bits=62,
        note="same adder tree as the matmul variant: |sum| <= 2**30 * 2**31 = 2**61",
        requires=("samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length))",),
    ),
    (
        _MOD,
        "AverageModule.forward",
        "self.fmt.multiply(sums, np.int64(self.reciprocal_raw))",
    ): SiteProof(
        kind="gated",
        worst_bits=40,
        note=(
            "_scale_exactly admits the fast multiply only when S <= 2**guard "
            "(2**8), so |sums| <= 2**39 -- inside the guard headroom the "
            "multiply is exact and internally int64-safe for"
        ),
        requires=("self._scale_exactly",),
    ),
    (
        _MOD,
        "AverageModule.forward",
        "self.fmt.multiply_exact_reference(sums, np.int64(self.reciprocal_raw))",
    ): SiteProof(
        kind="exact-object",
        worst_bits=62,
        note=(
            "big-integer reference path; the int64 inputs are the adder-tree "
            "sums bounded by 2**61, the products live in object arrays"
        ),
    ),
    # ----------------------------------------------------- NormalizeModule
    (
        _MOD,
        "NormalizeModule.forward",
        "features_raw - self.minimum_raw[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note="in-range minus in-range: |a| + |b| <= 2**31 + 2**31 = 2**32",
    ),
    (
        _MOD,
        "NormalizeModule.forward",
        "centered[:, left] << self._left_shift[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "|centered| <= 2**32 and the constructor bounds left shifts to "
            "62 - (w+1) = 29 bits, so |shifted| <= 2**61 before np.clip"
        ),
        requires=("int(self._left_shift.max()) > max_left",),
    ),
    # -------------------------------------------------- MatchedFilterModule
    (
        _MOD,
        "MatchedFilterModule.forward",
        "self.fmt.multiply_accumulate(window, flat_envelope, static_bound=self._mac_bound)",
    ): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "multiply_accumulate takes the int64 path only when the static "
            "accumulator bound (sum|envelope| * 2**31, computed at "
            "construction) is below 2**62; larger envelopes reroute to the "
            "exact big-integer MAC"
        ),
        requires=(f"{_FXP}::static_bound < (1 << _INT64_SAFE_BITS)",),
    ),
    (_MOD, "MatchedFilterModule.forward", "scores -= self.threshold_raw"): SiteProof(
        kind="bounded",
        worst_bits=33,
        note="saturated MAC output minus in-range threshold: <= 2**31 + 2**31",
    ),
    (
        _MOD,
        "MatchedFilterModule.forward",
        "self.fmt.multiply(scores, np.int64(self.scale_reciprocal_raw))",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note=(
            "operands are <= 2**32 (offset scores) and <= 2**31 (reciprocal), "
            "both inside the 2**39 fast-multiply guard headroom"
        ),
    ),
    # ----------------------------------------------------- DenseLayerModule
    (_MOD, "DenseLayerModule.forward", "inputs_raw @ self.weights_raw"): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "every partial sum is bounded by the per-neuron static MAC bound; "
            "_vectorized admits the int64 matmul only when that bound is "
            "below 2**62, else the layer uses the exact big-integer MAC"
        ),
        requires=("self._vectorized",),
    ),
    (
        _MOD,
        "DenseLayerModule.forward",
        "outputs += self.biases_raw[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=47,
        note=(
            "post-shift accumulator <= 2**(62-16) = 2**46 plus an in-range "
            "bias <= 2**31: < 2**47"
        ),
    ),
    (
        _MOD,
        "DenseLayerModule.forward",
        "self.fmt.multiply_accumulate_exact_reference(inputs_raw, "
        "self.weights_raw[:, neuron], bias=int(self.biases_raw[neuron]))",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="exact big-integer MAC fallback: products live in object arrays",
    ),
    # ----------------------------------------------------------- emulator
    # The fused kernel's float64 sites lean on the arena gate (raw samples
    # |x| <= 2**(w-1) are exact only for w <= 53) and on the per-site
    # 2**53 gates of FpgaStudentEmulator._plan_float64_routes.
    (
        _EMU,
        "FpgaStudentEmulator._plan_float64_routes",
        "1 << fmt.word_length - 1",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="in-range magnitude 2**(w-1) as a Python scalar",
    ),
    (_EMU, "FpgaStudentEmulator._plan_float64_routes", "window * in_range"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="adder-tree bound S * 2**(w-1) on Python scalars",
    ),
    (
        _EMU,
        "FpgaStudentEmulator._plan_float64_routes",
        "(2 if index == 0 else 1) * layer._mac_bound",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="dense bound on Python scalars (_mac_bound is a Python int)",
    ),
    (_EMU, "FpgaStudentEmulator._run", "start + _BATCH_CHUNK"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="chunk index arithmetic on Python scalars",
    ),
    (_EMU, "FpgaStudentEmulator._run", "stop - start"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="chunk length on Python scalars",
    ),
    (
        _EMU,
        "FpgaStudentEmulator._fill_arena",
        "np.multiply(carrier, fmt.scale, out=arena)",
    ): SiteProof(
        kind="adc",
        worst_bits=0,
        note=(
            "the ADC: float traces times 2**f, an exact power-of-two scaling; "
            "rint and the saturating clip follow before any integer exists"
        ),
    ),
    (_EMU, "FpgaStudentEmulator._fill_arena", "carrier.dtype.itemsize * 8"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="carrier bit width on Python scalars",
    ),
    (_EMU, "FpgaStudentEmulator._reduce_arena", "n_intervals * window"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="window-count arithmetic on Python scalars",
    ),
    (
        _EMU,
        "FpgaStudentEmulator._reduce_arena",
        "usable.reshape(n_shots * n_intervals, -1) @ self._sum_matrix",
    ): SiteProof(
        kind="float64-exact",
        worst_bits=53,
        note=(
            "adder tree: arena samples are integers |x| <= 2**(w-1) and the "
            "summing matrix is 0/1, so every partial sum is bounded by "
            "S * 2**(w-1), which the route admits only below 2**53"
        ),
        requires=(
            "float_arena = fmt.word_length <= 53",
            "window * in_range < _FLOAT64_EXACT",
            "if self._sums_in_float64:",
        ),
    ),
    (
        _EMU,
        "FpgaStudentEmulator._reduce_arena",
        "np.add.reduceat(usable, boundaries, axis=1)",
    ): SiteProof(
        kind="float64-exact",
        worst_bits=53,
        note="same adder tree as the summing-matrix variant: < S * 2**(w-1) < 2**53",
        requires=(
            "float_arena = fmt.word_length <= 53",
            "window * in_range < _FLOAT64_EXACT",
            "if self._sums_in_float64:",
        ),
    ),
    (
        _EMU,
        "FpgaStudentEmulator._reduce_arena",
        "arena[:, :n_envelope].reshape(n_shots, -1) @ self._envelope",
    ): SiteProof(
        kind="float64-exact",
        worst_bits=53,
        note=(
            "MF MAC: in-range integer samples times integer envelope taps; "
            "every partial sum is bounded by the module's _mac_bound "
            "(sum|envelope| * 2**(w-1)), which the route admits only below 2**53"
        ),
        requires=(
            "float_arena = fmt.word_length <= 53",
            "mf._mac_bound < _FLOAT64_EXACT",
            "if self._envelope is not None:",
        ),
    ),
    (
        _EMU,
        "FpgaStudentEmulator._exact_product",
        "inputs.astype(np.float64) @ weights",
    ): SiteProof(
        kind="float64-exact",
        worst_bits=53,
        note=(
            "dense MAC: every partial sum is bounded by sum|w| * max|input|; "
            "hidden-layer inputs are in range (bound = _mac_bound), first-layer "
            "normalized features reach 2**w (bound = 2 * _mac_bound), and the "
            "route admits a layer only when that bound is below 2**53"
        ),
        requires=(
            "(2 if index == 0 else 1) * layer._mac_bound < _FLOAT64_EXACT",
            "if weights is None:",
        ),
    ),
    (
        _EMU,
        "FpgaStudentEmulator._features_chunk",
        "fmt.multiply(averaged, np.int64(self.average.reciprocal_raw))",
    ): SiteProof(
        kind="gated",
        worst_bits=40,
        note=(
            "the float64 adder-tree route requires the module's _scale_exactly "
            "(S <= 2**guard), so |sums| <= 2**39 sits inside the fast "
            "multiply's guard headroom, as in AverageModule.forward"
        ),
        requires=("(window == 1 or self.average._scale_exactly)",),
    ),
    (_EMU, "FpgaStudentEmulator._features_chunk", "scores -= mf.threshold_raw"): SiteProof(
        kind="bounded",
        worst_bits=33,
        note="saturated MAC output minus in-range threshold: <= 2**31 + 2**31",
    ),
    (
        _EMU,
        "FpgaStudentEmulator._features_chunk",
        "fmt.multiply(scores, np.int64(mf.scale_reciprocal_raw))",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note=(
            "operands are <= 2**32 (offset scores) and <= 2**31 (reciprocal), "
            "both inside the 2**39 fast-multiply guard headroom"
        ),
    ),
    (_EMU, "FpgaStudentEmulator._logits_chunk", "activations += layer.biases_raw"): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "float64-exact product < 2**53, shifted right by f, plus an "
            "in-range bias <= 2**61 (w <= 62): < 2**62"
        ),
    ),
    # -------------------------------------------------------- fixed_point
    (
        _FXP,
        "FixedPointFormat.add",
        "np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note=(
            "in-range operands: <= 2 * 2**(w-1) = 2**w; 2**32 for Q16.16 and "
            "at most 2**62 for the widest legal format (w <= 62)"
        ),
    ),
    (_FXP, "FixedPointFormat.multiply", "a * b"): SiteProof(
        kind="planned",
        worst_bits=63,
        note=(
            "direct mode is selected by _plan_multiply only when "
            "2*(w-1+guard) <= 62, so |a*b| <= 2**62 for operands within the "
            "guard headroom (Q16.16 uses limb mode; this branch serves "
            "narrow formats)"
        ),
        requires=("direct_guard = (_INT64_SAFE_BITS - 2 * (w - 1)) // 2",),
    ),
    (_FXP, "FixedPointFormat.multiply", "self.scale - 1"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="limb mask construction on Python scalars",
    ),
    (_FXP, "FixedPointFormat.multiply", "big * lo"): SiteProof(
        kind="bounded",
        worst_bits=56,
        note=(
            "low-limb partial: |big| <= 2**(w-1+guard) = 2**39 and "
            "0 <= lo < 2**16, so |big*lo| < 2**55"
        ),
    ),
    (_FXP, "FixedPointFormat.multiply", "result += big * hi"): SiteProof(
        kind="bounded",
        worst_bits=63,
        note=(
            "high-limb accumulate: |big*hi| <= 2**39 * 2**23 = 2**62 plus the "
            "shifted low partial <= 2**39; 2**62 + 2**39 < 2**63 exactly as "
            "_plan_multiply's limb_guard equation requires"
        ),
        requires=("limb_guard = min(",),
    ),
    (_FXP, "FixedPointFormat.multiply", "lo * big"): SiteProof(
        kind="bounded",
        worst_bits=56,
        note="array low-limb partial, same bound as the scalar split: < 2**55",
    ),
    (_FXP, "FixedPointFormat.multiply", "result += hi * big"): SiteProof(
        kind="bounded",
        worst_bits=63,
        note="array high-limb accumulate: 2**62 + 2**39 < 2**63 (see scalar split)",
        requires=("limb_guard = min(",),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_exact_reference",
        "a.astype(object) * b.astype(object)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="the big-integer oracle: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply",
        "self.multiply_exact_reference(a, b, strict=strict)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="reference-mode fallback: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.mac_static_bound",
        "abs_sum * (1 << self.word_length - 1)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="bound computation on Python scalars (abs_sum is a Python int)",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "max_abs_input * max_abs_weight * max(n, 1)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="dynamic bound probe on Python scalars",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "1 << _INT64_SAFE_BITS",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="the 2**62 gate threshold itself (a Python scalar)",
    ),
    (_FXP, "FixedPointFormat.multiply_accumulate", "inputs @ weights"): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "every partial sum is bounded by static_bound (callers pass "
            "mac_static_bound or it is probed above); the int64 matmul runs "
            "only when static_bound < 2**62"
        ),
        requires=("static_bound < (1 << _INT64_SAFE_BITS)",),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "self.multiply_accumulate_exact_reference(inputs, weights, bias=bias, strict=strict)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="over-bound MACs reroute here: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "accumulator += int(bias)",
    ): SiteProof(
        kind="bounded",
        worst_bits=47,
        note=(
            "post-shift accumulator <= 2**(62-16) = 2**46 plus an in-range "
            "raw bias <= 2**31: < 2**47 (callers pass quantized biases)"
        ),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate_exact_reference",
        "inputs.astype(object) * weights.astype(object)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="the big-integer MAC oracle: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate_exact_reference",
        "int(v) // self.scale + int(bias)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="per-element shift+bias on Python scalars",
    ),
}


@dataclass
class _Site:
    path: str
    where: str
    expr: str
    line: int
    col: int


class _SiteCollector(ast.NodeVisitor):
    """Collect topmost arithmetic nodes (no descent into a recorded site)."""

    def __init__(self, path: str, where: str) -> None:
        self.path = path
        self.where = where
        self.sites: list[_Site] = []

    def _record(self, node: ast.AST) -> None:
        self.sites.append(
            _Site(
                path=self.path,
                where=self.where,
                expr=ast.unparse(node),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _TRACKED_OPS):
            self._record(node)
            return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, _TRACKED_OPS):
            self._record(node)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None and name.rsplit(".", 1)[-1] in _ARITH_CALLS:
            self._record(node)
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own scope entry if listed

    visit_AsyncFunctionDef = visit_FunctionDef


class OverflowChecker:
    """Require a reviewed int64 bound for every datapath arithmetic site."""

    name = "overflow"
    rules = (RULE_UNPROVEN, RULE_OVERFLOW, RULE_STALE)

    def __init__(
        self,
        scope: dict[str, frozenset[str]] | None = None,
        proofs: dict[tuple[str, str, str], SiteProof] | None = None,
    ) -> None:
        self.scope = OVERFLOW_SCOPE if scope is None else scope
        self.proofs = PROOFS if proofs is None else proofs
        #: Exported per-site report (filled by :meth:`run`).
        self.site_report: list[dict] = []

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        self.site_report = []
        matched_keys: set[tuple[str, str, str]] = set()
        for path, functions in self.scope.items():
            module = project.get(path)
            if module is None:
                continue
            seen: set[str] = set()
            for qualname, node in iter_functions(module.tree):
                if qualname not in functions:
                    continue
                seen.add(qualname)
                collector = _SiteCollector(path, qualname)
                for stmt in node.body:
                    collector.visit(stmt)
                for site in collector.sites:
                    findings.extend(self._judge(site, project, matched_keys))
            for qualname in functions - seen:
                findings.append(
                    Finding(
                        rule=RULE_STALE,
                        path=path,
                        line=1,
                        col=0,
                        message=(
                            f"scoped function {qualname} not found; update "
                            "repro.lint.overflow.OVERFLOW_SCOPE"
                        ),
                    )
                )
        for key, proof in self.proofs.items():
            path, where, expr = key
            if key not in matched_keys and project.get(path) is not None:
                findings.append(
                    Finding(
                        rule=RULE_STALE,
                        path=path,
                        line=1,
                        col=0,
                        message=(
                            f"stale overflow proof for '{expr}' in {where}: "
                            "no matching arithmetic site (remove or update "
                            "the PROOFS entry)"
                        ),
                    )
                )
        return findings

    def _judge(
        self, site: _Site, project: Project, matched_keys: set[tuple[str, str, str]]
    ) -> list[Finding]:
        key = (site.path, site.where, site.expr)
        proof = self.proofs.get(key)
        if proof is None:
            return [
                Finding(
                    rule=RULE_UNPROVEN,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"no overflow proof for '{site.expr}' in {site.where}; "
                        "bound the int64 intermediates and register the proof "
                        "in repro.lint.overflow.PROOFS"
                    ),
                )
            ]
        matched_keys.add(key)
        findings: list[Finding] = []
        for fragment in proof.requires:
            if "::" in fragment:
                gate_path, fragment = fragment.split("::", 1)
            else:
                gate_path = site.path
            gate_module = project.get(gate_path)
            if gate_module is None or fragment not in gate_module.source:
                findings.append(
                    Finding(
                        rule=RULE_UNPROVEN,
                        path=site.path,
                        line=site.line,
                        col=site.col,
                        message=(
                            f"overflow proof for '{site.expr}' in {site.where} "
                            f"relies on the gate '{fragment}', which is gone; "
                            "re-prove the bound"
                        ),
                    )
                )
        if proof.worst_bits > proof.limit_bits:
            carrier = "float64 exactly" if proof.kind == "float64-exact" else "int64"
            findings.append(
                Finding(
                    rule=RULE_OVERFLOW,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"worst-case magnitude 2**{proof.worst_bits - 1} at "
                        f"'{site.expr}' in {site.where} does not fit {carrier}"
                    ),
                )
            )
        self.site_report.append(
            {
                "path": site.path,
                "where": site.where,
                "line": site.line,
                "expr": site.expr,
                "kind": proof.kind,
                "worst_bits": proof.worst_bits,
                "headroom_bits": proof.headroom_bits,
                "status": "proven" if not findings else "violated",
                "note": proof.note,
            }
        )
        return findings
