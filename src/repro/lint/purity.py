"""Fixed-point purity: the integer datapath must not touch floats.

The paper's bit-exactness claim rests on everything after the ADC being
integer arithmetic.  This checker walks the fixed-point datapath files
(``repro/fpga/*``) and the raw-carrier entry points of ``repro/engine`` and
flags, outside the explicitly dequantizing functions registered in
:data:`PURITY_SCOPE`:

- float literals (``0.5``),
- true division (``/`` -- floor division and shifts are the hardware ops),
- any ``math.*`` call (libm is float by definition),
- float-producing numpy calls: ``np.mean``/``np.average``/``np.std``, float
  constructors (``np.float64(...)``, ``float(...)``), float casts
  (``.astype(np.float64)``, ``np.asarray(..., dtype=float)``), transcendental
  funcs, ``np.true_divide``, and float-defaulting allocators
  (``np.empty(shape)`` with no dtype defaults to float64).

Everything reports under the single rule id ``float-in-fpga`` so one pragma
vocabulary covers the whole family.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutil import call_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.runner import Project

__all__ = ["PurityChecker", "PurityScope", "PURITY_SCOPE", "RULE"]

RULE = "float-in-fpga"


@dataclass(frozen=True)
class PurityScope:
    """How one file participates in the purity check.

    ``mode``:
        ``"all"`` -- check every function except those named in ``allow``;
        ``"raw-only"`` -- check only the raw-carrier functions named in
        ``only`` (the rest of the file is float-side by design);
        ``"exempt"`` -- the whole file is a declared float<->fixed boundary
        (listed so the scope documents the decision instead of omitting it).
    """

    mode: str = "all"
    allow: frozenset[str] = frozenset()
    only: frozenset[str] = frozenset()
    reason: str = ""


#: Which files the datapath-purity rule covers and their dequantizing
#: exemptions.  Bare function names (not qualnames) keep entries readable;
#: none of the scoped files reuse a method name with a different float
#: contract.
PURITY_SCOPE: dict[str, PurityScope] = {
    # The arithmetic core: float conversions live only in the declared
    # conversion helpers.
    "src/repro/fpga/fixed_point.py": PurityScope(
        mode="all",
        allow=frozenset(
            {
                "to_raw",  # the quantizer itself
                "from_raw",  # the dequantizer itself
                "quantize",  # float in, float out by contract
                "representable",  # range check against float bounds
                "max_value",  # float view of max_raw
                "min_value",  # float view of min_raw
                "resolution",  # float LSB size
                "__str__",
            }
        ),
    ),
    # The emulated PL datapath blocks: pure integers, no exemptions.
    "src/repro/fpga/modules.py": PurityScope(mode="all"),
    # The emulator: float enters only through the ADC, the declared
    # float-facing entry points / comparison reports, and the float64 sites
    # of the fused kernel, whose operands are exact integers below 2**53
    # (each site carries a float64-exact proof in repro.lint.overflow).
    "src/repro/fpga/emulator.py": PurityScope(
        mode="all",
        allow=frozenset(
            {
                "_plan_float64_routes",  # float64 copies of gated weights
                "_exact_product",  # a gated dense layer's float64 product
                "features_raw",  # float traces in
                "predict_logits_raw",  # float traces in
                "predict_logits",  # dequantized logits out
                "fidelity",  # float metric
                "agreement_with_float",  # float comparison report
                "as_dict",  # report serialization
            }
        ),
    ),
    # Quantization is the float->fixed boundary by definition.
    "src/repro/fpga/quantize.py": PurityScope(
        mode="exempt", reason="the declared float->fixed conversion boundary"
    ),
    # Resource/latency/report models reason *about* the hardware in floats;
    # they never touch datapath values.
    "src/repro/fpga/resources.py": PurityScope(
        mode="exempt", reason="capacity model, not datapath arithmetic"
    ),
    "src/repro/fpga/latency.py": PurityScope(
        mode="exempt", reason="timing model, not datapath arithmetic"
    ),
    "src/repro/fpga/report.py": PurityScope(
        mode="exempt", reason="reporting/plots, not datapath arithmetic"
    ),
    # Engine raw-carrier paths: the *_from_raw entry points must stay
    # integer-only end to end; the float-facing engine API is out of scope.
    "src/repro/engine/backends.py": PurityScope(
        mode="raw-only",
        only=frozenset({"predict_logits_from_raw", "predict_states_from_raw"}),
    ),
    "src/repro/engine/engine.py": PurityScope(
        mode="raw-only",
        only=frozenset(
            {
                "discriminate_raw",
                "predict_logits_from_raw",
                "discriminate_all_raw",
                "predict_logits_all_raw",
            }
        ),
    ),
}

#: Dotted call names that produce floats no matter the arguments.
_FLOAT_CALLS = {
    "float",
    "np.mean",
    "np.average",
    "np.std",
    "np.var",
    "np.median",
    "np.float16",
    "np.float32",
    "np.float64",
    "np.double",
    "np.sqrt",
    "np.exp",
    "np.log",
    "np.log2",
    "np.log10",
    "np.sin",
    "np.cos",
    "np.tanh",
    "np.true_divide",
    "np.divide",
    "np.linspace",
    "math.sqrt",  # any math.* is flagged; named ones give better messages
}

#: Allocators whose dtype defaults to float64 when omitted.
_FLOAT_DEFAULT_ALLOCATORS = {"np.empty", "np.zeros", "np.ones", "np.full"}

#: dtype= arguments that name a float type.
_FLOAT_DTYPES = {"float", "np.float16", "np.float32", "np.float64", "np.double"}


def _dtype_is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("float")
    name = call_name(node) if isinstance(node, ast.Call) else None
    from repro.lint.astutil import dotted_name

    return (name or dotted_name(node)) in _FLOAT_DTYPES


class _FunctionVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=RULE,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self._flag(node, f"float literal {node.value!r} in the integer datapath")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self._flag(node, "true division produces floats; use // or a shift")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            root = name.split(".", 1)[0]
            if root == "math":
                self._flag(node, f"math.* is float-only: {name}()")
            elif name in _FLOAT_CALLS:
                self._flag(node, f"float-producing call {name}()")
            elif name in _FLOAT_DEFAULT_ALLOCATORS:
                dtype = next(
                    (kw.value for kw in node.keywords if kw.arg == "dtype"), None
                )
                if dtype is None and len(node.args) < 2:
                    self._flag(
                        node, f"{name}() without dtype= allocates float64"
                    )
                elif dtype is not None and _dtype_is_float(dtype):
                    self._flag(node, f"{name}() with a float dtype")
            elif name.endswith(".astype"):
                target = node.args[0] if node.args else None
                if target is not None and _dtype_is_float(target):
                    self._flag(node, "astype() to a float dtype")
        dtype_kw = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
        if dtype_kw is not None and _dtype_is_float(dtype_kw):
            if name not in _FLOAT_DEFAULT_ALLOCATORS:  # already flagged above
                self._flag(node, f"{name or 'call'}() with dtype=float")
        self.generic_visit(node)

    # Annotations describe the float-side API, not datapath values.
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_arguments(self, node: ast.arguments) -> None:
        for default in (*node.defaults, *node.kw_defaults):
            if default is not None:
                self.visit(default)

    # Nested defs are their own iter_functions entries; skipping them here
    # avoids double-reporting and lets the allow list apply to them too.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass


class PurityChecker:
    """Flag float leakage into the integer datapath (rule ``float-in-fpga``)."""

    name = "purity"
    rules = (RULE,)

    def __init__(self, scope: dict[str, PurityScope] | None = None) -> None:
        self.scope = PURITY_SCOPE if scope is None else scope

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for path, spec in self.scope.items():
            module = project.get(path)
            if module is None or spec.mode == "exempt":
                continue
            for qualname, node in iter_functions(module.tree):
                barename = qualname.rsplit(".", 1)[-1]
                if spec.mode == "raw-only":
                    if barename not in spec.only:
                        continue
                elif barename in spec.allow:
                    continue
                visitor = _FunctionVisitor(path)
                visitor.visit_arguments(node.args)
                for stmt in node.body:
                    visitor.visit(stmt)
                findings.extend(visitor.findings)
        return findings
