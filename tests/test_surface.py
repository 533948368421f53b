"""The public surface: every function in ``l1subspace.__all__`` is there
because a command, a demo or a benchmark workload runs it.

A name counts as used when the command line, a demo or the benchmark's
workloads name it in their source, or when the benchmark's tracer lists it
in ``LAYERS``, which it rebinds by name.  The sources are read with ``ast``,
never imported.  The command line's failure rule is read the same way: one
boundary turns library errors into exit codes.  So is the scalar rule: only
``core`` says what a number or a count is.  So are the closing figures:
``check`` takes them from the function ``solve`` closes with.
"""

import ast
import inspect
from pathlib import Path

import l1subspace

ROOT = Path(__file__).resolve().parents[1]


def _named_in(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _layer_names(path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return {
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            }
    raise AssertionError(f"{path} defines no LAYERS")


def test_every_public_function_is_run_by_a_command_demo_or_workload():
    sources = [ROOT / "src" / "l1subspace" / "cli.py", ROOT / "perfbench" / "workloads.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    used = _layer_names(ROOT / "perfbench" / "tracer.py")
    for path in sources:
        used |= _named_in(path)
    functions = [
        name for name in l1subspace.__all__ if inspect.isfunction(getattr(l1subspace, name))
    ]
    assert functions
    unused = sorted(set(functions) - used)
    assert not unused, f"public functions no command, demo or workload runs: {unused}"


def test_cli_maps_library_errors_at_one_boundary():
    # an except clause that raises CliError restates _fails_as; parse_trace_csv
    # keeps its own, whose message leaves out the error text
    path = ROOT / "src" / "l1subspace" / "cli.py"
    exempt = {"_fails_as", "parse_trace_csv", "main"}
    restated = [
        f"{function.name}:{handler.lineno}"
        for function in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(function, ast.FunctionDef) and function.name not in exempt
        for handler in ast.walk(function)
        if isinstance(handler, ast.ExceptHandler)
        and any(
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "CliError"
            for node in ast.walk(handler)
        )
    ]
    assert not restated, f"except clauses that raise CliError outside _fails_as: {restated}"


def _isinstance_types(node):
    """The type names an ``isinstance`` call, or its negation, tests; None for other nodes."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2):
        return None
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return {getattr(kind, "id", None) or getattr(kind, "attr", None) for kind in kinds}


def test_only_core_spells_the_scalar_rule():
    # what counts as a number or a count, a bool being neither, is decided in
    # core alone; every other module calls its predicates and range checks
    spelled = set()
    for path in sorted((ROOT / "src" / "l1subspace").glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            types = _isinstance_types(node)
            if types and "int" in types and types & {"float", "integer"}:
                spelled.add(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.BoolOp):
                tested = [_isinstance_types(value) or set() for value in node.values]
                if any(t & {"bool", "bool_"} for t in tested) and any(
                    t & {"int", "integer"} for t in tested
                ):
                    spelled.add(f"{path.name}:{node.lineno}")
    assert not spelled, f"scalar rules written outside core: {sorted(spelled)}"


def test_closing_figures_have_one_path():
    # check takes the stale signs, the alpha test, l(Q) and the residual from
    # solvers._closing, as solve does, not from the public one-figure wrappers
    cli_names = _named_in(ROOT / "src" / "l1subspace" / "cli.py")
    wrappers = {"check_alpha_condition", "criticality_residual", "objective_l"}
    assert not cli_names & wrappers, f"cli.py names {sorted(cli_names & wrappers)}"
    assert "_closing" in cli_names
    sources = sorted((ROOT / "src" / "l1subspace").glob("*.py"))
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources += sorted((ROOT / "tests").glob("*.py"))
    naming = [path.name for path in sources if "sign_mismatch" in _named_in(path)]
    assert not naming, f"sign_mismatch is named in {naming}"
    assert not hasattr(l1subspace.solvers, "sign_mismatch")
    assert "sign_mismatch" not in l1subspace.__all__
