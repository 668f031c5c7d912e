"""Source hygiene: correctness checks must survive `python -O`, and every
name the bench tracer patches must exist."""

import ast
from pathlib import Path
import runpy

import thermalcap
import thermalcap.cli  # noqa: F401  (the tracer patches `cli` names)


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the package raises explicit exceptions instead.
    sources = sorted(Path(thermalcap.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_bench_tracer_targets_exist():
    # The bench tracer patches package names from outside, `chi_opt`'s
    # imports of `fock_oracle` functions among them; a refactor that
    # drops one would break traced bench runs without failing a test.
    # The tracer is run from its source, so nothing is written under bench/.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    targets = runpy.run_path(str(tracer))["targets"]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, _, owners, attr, _ in targets(thermalcap)
        for owner in owners
        if not hasattr(owner, attr)
    ]
    assert not missing, f"names the bench tracer patches are gone: {', '.join(missing)}"
