"""What ``src/`` may be: a line budget, two import-layering rules, and no
shipped kernel oracles.

ROADMAP's subtraction item wants ``src/`` under 13 000 lines; the budget
here is the ratchet that keeps it from drifting the other way.  A PR that
needs more raises ``SRC_LINE_BUDGET`` in its own diff, where review sees
it; a PR that deletes code lowers it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``find src -name '*.py' | xargs wc -l`` total, rounded up to the next 50
SRC_LINE_BUDGET = 14_500

#: library packages: importable without the table/figure harnesses
LIBRARY = ("core", "rns", "poly", "fhe", "dsl", "compiler", "sim", "serve",
           "net", "obs")


def test_src_stays_within_its_line_budget():
    total = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert total <= SRC_LINE_BUDGET, (
        f"src/ is {total} lines, over the {SRC_LINE_BUDGET} budget: delete "
        f"something, or raise SRC_LINE_BUDGET in this PR and say why"
    )


def _imported_modules(path: Path):
    """Every module a file imports, at any depth, as absolute dotted names."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            # ``from ..x import y`` in repro/net/ is ``from repro.x import y``
            parts = list(package[:len(package) - node.level + 1]
                         if node.level else ())
            if node.module:
                parts.append(node.module)
            module = ".".join(parts)
            yield node.lineno, module
            for alias in node.names:   # ``from repro import bench``
                yield node.lineno, f"{module}.{alias.name}"


def test_library_packages_never_import_the_bench_harnesses():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} imports {module}"
        for package in LIBRARY
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for lineno, module in _imported_modules(path)
        if module == "repro.bench" or module.startswith("repro.bench.")
    ]
    assert not offenders, "\n".join(offenders)


def test_kernel_oracles_live_in_tests():
    """Big-int reference kernels are test code (``tests/kernel_oracles.py``):
    no function named ``*_reference`` or ``*_exact`` ships in the engine."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} defines {node.name}"
        for package in ("poly", "rns", "fhe")
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith(("_reference", "_exact"))
    ]
    assert not offenders, "\n".join(offenders)


def test_a_replica_never_embeds_a_coordinator():
    """A worker is one process behind one connection: ``repro.net.worker``
    imports nothing from the coordinator in ``repro.net.remote``."""
    offenders = [
        f"line {lineno} imports {module}"
        for lineno, module in _imported_modules(
            SRC / "repro" / "net" / "worker.py")
        if module == "repro.net.remote" or module.startswith("repro.net.remote.")
    ]
    assert not offenders, "\n".join(offenders)
