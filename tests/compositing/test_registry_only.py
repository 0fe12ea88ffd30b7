"""The backend registry is the only compositing entry point.

Every frame composites through ``get_backend(name).compose``.  The
algorithm modules' free functions are the backends' implementation:
no module outside :mod:`repro.compositing` imports them, and the
package does not re-export them.  Tests still import them from their
algorithm modules to exercise each scheme directly.
"""

import ast
from pathlib import Path

import repro.compositing

PACKAGE = Path(repro.compositing.__file__).parent
SRC = PACKAGE.parent

#: The modules holding one compositing scheme's communication pattern.
ALGORITHM_MODULES = {
    f"repro.compositing.{name}"
    for name in ("directsend", "dfb", "puzzlepiece", "binaryswap", "radixk", "serial")
}

#: The free compose/gather functions the backends drive.
FREE_FUNCTIONS = {
    "direct_send_compose",
    "direct_send_compose_failover",
    "assemble_final_image",
    "assemble_tiles",
    "binary_swap_compose",
    "binary_swap_gather",
    "radix_k_compose",
    "radix_k_gather",
    "serial_compose",
    "dfb_compose",
    "dfb_compose_failover",
    "puzzlepiece_compose",
}


def _imports(path: Path):
    """(module, name) for every import in a source file; name is None
    for a plain ``import module``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def _offenders(paths, any_name=True):
    """Imports of algorithm functions (or, with ``any_name``, of
    anything from an algorithm module) in ``paths``."""
    bad = []
    for path in paths:
        for module, name in _imports(path):
            from_algorithm = module in ALGORITHM_MODULES and (
                any_name or name in FREE_FUNCTIONS
            )
            if from_algorithm or (module == "repro.compositing" and name in FREE_FUNCTIONS):
                bad.append(f"{path.relative_to(SRC)}: {module}.{name or '*'}")
    return bad


def test_no_module_outside_compositing_imports_an_algorithm():
    outside = [p for p in SRC.rglob("*.py") if PACKAGE not in p.parents]
    assert outside, "no source files found"
    assert _offenders(outside) == []


def test_package_exports_no_free_compose_function():
    assert not FREE_FUNCTIONS & set(repro.compositing.__all__)
    assert not FREE_FUNCTIONS & set(vars(repro.compositing))


def test_only_backends_imports_the_algorithms_inside_the_package():
    """Within the package, the registry is the algorithms' one caller
    (the algorithm modules may share helpers among themselves)."""
    others = [
        p for p in PACKAGE.glob("*.py")
        if p.name != "backends.py"
        and f"repro.compositing.{p.stem}" not in ALGORITHM_MODULES
    ]
    assert others
    assert _offenders(others, any_name=False) == []
