"""README's library example runs as written and prints what its comments
say, and the package exports exactly the names README documents."""

import ast
import re
from pathlib import Path

import hermicert

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = {
    "ApproxRootSet",
    "BallQuery",
    "CertificationOutcome",
    "HermitePlus",
    "MonomialBasis",
    "NonnegQuery",
    "PolySystem",
    "ball_from_outcome",
    "build_hermite",
    "certify_ball",
    "certify_nonneg",
    "certify_nonradical",
    "certify_pipeline",
    "derive_hg",
    "parse_poly",
    "signature",
    "KERNEL_BACKEND",
    "__version__",
}


def library_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    return block


def test_readme_library_example(capsys):
    block = library_example()
    # the value each print shows is its comment up to an explanatory ": ..."
    expected = [
        line.split("#", 1)[1].split(":", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["2 0", "2", "true 2 0", "true"]
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == expected


def test_package_exports_the_documented_api():
    assert len(hermicert.__all__) == len(EXPORTED) == 18
    assert set(hermicert.__all__) == EXPORTED
    for name in hermicert.__all__:
        getattr(hermicert, name)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "hermicert"
        for alias in node.names
    }
    assert imported and imported <= EXPORTED
