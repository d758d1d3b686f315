"""README's library example runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    # the value each print shows is its comment up to an explanatory ": ..."
    expected = [
        line.split("#", 1)[1].split(":", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["2 0", "2", "true 2 0", "true"]
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == expected
