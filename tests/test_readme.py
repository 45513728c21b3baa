"""The README's Python example runs as written, with its sweep counts shrunk."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SWEEPS = "M=10000, burnin=2000"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert SWEEPS in code
    namespace: dict = {}
    exec(compile(code.replace(SWEEPS, "M=60, burnin=20"), str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.Z.shape == (30, 40)
    assert len(result.Zt) == 30
    assert result.pmin_vec.shape == (30,)
