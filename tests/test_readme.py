"""The Python code of README.md runs as written, so the documented API cannot drift,
and the dependency floor it states is the one pyproject.toml declares."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_numpy_floor_has_what_src_calls():
    # src/ calls np.trapezoid and passes out= to numpy.fft, both new in numpy 2.0.
    # pyproject.toml is read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    floor = re.search(r'"numpy>=([0-9.]+)"', deps).group(1)
    assert tuple(int(part) for part in floor.split(".")) >= (2, 0)
    assert f"`numpy` {floor} or later" in README.read_text(encoding="utf-8")
