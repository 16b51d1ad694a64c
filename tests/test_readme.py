"""README's python examples run as written: its ```python blocks, in
order, in one namespace, as a reader pasting them into one session would
(later blocks use the matrix A that the first block builds)."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"), namespace)
    assert "A" in namespace and "trace" in namespace
