"""The Python examples of README.md run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_pass():
    # each block ends at its closing fence, which plain `python -m doctest`
    # would read as expected output
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    results = [
        runner.run(parser.get_doctest(block, {}, f"README.md block {i}", str(README), 0))
        for i, block in enumerate(blocks)
    ]
    assert blocks and all(r.attempted for r in results)
    assert sum(r.failed for r in results) == 0
