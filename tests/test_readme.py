"""The >>> examples in README.md run as written, in order, in one namespace."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    # only the fenced python blocks: a whole-file doctest would read each
    # closing fence as expected output
    blocks = [b for b in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
              if ">>>" in b]
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md",
                                                str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert len(blocks) >= 3 and result.failed == 0
