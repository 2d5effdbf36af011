"""The README's library quick start runs as written."""

import re
import warnings
from pathlib import Path

from srirkit.errors import TruncatedResponseWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    with warnings.catch_warnings():
        # max_order 30 in a 0.4 s buffer drops the latest arrivals, as in the benchmark
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        exec(compile(block, str(README), "exec"), {})
    assert "MetricReport(" in capsys.readouterr().out
