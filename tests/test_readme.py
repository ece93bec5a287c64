"""README's library-use example runs as written, so the docs follow the API."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    # The round's estimate and interval, the audit census, then one estimate
    # per weighting scheme over the one site phase.
    assert "'n_messages': 5" in lines[1]
    assert [line.split()[0] for line in lines[2:]] == ["ss", "ivw", "mr_l1"]
