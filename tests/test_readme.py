"""README examples: the quick start and the CLI blocks print what they show."""

import contextlib
import io
import json
import re
from pathlib import Path

from graphfair.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    """The bodies of README's code blocks fenced with ``lang``, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_quick_start_prints_its_comments():
    (block,) = fenced("python")
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected
    assert out.getvalue().splitlines() == expected


def test_cli_blocks_match_their_output(tmp_path, capsys):
    rooms, solved, mms_values, verified = (json.loads(b) for b in fenced("json"))
    path = tmp_path / "rooms.json"
    path.write_text(json.dumps(rooms), encoding="utf-8")
    split = re.search(r"`split\.json` is `(\{.*?\})`", README).group(1)
    split_path = tmp_path / "split.json"
    split_path.write_text(split, encoding="utf-8")

    code, out = run(capsys, ["solve", str(path), "--problem", "prop"])
    assert code == 0 and json.loads(out) == solved
    code, out = run(capsys, ["mms-values", str(path)])
    assert code == 0 and json.loads(out) == mms_values
    code, out = run(capsys, ["verify", str(path), str(split_path), "--mms"])
    assert code == 0 and json.loads(out) == verified
