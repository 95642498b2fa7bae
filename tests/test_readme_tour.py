"""The README CLI tour replayed through `cli.main`, byte for byte.

`assets/readme_tour.json` holds the README's input files and each tour
command in order, with the stdout and exit code it gave when recorded.
A step with "save_as" writes its stdout to that file for the steps after
it, as `finkite lp cospan.json > lp.json` does in the README.  Any
change to a tour report, however small, fails here; a change made on
purpose re-records the asset and says so in CHANGES.md.
"""
import json
from pathlib import Path

from finkite.cli import main

TOUR = json.loads((Path(__file__).parent / "assets" / "readme_tour.json")
                  .read_text(encoding="utf-8"))


def test_readme_tour_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in TOUR["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    for step in TOUR["steps"]:
        code = main(list(step["argv"]))
        out = capsys.readouterr().out
        assert (code, out) == (step["exit"], step["stdout"]), step["argv"]
        if "save_as" in step:
            Path(step["save_as"]).write_text(out, encoding="utf-8")
