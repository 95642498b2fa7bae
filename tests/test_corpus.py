"""The byte-identity corpus: CLI calls and a library slice, replayed.

`assets/corpus.json` holds, as recorded at one commit:
- "cli": per seed (1 and 7919), the input files of the bench's
  `cli_requests` workload and every call of it, in order, with its exit
  code, stdout and stderr;
- "library": results the CLI does not reach, as JSON text: theta and
  delta of `group_kite_bundle(2)` and `(3)`; `solve_m`,
  `pregroupoid_solutions` and `kite5_pairing` at caps 0, 1 and 1000 on
  fixed spans; and `check_local_product_intrinsic` with its relabelling
  on seeded split cospans, intact and with one entry changed.

Any change to one of these outputs, however small, fails here and names
the first entry that differs.  A change made on purpose re-records the
asset, from the repository root, with

    PYTHONPATH=src python tests/test_corpus.py

and CHANGES.md names each entry that changed and why.
"""
import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from finkite.cli import main
from finkite.finmaps import FinMap
from finkite.gallery import group_kite_bundle, group_pair_span
from finkite.internal import Span, kite_from_span
from finkite.kitecond import (assemble_kite, delta_identity_check,
                              kite5_pairing, pregroupoid_solutions, solve_m,
                              theta)
from finkite.limits import (SplitCospan, check_local_product_intrinsic,
                            local_product)

ASSET = Path(__file__).parent / "assets" / "corpus.json"
SEEDS = (1, 7919)


def cli_call(argv):
    """cli.main with stdout and stderr captured: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _span(d, c, n):
    return Span(FinMap(len(d), n, tuple(d)), FinMap(len(c), n, tuple(c)))


def spans():
    """Kernel-pair spans: the README's pair span, Z_2 and Z_3 pair spans,
    terminal spans of 2 and 3 points, and two relations on 3 points, one
    difunctional and one not."""
    return {
        "pair": _span([0, 0, 1, 1], [0, 1, 0, 1], 2),
        "group2": group_pair_span(2),
        "group3": group_pair_span(3),
        "terminal2": _span([0, 0], [0, 0], 1),
        "terminal3": _span([0, 0, 0], [0, 0, 0], 1),
        "difunctional": _span([0, 1, 1, 2], [0, 1, 2, 2], 3),
        "zigzag": _span([0, 0, 1], [0, 1, 1], 3),
    }


def _solve(res):
    return {"count": res.count, "truncated": res.truncated,
            "solutions": [list(s.table) for s in res.solutions],
            "report": res.report.to_json()}


def _split_cospan(rng, B):
    """A random split cospan over B, with A and C between B and 2B."""
    maps = []
    for _ in range(2):
        a = rng.randint(B, 2 * B)
        section = rng.sample(range(a), B)
        f = [rng.randrange(B) for _ in range(a)]
        for b, x in enumerate(section):
            f[x] = b
        maps += [FinMap(a, B, tuple(f)), FinMap(B, a, tuple(section))]
    return SplitCospan(*maps)


def _lp_checks():
    """check_local_product_intrinsic on 40 seeded local products, every
    other one with a single entry of one map changed."""
    rng, out = random.Random(2024), []
    for i in range(40):
        lp = local_product(_split_cospan(rng, rng.randint(1, 3)))
        maps = [lp.p1, lp.p2, lp.e1, lp.e2]
        if i % 2 and lp.E:
            j = rng.randrange(4)
            m = maps[j]
            table = list(m.table)
            table[rng.randrange(m.dom)] = rng.randrange(m.cod)
            maps[j] = FinMap(m.dom, m.cod, tuple(table))
        res = check_local_product_intrinsic(*maps)
        out.append({"maps": [list(m.table) for m in maps],
                    "report": res.report.to_json(),
                    "relabel": None if res.relabel is None
                    else list(res.relabel.table)})
    return out


def library_slice():
    """The library results of the corpus, in a fixed order, as JSON."""
    out = {}
    for n in (2, 3):
        kd, mu, mu_e = group_kite_bundle(n)
        th = theta(kd, mu)
        out[f"theta/group{n}"] = json.dumps(
            {"theta": list(th.theta.table), "m": list(th.m.table),
             "delta": delta_identity_check(kd, mu_e).to_json()})
    for name, span in spans().items():
        kd, _ = assemble_kite(kite_from_span(span))
        for cap in (0, 1, 1000):
            out[f"solve/{name}/{cap}"] = json.dumps(
                {"solve_m": _solve(solve_m(kd, cap)),
                 "pregroupoid": _solve(pregroupoid_solutions(span, cap)),
                 "kite5": kite5_pairing(span, cap).to_json()})
    out["lp-check"] = json.dumps(_lp_checks())
    return out


def replay_cli(group):
    """Write the group's files into the current directory and run its
    calls in order; the first call whose outcome differs, or None."""
    for name, text in group["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    for call in group["calls"]:
        got = dict(zip(("exit", "stdout", "stderr"), cli_call(call["argv"])))
        if got != {k: call[k] for k in got}:
            return call["argv"], got
    return None


def test_cli_calls_are_byte_identical(tmp_path, monkeypatch):
    corpus = json.loads(ASSET.read_text(encoding="utf-8"))
    for seed, group in zip(SEEDS, corpus["cli"]):
        work = tmp_path / str(seed)
        work.mkdir()
        monkeypatch.chdir(work)
        assert group["seed"] == seed
        assert replay_cli(group) is None, seed


def test_library_slice_is_byte_identical():
    want = json.loads(ASSET.read_text(encoding="utf-8"))["library"]
    got = library_slice()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def record() -> None:
    """Re-record the asset from the bench's `cli_requests` workload and
    the library slice above, with this checkout's finkite."""
    import tempfile
    from types import SimpleNamespace

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "bench"))
    import finkite.algebra
    import finkite.cli
    import workloads

    m = SimpleNamespace(algebra=finkite.algebra, cli=finkite.cli)
    groups = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            ops = workloads.cli_requests(
                m, random.Random(f"cli_requests/{seed}"), "full", "")
            files = {name: Path(name).read_text(encoding="utf-8")
                     for name in sorted(os.listdir("."))}
            calls, generate = [], workloads.cli_call
            # each op's run looks `cli_call` up when it runs
            workloads.cli_call = lambda _, argv: calls.append(
                dict(zip(("argv", "exit", "stdout", "stderr"),
                         (list(argv),) + cli_call(argv))))
            for op in ops:
                op.run()
            workloads.cli_call = generate
            os.chdir(root)
        groups.append({"seed": seed, "files": files, "calls": calls})
    ASSET.write_text(json.dumps({"cli": groups, "library": library_slice()},
                                indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
