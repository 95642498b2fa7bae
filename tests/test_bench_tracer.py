"""The bench tracer reports hot spots by name ("kitecond.maltsev_mu").
A name that no longer matches a function the tracer wraps would read 0
in every per-layer metric built on it, so each name is checked against
a real installation of the tracer, in a fresh interpreter."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
mods = {layer: importlib.import_module("finkite." + layer)
        for layer in tracer.LAYERS}
t = tracer.Tracer()
t.install(mods)
# Every wrapper the tracer makes shares one code object.
traced = t._wrap("probe", "finmaps", len).__code__
names = (set(tracer.HOT_SELF) | set(tracer.HOT_CALLS)
         | set(tracer.YIELD_HOOKS) | set(tracer.YIELD_ATTEMPTS)
         | set(tracer.YIELD_ATTEMPTS.values()))
unwrapped = []
for name in sorted(names):
    layer, attr = name.split(".", 1)
    target = getattr(mods.get(layer), attr, None)
    if name == "finmaps.FinMap":
        target = getattr(target, "__post_init__", None)
    if getattr(target, "__code__", None) is not traced:
        unwrapped.append(name)
print(json.dumps({"names": len(names), "unwrapped": unwrapped}))
"""


def test_every_traced_name_is_wrapped_by_the_tracer():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(out.stdout)
    assert result["names"] > 0
    assert result["unwrapped"] == []
