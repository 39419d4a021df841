"""The benchmark's tracer still sees the stepper's work.

perfbench/tracing.py counts steps by wrapping the module attribute
viscoplate.dynamics.step, and Newton work by wrapping residual,
inertia_mass, cho_factor and cho_solve there, so the stepper has to call
all five through the module's globals.  `tracing.install` rebinds those
attributes for good, so the check runs in a child interpreter, which
writes no bytecode under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import viscoplate

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, os, sys
sys.path.insert(0, {perfbench!r})
import tracing
from viscoplate import cli
from viscoplate.scenario import PRESETS, with_overrides

tracer = tracing.Tracer()
tracing.install(tracer)
out = {{}}
for name in ("exp-linear", "power-steep-cubic"):
    tracer.spans.clear()
    tracer.counts.clear()
    scn = with_overrides(PRESETS[name], T=0.5, out_dir=os.path.join({tmp!r}, name))
    _, code = cli.run_scenario(scn)
    out[name] = dict(tracing.layer_metrics(tracer, scn.out_dir), code=code, nesting=tracer.check_nesting())
print(json.dumps(out))
"""


def test_tracer_counts_steps_and_newton_work(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscoplate.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(perfbench=str(ROOT / "perfbench"), tmp=str(tmp_path))],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    for name, m in runs.items():
        assert m["code"] == 0, name
        assert m["dynamics.steps"] == 50, name
        for key in ("dynamics.residual_calls", "dynamics.jacobian_calls", "dynamics.factor_calls"):
            assert m[key] >= 1, (name, key)
        assert m["nesting"]["ok"], name
