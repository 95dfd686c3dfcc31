"""The ``REPRO_SIM_KERNEL`` backend selector.

The backend is chosen once, at ``repro.sim.kernel`` import time, so
every scenario runs in a fresh subprocess with a controlled
environment.  The contract under test:

- ``optimized`` (and unset) binds the heap kernel;
- ``reference`` binds the witness behind the same API surface
  (``wheel_stats``, the ``profile`` keyword) and produces
  byte-identical trace digests;
- anything else fails fast with ``RuntimeError``.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_PROBE = r"""
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.sim import kernel
sim = kernel.Simulator()
sim.schedule(0.25, lambda: None)
sim.run()
print(json.dumps({
    "active": kernel.active_backend(),
    "requested": kernel.requested_backend(),
    "digest": sim.fingerprint(),
    "stats_empty": sim.wheel_stats() == {},
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
}))
"""


def _probe(backend=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SIM_KERNEL", None)
    if backend is not None:
        env["REPRO_SIM_KERNEL"] = backend
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          capture_output=True, text=True, env=env)
    return proc, (json.loads(proc.stdout.strip().splitlines()[-1])
                  if proc.returncode == 0 else None)


def test_default_backend_is_optimized():
    proc, probe = _probe()
    assert proc.returncode == 0, proc.stderr
    assert probe["active"] == probe["requested"] == "optimized"
    assert not probe["warnings"]
    assert probe["stats_empty"]


def test_reference_backend_selected_and_digest_identical():
    ref_proc, ref = _probe("reference")
    opt_proc, opt = _probe("optimized")
    assert ref_proc.returncode == 0, ref_proc.stderr
    assert opt_proc.returncode == 0, opt_proc.stderr
    assert ref["active"] == ref["requested"] == "reference"
    assert opt["active"] == "optimized"
    # Neither backend has a timer wheel; both stats read as empty.
    assert ref["stats_empty"] and opt["stats_empty"]
    # Same program, same bytes: the backend is invisible to traces.
    assert ref["digest"] == opt["digest"]
    assert not ref["warnings"]


def test_invalid_backend_fails_fast():
    for backend in ("turbo", "compiled"):
        proc, __ = _probe(backend)
        assert proc.returncode != 0
        assert "REPRO_SIM_KERNEL" in proc.stderr
        assert backend in proc.stderr
