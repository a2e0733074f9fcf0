"""Values computed at numpy's pinned SIMD dispatch level.

numpy's float64 exp, log and log1p round their last bits differently under
its AVX-512 kernels than under its AVX2 ones, so a float pinned exactly is
pinned at one dispatch level: X86_V3 (AVX2), which numpy dispatches on any
x86-64-v3 host once its AVX-512 targets are disabled. numpy reads
NPY_DISABLE_CPU_FEATURES once, at import, so at_pinned_dispatch runs its
snippet in a fresh interpreter. The CI digest step pins the same level.
"""
import json
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
DISABLED_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"
PINNED_LEVEL = ["X86_V3"]

_WRAP = """\
import json
import numpy
_umath = numpy._core._multiarray_umath
_level = [k for k in _umath.__cpu_dispatch__ if _umath.__cpu_features__[k]]
{code}
print(json.dumps([_level, result]))
"""


def at_pinned_dispatch(code):
    """The value that `code` binds to `result`, computed in a fresh
    interpreter with numpy's AVX-512 targets disabled and a RuntimeWarning
    raised as an error. Fails unless numpy dispatched PINNED_LEVEL there."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED_FEATURES)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = _WRAP.format(code=textwrap.dedent(code))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    level, result = json.loads(done.stdout.splitlines()[-1])
    assert level == PINNED_LEVEL, (
        f"numpy dispatched {level}; the pins hold at {PINNED_LEVEL}")
    return result
