"""Each demo script runs to completion with the package on its path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# The full stdout of the demos whose constructions are built in a rational
# frame (the so(2m+1) spinor, the so(3) fusion): the frame changes no
# printed value.
DEMO_02_STDOUT = (
    '\n'
    '=== so(5) spinor L on spinor[so(5)], dim 4 ===\n'
    '  RLL relation: pass\n'
    '  G^2 + beta G = c2 I with c2 = 1/1  (expect eps(n-eps)/4)\n'
    "  weights on |0>: ['-1/2', '-1/2']\n"
    '  ratio (1/1) / (1/1)  shift 1  -> P roots {}\n'
    '  ratio (1/2) + (1/1)u / (1/1)u  shift 1/2  -> P roots {Fraction(0, 1): 1}\n'
    '  finite-dimensional criterion: True\n'
    '\n'
    '=== so(4) spinor L on spinor[so(4)], dim 4 ===\n'
    '  RLL relation: pass\n'
    '  G^2 + beta G = c2 I with c2 = 3/4  (expect eps(n-eps)/4)\n'
    "  weights on |0>: ['-1/2', '-1/2']\n"
    '  ratio (1/1) / (1/1)  shift 1  -> P roots {}\n'
    '  ratio (1/2) + (1/1)u / (-1/2) + (1/1)u  shift 1  -> P roots {Fraction(1, 2): 1}\n'
    '  finite-dimensional criterion: True\n'
    "  weights on c_m|0>: ['-1/2', '1/2']  conditions: True\n"
    '\n'
    '=== sp(4) spinor L on spinor[sp(4)], dim 28 ===\n'
    '  RLL relation: pass\n'
    '  G^2 + beta G = c2 I with c2 = -5/4  (expect eps(n-eps)/4)\n'
    "  weights on |0>: ['-1/2', '-1/2']\n"
    '  ratio (1/1) / (1/1)  shift 1  -> P roots {}\n'
    '  ratio (-1/2) + (1/1)u / (1/2) + (1/1)u  shift 2  -> no P (negative multiplicity at 1/2 in chain 1/2)\n'
    '  finite-dimensional criterion: False\n'
    "  weights on c_m|0>: ['-1/2', '-3/2']  conditions: True\n"
)

DEMO_05_STDOUT = (
    'product of so(4) Heisenberg factors (l1, l2, delta) = (1, 2, 3), dim 25\n'
    "ratio multiplicativity f'_i(u) = f_1i(u + d/2) f_2i(u - d/2):\n"
    '  i=1: True\n'
    '  i=2: True\n'
    '\n'
    'gl(2) oscillator chain with shifts/excitations [(0,1), (1/2,1)]:\n'
    '  gl(2) ratio f(u) = (3/2) + (5/2)u + (1/1)u^2 / (1/2)u + (1/1)u^2\n'
    '  fused so(3) operator: entries of degree 4  qdet = (1/4) + (3/1)u + (13/1)u^2 + (24/1)u^3 + (16/1)u^4\n'
    '  RLL for the fused operator: True\n'
    '  f_1(u) = f(2u): True\n'
    '  Lambda identity and finiteness: True True\n'
)


def _run(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    if demo.stem.startswith("02"):
        assert done.stdout == DEMO_02_STDOUT
    if demo.stem.startswith("05"):
        assert done.stdout == DEMO_05_STDOUT
    if demo.stem.startswith("04"):
        assert "W = 0: True" in done.stdout
        assert "cubic identity: True" in done.stdout
