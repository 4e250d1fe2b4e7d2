"""Deep values at Python's default recursion limit.

The test suite itself does not raise the limit, but a child process makes
sure no earlier import or test did: it asserts the default of 1000 and
then runs values whose structure is deeper than that through the
checkpointing drivers and through reverse mode, and programs nested
nearly as deep as the parser allows through every pipeline, also
interrupted and resumed at points inside them.
"""

import os
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import struct
import sys
from pathlib import Path

import ckad
from ckad.cps import CpsMachine
from ckad.direct import run_program_direct
from ckad.drivers import RunConfig
from ckad.extended import ExtendedMachine
from ckad.parser import parse_program
from ckad.values import Pair

assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()


def float_bits(v):
    # iterative, so comparing a deep result does not recurse either
    out, stack = [], [v]
    while stack:
        cur = stack.pop()
        if type(cur) is Pair:
            stack.append(cur.cdr)
            stack.append(cur.car)
        else:
            out.append(struct.pack("<d", cur) if type(cur) is float
                       else repr(cur))
    return out


# a 1000-element non-tail fold: the capsules' continuations are over a
# thousand records deep
source = (Path(ckad.__file__).parent / "corpus" / "list_sum.cvl").read_text()
program = parse_program(source.replace("12.0", "1000.0"))
for machine in (CpsMachine, ExtendedMachine):
    reverse, _n = machine(RunConfig(mode="reverse")).run_program(program)
    checkpoint, _n = machine(RunConfig(mode="checkpoint", alpha=2048)) \
        .run_program(program)
    assert float_bits(checkpoint) == float_bits(reverse), machine.__name__

# reverse mode on a 1500-element list output with a mirrored cotangent
program = parse_program('''
(define (build x i) (if (< i 0.5) nil (cons (* x i) (build x (- i 1.0)))))
(define (ones i) (if (< i 0.5) nil (cons 1.0 (ones (- i 1.0)))))
(*j (lambda (x) (build x 1500.0)) 0.6 (ones 1500.0))
''')
for machine in (CpsMachine, ExtendedMachine):
    result, _n = machine(RunConfig()).run_program(program)
    assert result.cdr == 1500.0 * 1501.0 / 2.0, result.cdr

# programs nested 995 levels deep: the free variables of a deep lambda
# body, and right- and left-nested sums (the latter gives the converted
# code's count expressions their largest offsets)
DEPTH = 995
right = left = "1.0"
body = "x"
for _ in range(DEPTH):
    right = f"(+ 1.0 {right})"
    left = f"(+ {left} 1.0)"
    body = f"(+ x {body})"
for source in (f"((lambda (x) {body}) 1.0)", right, left):
    program = parse_program(source)
    assert run_program_direct(program) == DEPTH + 1.0
    for machine in (CpsMachine, ExtendedMachine):
        value, _n = machine(RunConfig()).run_program(program)
        assert value == DEPTH + 1.0, machine.__name__

# interrupted and resumed inside the left-nested sum's chain of limit
# checks, whose restart bodies enter the chain partway
program = parse_program(f"(lambda (x) {left.replace('1.0', 'x', 1)})")
for machine in (CpsMachine, ExtendedMachine):
    m = machine(RunConfig())
    f, _n = m.run_program(program)
    L = m.primops(f, 1.0)
    for l in (1, 500, 994, L - 1):
        value = m.resume(m.interrupt(f, 1.0, l))
        assert value == DEPTH + 1.0, (machine.__name__, l)
        assert m.steps == L - l, (machine.__name__, l, m.steps)
print("ok")
"""


def test_deep_values_at_the_default_recursion_limit():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip() == "ok"
