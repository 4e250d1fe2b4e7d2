"""The benchmark's programs and inputs, and an independent reference.

:func:`source` writes the adaptive-grid program of the synthetic
benchmark (an ``n``-dimensional state rotated pairwise by an angle that
grows with its norm, with an inner loop whose length is small on most
outer iterations and O(l) on a few), followed by the operations the
benchmark calls.  The program text lives here rather than being taken
from ``ckad.bench``, so a change to the package cannot change a workload.

:func:`reference_y` reimplements the same recurrence in plain Python,
operation by operation, so outputs can be checked without a stored copy
of an earlier run.
"""

from __future__ import annotations

import math
import random

PHI = 1013.0
X1 = 1.1  # fixes floor(3^x1), hence every inner-loop length and L


def inputs(seed: int, n: int) -> tuple[list[float], list[float]]:
    """The state (x1 = 1.1, the rest in [0.3, 0.7)) and a direction vector
    of unit length, both drawn from ``seed``."""
    rng = random.Random(seed)
    x = [X1] + [0.3 + 0.4 * rng.random() for _ in range(n - 1)]
    d = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(sum(c * c for c in d))
    return x, [c / norm for c in d]


def source(n: int, l: int) -> str:
    """Program text whose body is a list of the closures the benchmark
    calls: ``main``, its checkpointed and taped gradients, and its
    Hessian-vector products under ``checkpoint-*j`` and under ``*j``.
    The ``hvp`` operations take a pair (state . direction)."""
    lf = float(l)
    return f"""\
; adaptive-grid program: n={n}, l={l}
(define (ilog2 v)
  (if (< v 2.0) 0.0 (+ 1.0 (ilog2 (floor (/ v 2.0))))))
(define (pow2 e)
  (if (<= e 0.0) 1.0 (* 2.0 (pow2 (- e 1.0)))))
(define (imod a b)
  (- a (* b (floor (/ a b)))))
(define (sumsq v)
  (if (null? v) 0.0 (+ (* (car v) (car v)) (sumsq (cdr v)))))
(define (sum v)
  (if (null? v) 0.0 (+ (car v) (sum (cdr v)))))
(define (rotpairs v s c)
  (if (null? v)
      v
      (if (null? (cdr v))
          v
          (cons (- (* c (car v)) (* s (car (cdr v))))
                (cons (+ (* s (car v)) (* c (car (cdr v))))
                      (rotpairs (cdr (cdr v)) s c))))))
(define (update v)
  (let* ((th (* 0.1 (sqrt (sumsq v))))
         (s (sin th))
         (c (cos th))
         (w (rotpairs v s c)))
    (cons (car w) (rotpairs (cdr w) s c))))
(define (inner v m)
  (if (<= m 0.0) v (inner (update v) (- m 1.0))))
(define (duration k i)
  (pow2 (- (ilog2 {lf!r})
           (ilog2 (+ 1.0 (imod (* {PHI!r} (* k i)) {lf!r}))))))
(define (outer v k i)
  (if (< {lf!r} i)
      v
      (outer (inner v (duration k i)) k (+ i 1.0))))
(define (main v)
  (sum (outer v (floor (exp (* (car v) (log 3.0)))) 1.0)))
(define (grad v) (checkpoint-*j main v 1.0))
(define (grad-taped v) (*j main v 1.0))
(define (hvp p)
  (j* (lambda (v) (cdr (checkpoint-*j main v 1.0))) (car p) (cdr p)))
(define (hvp-taped p)
  (j* (lambda (v) (cdr (*j main v 1.0))) (car p) (cdr p)))
(cons main (cons grad (cons grad-taped (cons hvp (cons hvp-taped nil)))))
"""


# -- the same recurrence in plain Python ------------------------------------
# Each function mirrors its definition above, including the order of
# every floating-point operation, so the two agree to rounding.

def _ilog2(v):
    return 0.0 if v < 2.0 else 1.0 + _ilog2(float(math.floor(v / 2.0)))


def _pow2(e):
    return 1.0 if e <= 0.0 else 2.0 * _pow2(e - 1.0)


def _imod(a, b):
    return a - b * float(math.floor(a / b))


def _rfold(terms):
    acc = 0.0
    for t in reversed(terms):
        acc = t + acc
    return acc


def _rotpairs(v, s, c):
    out = []
    i = 0
    while i + 1 < len(v):
        a, b = v[i], v[i + 1]
        out.append(c * a - s * b)
        out.append(s * a + c * b)
        i += 2
    out.extend(v[i:])
    return out


def _update(v):
    th = 0.1 * math.sqrt(_rfold([a * a for a in v]))
    s, c = math.sin(th), math.cos(th)
    w = _rotpairs(v, s, c)
    return [w[0]] + _rotpairs(w[1:], s, c)


def reference_y(x: list[float], l: int) -> float:
    lf = float(l)
    k = float(math.floor(math.exp(x[0] * math.log(3.0))))
    v = list(x)
    i = 1.0
    while not lf < i:
        m = _pow2(_ilog2(lf) - _ilog2(1.0 + _imod(PHI * (k * i), lf)))
        while not m <= 0.0:
            v = _update(v)
            m = m - 1.0
        i = i + 1.0
    return _rfold(v)
