"""A fixed computation that does not import weitzlab, timed before and
after every invocation to track the speed of the host.

It has the make-up of a short weitzlab invocation: interpreter start-up,
the numpy import, small dense linear algebra and a pure-Python loop.
"""

import numpy as np

a = np.random.default_rng(0).standard_normal((100, 100))
np.linalg.svd(a)
np.linalg.eigh(a + a.T)
a @ a
total = 0
for i in range(50_000):
    total += i * i
