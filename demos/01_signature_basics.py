"""Streams, truncated signatures, and the identities that make them useful.

Walks through: a stream as an (n, d) array of points, its signature computed
two independent ways (Chen product vs direct quadrature of the iterated
integrals), and the invariances that justify using signatures as image
features.
"""

import numpy as np

from sigclass import log_signature_many, signature_many, signature_oracle
from sigclass.tensor_algebra import exp_levels, log_levels, mul_levels

rng = np.random.default_rng(0)

print("== an L-shaped stream in the plane ==")
pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
sig = signature_many(pts[None], order=2)[0]  # a batch of one stream
print("points:\n", pts)
print("signature levels 1..2:", np.round(sig, 6))
print("  level 1 is the total displacement (1, 1)")
print("  level 2 holds the iterated integrals; the (1,2)/(2,1) asymmetry")
print("  encodes that the path went right BEFORE it went up\n")

print("== the same numbers by brute-force quadrature ==")
quad = signature_oracle(pts, order=2)
print("quadrature oracle:", np.round(quad, 6))
print("max |difference| :", np.abs(sig - quad).max(), "\n")

print("== log-signature: the compressed encoding ==")
lsig = log_signature_many(pts[None], order=2)[0]
print("log-signature:", np.round(lsig, 6))
print("  level 2 reduces to the antisymmetric (signed-area) part\n")

print("== invariances ==")
stream = rng.normal(size=(6, 3))
base = signature_many(stream[None], 3)[0]

shifted = signature_many(stream[None] + 5.0, 3)[0]
print("translation:       max diff", np.abs(base - shifted).max())

mid = 0.5 * (stream[2] + stream[3])
split = np.insert(stream, 3, mid, axis=0)
print("collinear insert:  max diff", np.abs(base - signature_many(split[None], 3)[0]).max())

print("\n== Chen's identity: concatenation = tensor product ==")
# a tensor is a level list [x_0, x_1, x_2]: level k holds d**k coefficients
a = exp_levels([np.zeros(()), np.array([1.0, 0.0]), np.zeros(4)])
b = exp_levels([np.zeros(()), np.array([0.0, 1.0]), np.zeros(4)])
prod = mul_levels(a, b)
print("exp(e1) (x) exp(e2) levels 1..2:", np.round(np.concatenate(prod[1:]), 6))
print("matches the L-shaped stream's signature above")
print("log of the product:", np.round(np.concatenate(log_levels(prod)[1:]), 6))
