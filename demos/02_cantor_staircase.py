# The base-4 Cantor measure: cells, staircase CDF, spectrum, Fourier side.

import numpy as np

import kernel_forge as kf
from kernel_forge import measures

mu = kf.cantor4()

for depth in (1, 2):
    part = kf.cells(mu, depth)
    print(f"depth-{depth} cells:")
    for left, right, mass in zip(part.lefts, part.rights, part.masses):
        print(f"  [{left:.4f}, {right:.4f}]  mass {mass}")

# crude terminal plot of the singular staircase, one CDF call for its columns
print("\nCDF staircase:")
heights = measures.cdf(mu, np.arange(61) / 60.0)
for row in range(10, -1, -1):
    level = row / 10.0
    line = "".join("#" if h >= level - 1e-12 else " " for h in heights)
    print(f"{level:4.1f} |{line}")
print("      " + "-" * 61)

# integral of x against the measure: the mean is 1/3
mean = kf.integrate(mu, lambda x: x, 12)
print("\nmean of the measure:", mean, " (1/3 =", 1 / 3, ")")

# the spectrum: nonnegative integers whose base-4 digits are 0 or 1
spec = kf.lambda4(66)
print("\nspectrum below 66:", [int(v) for v in spec.values])

# generating function: product over scales equals a sum over the spectrum
s = 0.5
product, total, gap = kf.generating_function(s, trunc=4)
print(f"generating function at s={s}: product {product.real}, sum {total.real},"
      f" gap {gap:.2e}")
print("by hand:", 1.5 * (1 + 0.5 ** 4) * (1 + 0.5 ** 16) * (1 + 0.5 ** 64))

# two Fourier-transform conventions, reported side by side
rep = kf.mu4_fourier(1.0, trunc=12)
print("\ntransform at t=1:")
print("  scale-product value :", rep.product_value)
print("  quadrature value    :", rep.quadrature_value)
print("  difference          :", abs(rep.difference))

# exponentials indexed by the spectrum are near-orthonormal in L2(mu)
g = kf.fourier_gram(list(spec.values[:8]), resolution=12)
off = np.max(np.abs(g.entries - np.eye(8)))
print("\nGram of the first 8 spectrum exponentials: max |G - I| =", off)
