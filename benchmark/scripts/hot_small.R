# Interactive-sized work over data that fits the pool: many short
# statements, so the interpreter, DAG construction, the optimizer, the
# governed bracket and the pin-hit path pay for most of the time.
#
# Part 1 — IoT time-series rollup (corpus iot.R): k fixed windows of width
# w gathered from s and reduced to per-window sum/min/max.
rsum <- numeric(k)
rmin <- numeric(k)
rmax <- numeric(k)
for (j in 1:k) {
  lo <- (j - 1) * w + 1
  win <- s[lo:(j * w)]
  rsum[j] <- sum(win)
  rmin[j] <- min(win)
  rmax[j] <- max(win)
}
print(rsum)
print(rsum / w)
print(rmin)
print(rmax)
# Part 2 — rounds of a small matrix chain (96x8 . 8x96 . 96x4, which the
# chain DP reorders) and a clamp-and-mean over the same vector; the clamp
# level moves each round so no two rounds share a plan.
acc <- 0
macc <- 0
for (r in 1:rounds) {
  p <- a %*% b %*% c0
  acc <- acc + sum(p)
  t <- s + 0
  t[t > cap - r] <- cap - r
  macc <- macc + mean(t)
}
print(acc)
print(macc)
