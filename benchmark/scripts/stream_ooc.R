# Paper Example 1 (distance of every point to a route's two ends), with a
# forcing aggregate, a clamp, and the selective read the paper is about.
d <- sqrt((x - xs)^2 + (y - ys)^2) + sqrt((x - xe)^2 + (y - ye)^2)
md <- mean(d)
d[d > cap] <- cap
sd <- sum(d)
s <- sample(n, 100)
z <- d[s]
print(z)
# Two k-means rounds with k = 3 over the same points (corpus kmeans.R with
# px, py renamed): distances are elementwise arithmetic, assignment is a
# mask, the centroid update is a fixed-partition aggregate. The rounds are
# written out instead of looped so that the traced pass, which profiles
# one top-level statement at a time, sees each aggregate separately.
c1x <- 2
c1y <- 2
c2x <- 13
c2y <- 4
c3x <- 4
c3y <- 13
# round 1
d1 <- (x - c1x)^2 + (y - c1y)^2
d2 <- (x - c2x)^2 + (y - c2y)^2
d3 <- (x - c3x)^2 + (y - c3y)^2
m <- pmin(pmin(d1, d2), d3)
a1 <- d1 <= m
a2 <- (d2 <= m) & (d1 > m)
a3 <- (d3 <= m) & (d1 > m) & (d2 > m)
n1 <- sum(a1)
n2 <- sum(a2)
n3 <- sum(a3)
c1x <- sum(x * a1) / n1
c1y <- sum(y * a1) / n1
c2x <- sum(x * a2) / n2
c2y <- sum(y * a2) / n2
c3x <- sum(x * a3) / n3
c3y <- sum(y * a3) / n3
# round 2
d1 <- (x - c1x)^2 + (y - c1y)^2
d2 <- (x - c2x)^2 + (y - c2y)^2
d3 <- (x - c3x)^2 + (y - c3y)^2
m <- pmin(pmin(d1, d2), d3)
a1 <- d1 <= m
a2 <- (d2 <= m) & (d1 > m)
a3 <- (d3 <= m) & (d1 > m) & (d2 > m)
n1 <- sum(a1)
n2 <- sum(a2)
n3 <- sum(a3)
c1x <- sum(x * a1) / n1
c1y <- sum(y * a1) / n1
c2x <- sum(x * a2) / n2
c2y <- sum(y * a2) / n2
c3x <- sum(x * a3) / n3
c3y <- sum(y * a3) / n3
print(c(n1, n2, n3))
print(c(c1x, c1y, c2x, c2y, c3x, c3y))
