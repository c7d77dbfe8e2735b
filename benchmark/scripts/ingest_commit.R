# Runs over freshly ingested, not yet committed inputs: the reads below
# come back through dirty eviction and write-back.
print(sum(x * y))
g <- crossprod(m)
print(sum(g))
