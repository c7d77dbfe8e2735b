# Runs after StorageCtx::open over the committed file: everything that
# was acknowledged must read back.
print(sum(x * y))
print(sum(m))
