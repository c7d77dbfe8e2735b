# Sparse matrix-vector power iteration (corpus spmv.R): a is a
# block-compressed sparse matrix and the optimizer routes %*% through the
# SpMV kernel. Integer entries keep every sum exact. (rlang has no
# matrix / scalar, so the iteration cannot normalise v.)
print(nnz(a))
for (it in 1:iters) {
  v <- a %*% v
  print(sum(v))
}
