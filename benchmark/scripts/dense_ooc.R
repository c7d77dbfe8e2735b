# Ridge regression through the normal equations (corpus ridge.R, with a
# real-valued x): the trailing p rows of x carry the sqrt(lambda) ridge
# augmentation with zeros in y, so crossprod(x) is positive definite by
# construction and solve() takes the certified Cholesky path.
beta <- solve(crossprod(x), crossprod(x, y))
fit <- x %*% beta
print(sum(fit))
