//! The interpreter: vectorized R semantics dispatched onto a
//! [`riot_core::Session`].
//!
//! This is the analogue of §4's "Interfacing with R": where RIOT-DB
//! overloads R's generic functions so `+` on `dbvector`s calls into the
//! engine, this interpreter routes every vector operation of the script
//! to the session — so the engine choice is invisible to the program text.

use std::cell::OnceCell;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use riot_core::exec::ExecError;
use riot_core::{AggOp, BinOp, EngineConfig, RMat, RVec, Session, UnOp};

use crate::ast::{BinaryOp, Expr, Stmt};
use crate::parser::{parse_program, ParseError};

/// A value in the R environment.
#[derive(Clone)]
pub enum RValue {
    /// A length-1 numeric (kept unboxed for optimizer visibility).
    Scalar(f64),
    /// A numeric or logical vector — or, under the deferred engines, a
    /// scalar that has not been observed yet ([`RVec::is_scalar`]): an
    /// aggregate, or arithmetic over aggregates. It is a length-1 value
    /// like any other, computed when the script needs the number.
    Vector {
        /// Engine-backed vector.
        v: RVec,
        /// True when produced by a comparison/logical op — determines
        /// whether `x[i]` treats `i` as a mask or as positions.
        logical: bool,
    },
    /// A matrix.
    Matrix(RMat),
    /// A character string.
    Str(String),
    /// `NULL` / invisible.
    Null,
}

/// Interpreter errors.
#[derive(Debug)]
pub enum RError {
    /// Lex/parse failure.
    Parse(ParseError),
    /// Engine execution failure.
    Exec(ExecError),
    /// Semantic error (unknown variable, bad argument, ...).
    Runtime(String),
}

impl std::fmt::Display for RError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RError::Parse(e) => write!(f, "{e}"),
            RError::Exec(e) => write!(f, "execution error: {e}"),
            RError::Runtime(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for RError {}

impl From<ParseError> for RError {
    fn from(e: ParseError) -> Self {
        RError::Parse(e)
    }
}

impl From<ExecError> for RError {
    fn from(e: ExecError) -> Self {
        RError::Exec(e)
    }
}

type RResult<T> = Result<T, RError>;

/// A name's value, and beside it the number [`Interpreter::get`] found
/// when the value was a deferred scalar.
struct Binding {
    value: RValue,
    observed: OnceCell<RValue>,
}

/// An R interpreter bound to one engine session.
pub struct Interpreter {
    session: Session,
    env: HashMap<String, Binding>,
    output: String,
    rng: StdRng,
}

impl Interpreter {
    /// Fresh interpreter over a new session with `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_session(Session::new(cfg))
    }

    /// Interpreter over an existing session (shares storage and stats).
    pub fn with_session(session: Session) -> Self {
        Interpreter {
            session,
            env: HashMap::new(),
            output: String::new(),
            rng: StdRng::seed_from_u64(0x5eed),
        }
    }

    /// The underlying session (for I/O statistics etc.).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Pre-bind a generated data vector (how harnesses inject large
    /// inputs without writing them as source literals).
    pub fn bind_vector(
        &mut self,
        name: &str,
        len: usize,
        f: impl FnMut(usize) -> f64,
    ) -> RResult<()> {
        let v = self.session.vector_from_fn(len, f)?;
        self.bind(name, RValue::Vector { v, logical: false });
        Ok(())
    }

    /// Pre-bind a generated matrix (square tiling), the matrix
    /// counterpart of [`Interpreter::bind_vector`].
    pub fn bind_matrix(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        f: impl FnMut(usize, usize) -> f64,
    ) -> RResult<()> {
        let m = self
            .session
            .matrix_from_fn(rows, cols, riot_array::MatrixLayout::Square, f)?;
        self.bind(name, RValue::Matrix(m));
        Ok(())
    }

    /// Pre-bind a generated sparse matrix from COO triplets, the sparse
    /// counterpart of [`Interpreter::bind_matrix`] (eager engines densify,
    /// exactly like the `sparse(...)` builtin).
    pub fn bind_sparse(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> RResult<()> {
        let m = self.session.sparse_matrix(rows, cols, triplets)?;
        self.bind(name, RValue::Matrix(m));
        Ok(())
    }

    /// [`Interpreter::bind_vector`], but also registering the stored
    /// object in the catalog under `stored` so a later session over the
    /// same durable storage can reopen it by name.
    pub fn bind_vector_stored(
        &mut self,
        name: &str,
        stored: &str,
        len: usize,
        f: impl FnMut(usize) -> f64,
    ) -> RResult<()> {
        let v = self.session.vector_from_fn_named(stored, len, f)?;
        self.bind(name, RValue::Vector { v, logical: false });
        Ok(())
    }

    /// [`Interpreter::bind_matrix`] with a catalog name (see
    /// [`Interpreter::bind_vector_stored`]).
    pub fn bind_matrix_stored(
        &mut self,
        name: &str,
        stored: &str,
        rows: usize,
        cols: usize,
        f: impl FnMut(usize, usize) -> f64,
    ) -> RResult<()> {
        let m = self.session.matrix_from_fn_named(
            stored,
            rows,
            cols,
            riot_array::MatrixLayout::Square,
            f,
        )?;
        self.bind(name, RValue::Matrix(m));
        Ok(())
    }

    /// [`Interpreter::bind_sparse`] with a catalog name.
    pub fn bind_sparse_stored(
        &mut self,
        name: &str,
        stored: &str,
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> RResult<()> {
        let m = self
            .session
            .sparse_matrix_named(stored, rows, cols, triplets)?;
        self.bind(name, RValue::Matrix(m));
        Ok(())
    }

    /// Bind `name` to the stored vector named `stored` in the session's
    /// catalog (the reopen side of [`Interpreter::bind_vector_stored`]).
    pub fn bind_open_vector(&mut self, name: &str, stored: &str) -> RResult<()> {
        let v = self.session.open_vector(stored)?;
        self.bind(name, RValue::Vector { v, logical: false });
        Ok(())
    }

    /// Bind `name` to the stored (dense or sparse) matrix named `stored`.
    pub fn bind_open_matrix(&mut self, name: &str, stored: &str) -> RResult<()> {
        let m = self.session.open_matrix(stored)?;
        self.bind(name, RValue::Matrix(m));
        Ok(())
    }

    /// Pre-bind a scalar.
    pub fn bind_scalar(&mut self, name: &str, value: f64) {
        self.bind(name, RValue::Scalar(value));
    }

    fn bind(&mut self, name: &str, value: RValue) {
        let observed = OnceCell::new();
        self.env
            .insert(name.to_string(), Binding { value, observed });
    }

    fn lookup(&self, name: &str) -> RResult<&RValue> {
        let binding = self.env.get(name);
        let found = binding.map(|b| &b.value);
        found.ok_or_else(|| RError::Runtime(format!("object '{name}' not found")))
    }

    /// Look up a variable (for assertions in tests). Looking is an
    /// observation: a deferred scalar is computed and comes back as
    /// `RValue::Scalar` (if that fails it stays deferred, and comes back
    /// as it is).
    pub fn get(&self, name: &str) -> Option<&RValue> {
        let binding = self.env.get(name)?;
        match &binding.value {
            RValue::Vector { v, .. } if v.is_scalar() => match v.collect() {
                Ok(x) => Some(binding.observed.get_or_init(|| RValue::Scalar(x[0]))),
                Err(_) => Some(&binding.value),
            },
            value => Some(value),
        }
    }

    /// Parse and execute `src`; returns the output printed during the run.
    pub fn run(&mut self, src: &str) -> RResult<String> {
        let stmts = parse_program(src)?;
        let start = self.output.len();
        self.exec_block(&stmts)?;
        Ok(self.output[start..].to_string())
    }

    /// Everything printed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> RResult<()> {
        for s in stmts {
            // Statement-granularity interrupt point: a pending cancel
            // aborts the script here even if no kernel runs in between.
            self.session.interrupt_checkpoint()?;
            self.exec(s)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt) -> RResult<()> {
        match stmt {
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            Stmt::Assign { name, value } => {
                let v = self.eval(value)?;
                // The paper's assignment hook: named vector objects notify
                // the engine (materialization point under MatNamed).
                if let RValue::Vector { v, .. } = &v {
                    self.session.assign(name, v)?;
                }
                self.bind(name, v);
                Ok(())
            }
            Stmt::IndexAssign { name, index, value } => {
                let current = self.lookup(name)?.clone();
                let RValue::Vector { v: data, .. } = self.observed(current)? else {
                    return Err(RError::Runtime(format!(
                        "indexed assignment target '{name}' is not a vector"
                    )));
                };
                let idx = self.eval(index)?;
                let val = self.eval(value)?;
                let updated = match self.observed(idx)? {
                    // b[b > 100] <- 100: logical mask.
                    RValue::Vector {
                        v: mask,
                        logical: true,
                    } => match val {
                        RValue::Scalar(c) => data.try_mask_assign(&mask, c)?,
                        RValue::Vector { v, .. } => data.try_mask_assign_vec(&mask, &v)?,
                        _ => {
                            return Err(RError::Runtime("replacement must be numeric".to_string()))
                        }
                    },
                    // x[c(1,2)] <- v: positional update.
                    RValue::Vector {
                        v: pos,
                        logical: false,
                    } => {
                        let values = self.to_vector(val)?;
                        data.try_sub_assign(&pos, &values)?
                    }
                    RValue::Scalar(p) => {
                        let pos = self.session.literal(&[p])?;
                        let values = self.to_vector(val)?;
                        data.try_sub_assign(&pos, &values)?
                    }
                    _ => return Err(RError::Runtime("invalid subscript".to_string())),
                };
                let v = self.session.assign(name, &updated)?;
                self.bind(name, RValue::Vector { v, logical: false });
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let c = self.eval(cond)?;
                if self.as_scalar(&c)? != 0.0 {
                    self.exec_block(then_block)
                } else if let Some(e) = else_block {
                    self.exec_block(e)
                } else {
                    Ok(())
                }
            }
            Stmt::For { var, seq, body } => {
                let seq = self.eval(seq)?;
                let values = match seq {
                    RValue::Scalar(v) => vec![v],
                    RValue::Vector { v, .. } => v.collect()?,
                    _ => return Err(RError::Runtime("for needs a sequence".to_string())),
                };
                for v in values {
                    self.bind(var, RValue::Scalar(v));
                    self.exec_block(body)?;
                }
                Ok(())
            }
        }
    }

    fn eval(&mut self, expr: &Expr) -> RResult<RValue> {
        match expr {
            Expr::Num(v) => Ok(RValue::Scalar(*v)),
            Expr::Bool(b) => Ok(RValue::Scalar(if *b { 1.0 } else { 0.0 })),
            Expr::Str(s) => Ok(RValue::Str(s.clone())),
            Expr::Var(name) => self.lookup(name).cloned(),
            Expr::Neg(inner) => match self.eval(inner)? {
                RValue::Scalar(v) => Ok(RValue::Scalar(-v)),
                RValue::Vector { v, .. } => Ok(RValue::Vector {
                    v: v.try_unary(UnOp::Neg)?,
                    logical: false,
                }),
                _ => Err(RError::Runtime(
                    "invalid argument to unary minus".to_string(),
                )),
            },
            Expr::Not(inner) => match self.eval(inner)? {
                RValue::Scalar(v) => Ok(RValue::Scalar(if v == 0.0 { 1.0 } else { 0.0 })),
                RValue::Vector { v, .. } => Ok(RValue::Vector {
                    v: v.try_unary(UnOp::Not)?,
                    logical: true,
                }),
                _ => Err(RError::Runtime("invalid argument to !".to_string())),
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.binary(*op, l, r)
            }
            Expr::Index { target, index } => {
                let t = self.eval(target)?;
                let i = self.eval(index)?;
                self.subscript(t, i)
            }
            Expr::Call { name, args } => self.call(name, args),
        }
    }

    fn binary(&mut self, op: BinaryOp, l: RValue, r: RValue) -> RResult<RValue> {
        use BinaryOp as B;
        if op == B::Range {
            let (a, b) = (self.as_scalar(&l)?, self.as_scalar(&r)?);
            let v = self.session.range(a as i64, b as i64)?;
            return Ok(RValue::Vector { v, logical: false });
        }
        if op == B::MatMul {
            let (RValue::Matrix(a), RValue::Matrix(b)) = (&l, &r) else {
                return Err(RError::Runtime("%*% requires matrices".to_string()));
            };
            return Ok(RValue::Matrix(a.try_matmul(b)?));
        }
        let bin = map_binop(op);
        let logical = is_logical_op(op);
        match (l, r) {
            (RValue::Scalar(a), RValue::Scalar(b)) => Ok(RValue::Scalar(bin.apply(a, b))),
            (RValue::Vector { v, .. }, RValue::Scalar(c)) => Ok(RValue::Vector {
                v: v.try_binary_scalar(bin, c, false)?,
                logical,
            }),
            (RValue::Scalar(c), RValue::Vector { v, .. }) => Ok(RValue::Vector {
                v: v.try_binary_scalar(bin, c, true)?,
                logical,
            }),
            (RValue::Vector { v: a, .. }, RValue::Vector { v: b, .. }) => Ok(RValue::Vector {
                v: a.try_binary(bin, &b)?,
                logical,
            }),
            _ => Err(RError::Runtime(format!(
                "non-numeric argument to binary operator {op:?}"
            ))),
        }
    }

    fn subscript(&mut self, target: RValue, index: RValue) -> RResult<RValue> {
        let RValue::Vector { v: data, .. } = self.observed(target)? else {
            return Err(RError::Runtime(
                "subscript target is not a vector".to_string(),
            ));
        };
        match self.observed(index)? {
            RValue::Scalar(p) => {
                let idx = self.session.literal(&[p])?;
                Ok(RValue::Vector {
                    v: data.try_index(&idx)?,
                    logical: false,
                })
            }
            RValue::Vector {
                v: idx,
                logical: false,
            } => Ok(RValue::Vector {
                v: data.try_index(&idx)?,
                logical: false,
            }),
            RValue::Vector {
                v: mask,
                logical: true,
            } => {
                // Logical subscript read: R keeps elements where the mask
                // is TRUE. The mask length is data length, so this is a
                // forcing point (the result length is data-dependent).
                let flags = mask.collect()?;
                let picks: Vec<f64> = flags
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| **f != 0.0)
                    .map(|(i, _)| (i + 1) as f64)
                    .collect();
                let idx = self.session.literal(&picks)?;
                Ok(RValue::Vector {
                    v: data.try_index(&idx)?,
                    logical: false,
                })
            }
            _ => Err(RError::Runtime("invalid subscript".to_string())),
        }
    }

    fn call(&mut self, name: &str, args: &[(Option<String>, Expr)]) -> RResult<RValue> {
        // riot.profile must see its argument *unevaluated*: the point is to
        // bracket evaluation (and forcing) with the session profiler.
        if name == "riot.profile" {
            return self.profile_builtin(args);
        }
        // Evaluate arguments once, in order.
        let mut vals: Vec<(Option<String>, RValue)> = Vec::with_capacity(args.len());
        for (n, e) in args {
            vals.push((n.clone(), self.eval(e)?));
        }
        let positional: Vec<&RValue> = vals
            .iter()
            .filter(|(n, _)| n.is_none())
            .map(|(_, v)| v)
            .collect();
        let named = |key: &str| -> Option<&RValue> {
            vals.iter()
                .find(|(n, _)| n.as_deref() == Some(key))
                .map(|(_, v)| v)
        };

        match name {
            "c" => {
                let mut out = Vec::new();
                for v in &positional {
                    match v {
                        RValue::Scalar(x) => out.push(*x),
                        RValue::Vector { v, .. } => out.extend(v.collect()?),
                        _ => return Err(RError::Runtime("c() of non-numeric".to_string())),
                    }
                }
                let v = self.session.literal(&out)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "sqrt" | "abs" | "exp" | "log" => {
                let op = match name {
                    "sqrt" => UnOp::Sqrt,
                    "abs" => UnOp::Abs,
                    "exp" => UnOp::Exp,
                    _ => UnOp::Ln,
                };
                match self.arg1(&positional, name)? {
                    RValue::Scalar(x) => Ok(RValue::Scalar(op.apply(*x))),
                    RValue::Vector { v, .. } => Ok(RValue::Vector {
                        v: v.try_unary(op)?,
                        logical: false,
                    }),
                    _ => Err(RError::Runtime(format!("{name}() of non-numeric"))),
                }
            }
            "length" => match self.arg1(&positional, name)? {
                RValue::Scalar(_) => Ok(RValue::Scalar(1.0)),
                RValue::Vector { v, .. } => Ok(RValue::Scalar(v.len() as f64)),
                RValue::Matrix(m) => {
                    let (r, c) = m.shape();
                    Ok(RValue::Scalar((r * c) as f64))
                }
                _ => Ok(RValue::Scalar(0.0)),
            },
            "sum" | "mean" | "min" | "max" => match self.arg1(&positional, name)? {
                RValue::Scalar(x) => Ok(RValue::Scalar(*x)),
                RValue::Vector { v, .. } => {
                    let op = match name {
                        "sum" => AggOp::Sum,
                        "mean" => AggOp::Mean,
                        "min" => AggOp::Min,
                        _ => AggOp::Max,
                    };
                    // Deferred where the engine defers: the number is
                    // computed when the script observes it.
                    Ok(match v.deferred(op)? {
                        Some(v) => RValue::Vector { v, logical: false },
                        None => RValue::Scalar(v.aggregate(op)?),
                    })
                }
                RValue::Matrix(m) => {
                    // R reduces a matrix like the flattened vector of its
                    // elements. Fold the collected rows sequentially on the
                    // host so the result is identical under every engine
                    // and thread count (no kernel-order dependence).
                    let (_, _, data) = m.collect()?;
                    if data.is_empty() {
                        return Err(RError::Runtime(format!("{name}() of empty matrix")));
                    }
                    let x = match name {
                        "sum" => data.iter().sum(),
                        "mean" => data.iter().sum::<f64>() / data.len() as f64,
                        "min" => data.iter().copied().fold(f64::INFINITY, f64::min),
                        _ => data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    };
                    Ok(RValue::Scalar(x))
                }
                _ => Err(RError::Runtime(format!("{name}() of non-numeric"))),
            },
            "pmin" | "pmax" => {
                if positional.len() != 2 {
                    return Err(RError::Runtime(format!("{name}() needs two arguments")));
                }
                let op = if name == "pmin" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                match (positional[0], positional[1]) {
                    (RValue::Vector { v: a, .. }, RValue::Vector { v: b, .. }) => {
                        Ok(RValue::Vector {
                            v: a.try_binary(op, b)?,
                            logical: false,
                        })
                    }
                    (RValue::Vector { v, .. }, RValue::Scalar(c))
                    | (RValue::Scalar(c), RValue::Vector { v, .. }) => Ok(RValue::Vector {
                        v: v.try_binary_scalar(op, *c, false)?,
                        logical: false,
                    }),
                    (RValue::Scalar(a), RValue::Scalar(b)) => Ok(RValue::Scalar(op.apply(*a, *b))),
                    _ => Err(RError::Runtime(format!("{name}() of non-numeric"))),
                }
            }
            "sample" => {
                if positional.len() != 2 {
                    return Err(RError::Runtime(
                        "sample(n, k) needs two arguments".to_string(),
                    ));
                }
                let n = self.as_scalar(positional[0])? as usize;
                let k = self.as_scalar(positional[1])? as usize;
                let v = self.session.sample(n, k)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "seq_len" => {
                let n = self.as_scalar(self.arg1(&positional, name)?)? as i64;
                let v = self.seq_len(n)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "numeric" => {
                let n = self.as_scalar(self.arg1(&positional, name)?)? as usize;
                let v = self.session.vector_from_fn(n, |_| 0.0)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "runif" => {
                let n = self.as_scalar(self.arg1(&positional, name)?)? as usize;
                let lo = positional
                    .get(1)
                    .map(|v| self.as_scalar(v))
                    .transpose()?
                    .unwrap_or(0.0);
                let hi = positional
                    .get(2)
                    .map(|v| self.as_scalar(v))
                    .transpose()?
                    .unwrap_or(1.0);
                if !(lo <= hi && lo.is_finite() && hi.is_finite()) {
                    return Err(RError::Runtime(format!(
                        "runif(): invalid range [{lo}, {hi}]"
                    )));
                }
                // An empty range has one value to draw (and no RNG step).
                let mut draw = || {
                    if lo < hi {
                        self.rng.gen_range(lo..hi)
                    } else {
                        lo
                    }
                };
                let values: Vec<f64> = (0..n).map(|_| draw()).collect();
                let v = self.session.vector_from_slice(&values)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "head" => {
                let k = positional
                    .get(1)
                    .map(|v| self.as_scalar(v))
                    .transpose()?
                    .unwrap_or(6.0) as i64;
                match self.arg1(&positional, name)? {
                    RValue::Vector { v, logical } if !v.is_scalar() => {
                        let idx = self.seq_len(k.min(v.len() as i64))?;
                        Ok(RValue::Vector {
                            v: v.try_index(&idx)?,
                            logical: *logical,
                        })
                    }
                    other => Ok(other.clone()),
                }
            }
            "ifelse" => {
                if positional.len() != 3 {
                    return Err(RError::Runtime("ifelse(cond, yes, no)".to_string()));
                }
                let cond = self.to_vector(positional[0].clone())?;
                let yes = self.to_vector(positional[1].clone())?;
                let no = self.to_vector(positional[2].clone())?;
                let v = self.session.ifelse(&cond, &yes, &no)?;
                Ok(RValue::Vector { v, logical: false })
            }
            "matrix" => {
                let data = positional
                    .first()
                    .ok_or_else(|| RError::Runtime("matrix() needs data".to_string()))?;
                let values = match data {
                    RValue::Scalar(x) => vec![*x],
                    RValue::Vector { v, .. } => v.collect()?,
                    _ => return Err(RError::Runtime("matrix data must be numeric".to_string())),
                };
                if positional.len() > 3 {
                    return Err(RError::Runtime(
                        "matrix(data, nrow, ncol) takes at most three unnamed arguments"
                            .to_string(),
                    ));
                }
                // R's formal order: unnamed arguments 2 and 3 are nrow, ncol.
                let dim = |key: &str, pos: usize| -> RResult<Option<usize>> {
                    if named(key).is_some() && positional.len() > pos {
                        return Err(RError::Runtime(format!(
                            "matrix(): {key} given both by name and by position"
                        )));
                    }
                    let v = named(key).or_else(|| positional.get(pos).copied());
                    Ok(v.map(|v| self.as_scalar(v))
                        .transpose()?
                        .map(|d| d as usize))
                };
                let (nrow, ncol) = (dim("nrow", 1)?, dim("ncol", 2)?);
                let n = values.len();
                if n == 0 || nrow == Some(0) || ncol == Some(0) {
                    return Err(RError::Runtime(
                        "matrix() needs data and positive dimensions".to_string(),
                    ));
                }
                let (rows, cols) = match (nrow, ncol) {
                    (Some(r), Some(c)) => (r, c),
                    (Some(r), None) => (r, n.div_ceil(r)),
                    (None, Some(c)) => (n.div_ceil(c), c),
                    (None, None) => (n, 1),
                };
                // R fills column-major and recycles the data.
                let m = self.session.matrix_from_fn(
                    rows,
                    cols,
                    riot_array::MatrixLayout::Square,
                    |i, j| values[(j * rows + i) % n],
                )?;
                Ok(RValue::Matrix(m))
            }
            "sparse" => {
                // sparse(i, j, v, nrow, ncol): COO construction with
                // 1-based indices, mirroring Matrix::sparseMatrix.
                if positional.len() < 3 {
                    return Err(RError::Runtime(
                        "sparse(i, j, v, nrow, ncol) needs i, j and v".to_string(),
                    ));
                }
                let iv = self.to_vector(positional[0].clone())?.collect()?;
                let jv = self.to_vector(positional[1].clone())?.collect()?;
                let vv = self.to_vector(positional[2].clone())?.collect()?;
                if iv.len() != jv.len() || iv.len() != vv.len() {
                    return Err(RError::Runtime(
                        "sparse(): i, j and v must have equal lengths".to_string(),
                    ));
                }
                let dim = |key: &str, pos: usize, fallback: f64| -> RResult<usize> {
                    let v = named(key).or_else(|| positional.get(pos).copied());
                    Ok(v.map(|v| self.as_scalar(v))
                        .transpose()?
                        .unwrap_or(fallback) as usize)
                };
                let max_i = iv.iter().cloned().fold(0.0f64, f64::max);
                let max_j = jv.iter().cloned().fold(0.0f64, f64::max);
                let nrow = dim("nrow", 3, max_i)?;
                let ncol = dim("ncol", 4, max_j)?;
                if nrow == 0 || ncol == 0 {
                    return Err(RError::Runtime(
                        "sparse(): matrix dimensions must be positive (give nrow/ncol \
                         when i, j, v are empty)"
                            .to_string(),
                    ));
                }
                let mut trips = Vec::with_capacity(iv.len());
                for k in 0..iv.len() {
                    let (r, c) = (iv[k] as i64, jv[k] as i64);
                    if r < 1 || r as usize > nrow || c < 1 || c as usize > ncol {
                        return Err(RError::Runtime(format!(
                            "sparse(): subscript ({r}, {c}) out of bounds for {nrow}x{ncol}"
                        )));
                    }
                    trips.push((r as usize - 1, c as usize - 1, vv[k]));
                }
                let m = self.session.sparse_matrix(nrow, ncol, &trips)?;
                Ok(RValue::Matrix(m))
            }
            "nnz" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => Ok(RValue::Scalar(m.nnz()? as f64)),
                RValue::Vector { v, .. } => {
                    let n = v.collect()?.iter().filter(|x| **x != 0.0).count();
                    Ok(RValue::Scalar(n as f64))
                }
                RValue::Scalar(x) => Ok(RValue::Scalar(if *x != 0.0 { 1.0 } else { 0.0 })),
                _ => Err(RError::Runtime("nnz() of non-numeric".to_string())),
            },
            "as.sparse" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => Ok(RValue::Matrix(m.to_sparse()?)),
                _ => Err(RError::Runtime("as.sparse() needs a matrix".to_string())),
            },
            "as.dense" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => Ok(RValue::Matrix(m.to_dense()?)),
                _ => Err(RError::Runtime("as.dense() needs a matrix".to_string())),
            },
            "t" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => Ok(RValue::Matrix(m.try_t()?)),
                _ => Err(RError::Runtime("t() needs a matrix".to_string())),
            },
            "chol" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => Ok(RValue::Matrix(m.chol()?)),
                _ => Err(RError::Runtime("chol() needs a matrix".to_string())),
            },
            "solve" => {
                if positional.len() != 2 {
                    // Unary solve(a) would materialize an n x n inverse —
                    // exactly the plan the engine refuses to run; the
                    // two-argument form never forms it.
                    return Err(RError::Runtime(
                        "solve(a) would materialize an inverse; use solve(a, b)".to_string(),
                    ));
                }
                match (positional[0], positional[1]) {
                    (RValue::Matrix(a), RValue::Matrix(b)) => Ok(RValue::Matrix(a.solve(b)?)),
                    _ => Err(RError::Runtime("solve() needs two matrices".to_string())),
                }
            }
            "crossprod" => match positional.as_slice() {
                // crossprod(x) = t(x) %*% x; crossprod(x, y) = t(x) %*% y.
                // Composed from the transpose and product nodes, so the
                // optimizer sees the Gram-matrix structure.
                [RValue::Matrix(x)] => Ok(RValue::Matrix(x.try_t()?.try_matmul(x)?)),
                [RValue::Matrix(x), RValue::Matrix(y)] => {
                    Ok(RValue::Matrix(x.try_t()?.try_matmul(y)?))
                }
                _ => Err(RError::Runtime(
                    "crossprod() needs one or two matrices".to_string(),
                )),
            },
            "nrow" | "ncol" => match self.arg1(&positional, name)? {
                RValue::Matrix(m) => {
                    let (r, c) = m.shape();
                    Ok(RValue::Scalar(if name == "nrow" { r } else { c } as f64))
                }
                _ => Err(RError::Runtime(format!("{name}() needs a matrix"))),
            },
            "print" => {
                let v = self.arg1(&positional, name)?.clone();
                let text = self.format_value(&v)?;
                self.output.push_str(&text);
                self.output.push('\n');
                Ok(RValue::Null)
            }
            "explain" => {
                // Engine-transparent: deferred engines print the optimized
                // logical plan, eager engines report the value as already
                // materialized (same program text runs everywhere).
                let text = match self.arg1(&positional, name)? {
                    RValue::Vector { v, .. } => self.session.explain(v),
                    RValue::Matrix(m) => self.session.explain_mat(m),
                    _ => "<value> (nothing to explain)".to_string(),
                };
                self.output.push_str(text.trim_end());
                self.output.push('\n');
                Ok(RValue::Null)
            }
            "riot.limits" => {
                // riot.limits() prints the session's current resource
                // budgets; riot.limits(clear=TRUE) lifts them; any other
                // named argument tightens that one budget for every query
                // the session runs from here on.
                if vals.is_empty() {
                    let l = self.session.limits();
                    let show = |v: Option<u64>| match v {
                        Some(x) => x.to_string(),
                        None => "unlimited".to_string(),
                    };
                    let text = format!(
                        "deadline_ms={} max_reads={} max_writes={} max_flops={} \
                         max_pinned_frames={} max_temp_blocks={}",
                        match l.deadline {
                            Some(d) => d.as_millis().to_string(),
                            None => "unlimited".to_string(),
                        },
                        show(l.max_reads),
                        show(l.max_writes),
                        show(l.max_flops),
                        show(l.max_pinned_frames),
                        show(l.max_temp_blocks),
                    );
                    self.output.push_str(&text);
                    self.output.push('\n');
                    return Ok(RValue::Null);
                }
                if let Some(v) = named("clear") {
                    if self.as_scalar(v)? != 0.0 {
                        self.session.clear_limits();
                        return Ok(RValue::Null);
                    }
                }
                let mut l = self.session.limits();
                if let Some(v) = named("deadline_ms") {
                    l.deadline = Some(std::time::Duration::from_millis(self.as_scalar(v)? as u64));
                }
                if let Some(v) = named("max_reads") {
                    l.max_reads = Some(self.as_scalar(v)? as u64);
                }
                if let Some(v) = named("max_writes") {
                    l.max_writes = Some(self.as_scalar(v)? as u64);
                }
                if let Some(v) = named("max_flops") {
                    l.max_flops = Some(self.as_scalar(v)? as u64);
                }
                if let Some(v) = named("max_pinned_frames") {
                    l.max_pinned_frames = Some(self.as_scalar(v)? as u64);
                }
                if let Some(v) = named("max_temp_blocks") {
                    l.max_temp_blocks = Some(self.as_scalar(v)? as u64);
                }
                self.session.set_limits(l);
                Ok(RValue::Null)
            }
            other => Err(RError::Runtime(format!(
                "could not find function \"{other}\""
            ))),
        }
    }

    /// `riot.profile(expr)`: evaluate and force `expr` inside a profiled
    /// region, append the flat I/O profile to the script output, and return
    /// the value. `riot.profile()` with no argument prints the session's
    /// cumulative counted I/O and pool counters instead.
    fn profile_builtin(&mut self, args: &[(Option<String>, Expr)]) -> RResult<RValue> {
        if args.is_empty() {
            self.output.push_str(&format!(
                "io:   {}\n{}\n",
                self.session.io_snapshot(),
                self.session.pool_stats()
            ));
            return Ok(RValue::Null);
        }
        // A clone is a second handle onto the same runtime, so the closure
        // can borrow the interpreter mutably while the profiler brackets it.
        let session = self.session.clone();
        let (res, profile) = session.profile(|| -> RResult<RValue> {
            let v = self.eval(&args[0].1)?;
            self.force(&v)?;
            Ok(v)
        });
        let v = res?;
        self.output.push_str(&profile.render_flat());
        Ok(v)
    }

    /// Drive a deferred value to completion so its work lands inside the
    /// profiled region rather than at some later forcing point.
    fn force(&mut self, v: &RValue) -> RResult<()> {
        match v {
            RValue::Vector { v, .. } => {
                v.collect()?;
            }
            RValue::Matrix(m) => {
                m.collect()?;
            }
            _ => {}
        }
        Ok(())
    }

    /// `1:n`, or `numeric(0)` for `n == 0` (where `1:0` would count down).
    fn seq_len(&self, n: i64) -> RResult<RVec> {
        Ok(if n == 0 {
            self.session.literal(&[])?
        } else {
            self.session.range(1, n)?
        })
    }

    fn arg1<'v>(&self, positional: &[&'v RValue], name: &str) -> RResult<&'v RValue> {
        positional
            .first()
            .copied()
            .ok_or_else(|| RError::Runtime(format!("{name}() needs an argument")))
    }

    /// A deferred scalar where the script needs the number itself (a
    /// subscript, the target of one): observed. Anything else as it is.
    fn observed(&self, v: RValue) -> RResult<RValue> {
        match &v {
            RValue::Vector { v: x, .. } if x.is_scalar() => Ok(RValue::Scalar(x.collect()?[0])),
            _ => Ok(v),
        }
    }

    fn as_scalar(&self, v: &RValue) -> RResult<f64> {
        match v {
            RValue::Scalar(x) => Ok(*x),
            RValue::Vector { v, .. } if v.len() == 1 => Ok(v.collect()?[0]),
            _ => Err(RError::Runtime("expected a single value".to_string())),
        }
    }

    fn to_vector(&mut self, v: RValue) -> RResult<RVec> {
        match v {
            RValue::Vector { v, .. } => Ok(v),
            RValue::Scalar(x) => Ok(self.session.literal(&[x])?),
            _ => Err(RError::Runtime("expected a numeric value".to_string())),
        }
    }

    /// R-style rendering: `[1] 1 4 9`, eight values per line.
    fn format_value(&mut self, v: &RValue) -> RResult<String> {
        Ok(match v {
            RValue::Scalar(x) => format!("[1] {}", format_num(*x)),
            RValue::Str(s) => format!("[1] \"{s}\""),
            RValue::Null => "NULL".to_string(),
            RValue::Vector { v, .. } => {
                let values = v.collect()?;
                format_vector(&values)
            }
            RValue::Matrix(m) => {
                let (rows, cols, data) = m.collect()?;
                let mut out = String::new();
                out.push_str("     ");
                for j in 0..cols {
                    out.push_str(&format!("{:>8}", format!("[,{}]", j + 1)));
                }
                for i in 0..rows {
                    out.push_str(&format!("\n[{},] ", i + 1));
                    for j in 0..cols {
                        out.push_str(&format!("{:>8}", format_num(data[i * cols + j])));
                    }
                }
                out
            }
        })
    }
}

/// Format one number the way R's default print does (up to 7 significant
/// digits, no trailing zeros).
fn format_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{:.6}", x);
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    }
}

fn format_vector(values: &[f64]) -> String {
    if values.is_empty() {
        return "numeric(0)".to_string();
    }
    let mut out = String::new();
    for (i, chunk) in values.chunks(8).enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("[{}]", i * 8 + 1));
        for v in chunk {
            out.push(' ');
            out.push_str(&format_num(*v));
        }
    }
    out
}

fn map_binop(op: BinaryOp) -> BinOp {
    match op {
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => BinOp::Div,
        BinaryOp::Pow => BinOp::Pow,
        BinaryOp::Mod => BinOp::Mod,
        BinaryOp::Eq => BinOp::Eq,
        BinaryOp::Ne => BinOp::Ne,
        BinaryOp::Lt => BinOp::Lt,
        BinaryOp::Le => BinOp::Le,
        BinaryOp::Gt => BinOp::Gt,
        BinaryOp::Ge => BinOp::Ge,
        BinaryOp::And => BinOp::And,
        BinaryOp::Or => BinOp::Or,
        BinaryOp::Range | BinaryOp::MatMul => unreachable!("handled by caller"),
    }
}

fn is_logical_op(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::And
            | BinaryOp::Or
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_core::EngineKind;

    fn run_with(kind: EngineKind, src: &str) -> String {
        let mut i = Interpreter::new(EngineConfig::new(kind));
        i.run(src).unwrap_or_else(|e| panic!("{kind:?}: {e}"))
    }

    fn run(src: &str) -> String {
        run_with(EngineKind::Riot, src)
    }

    #[test]
    fn scalar_arithmetic() {
        assert_eq!(run("print(1 + 2 * 3)").trim(), "[1] 7");
        assert_eq!(run("print(2 ^ 10)").trim(), "[1] 1024");
        assert_eq!(run("print(7 %% 3)").trim(), "[1] 1");
        assert_eq!(run("print(-2^2)").trim(), "[1] -4");
    }

    #[test]
    fn vector_pipeline() {
        assert_eq!(run("x <- 1:10\nprint(sum(x^2))").trim(), "[1] 385");
        assert_eq!(run("print(mean(1:9))").trim(), "[1] 5");
    }

    #[test]
    fn vector_printing_format() {
        let out = run("print(1:10)");
        assert_eq!(out.trim(), "[1] 1 2 3 4 5 6 7 8\n[9] 9 10");
    }

    #[test]
    fn example_1_runs_on_all_engines_identically() {
        let src = "\
d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
s <- sample(length(x), 5)
z <- d[s]
print(sum(z > 0))";
        let mut outs = Vec::new();
        for kind in EngineKind::all() {
            let mut i = Interpreter::new(EngineConfig::new(kind));
            i.bind_vector("x", 200, |k| (k as f64).sin() * 5.0).unwrap();
            i.bind_vector("y", 200, |k| (k as f64).cos() * 5.0).unwrap();
            i.bind_scalar("xs", 0.0);
            i.bind_scalar("ys", 0.0);
            i.bind_scalar("xe", 3.0);
            i.bind_scalar("ye", 4.0);
            outs.push(i.run(src).unwrap());
        }
        for w in outs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(outs[0].trim(), "[1] 5");
    }

    #[test]
    fn figure_2_script() {
        let src = "\
b <- a^2
b[b > 100] <- 100
print(b[1:10])";
        for kind in EngineKind::all() {
            let mut i = Interpreter::new(EngineConfig::new(kind));
            i.bind_vector("a", 50, |k| k as f64).unwrap();
            let out = i.run(src).unwrap();
            // a = 0..49; squares clamped at 100: 0 1 4 9 16 25 36 49 64 81.
            assert_eq!(out.trim(), "[1] 0 1 4 9 16 25 36 49\n[9] 64 81", "{kind:?}");
        }
    }

    #[test]
    fn indexed_assignment() {
        let out = run("x <- 1:5\nx[2] <- 99\nx[c(4,5)] <- 0\nprint(x)");
        assert_eq!(out.trim(), "[1] 1 99 3 0 0");
    }

    #[test]
    fn logical_subscript_read() {
        let out = run("x <- 1:10\nprint(x[x > 7])");
        assert_eq!(out.trim(), "[1] 8 9 10");
    }

    #[test]
    fn control_flow_for_and_if() {
        let out = run("\
total <- 0
for (i in 1:10) {
  if (i %% 2 == 0) {
    total <- total + i
  }
}
print(total)");
        assert_eq!(out.trim(), "[1] 30");
    }

    #[test]
    fn matrix_multiplication_chain() {
        let src = "\
a <- matrix(1:6, nrow = 2, ncol = 3)
b <- matrix(1:6, nrow = 3, ncol = 2)
c0 <- a %*% b
print(c0)";
        let out = run(src);
        // R: a = [1 3 5; 2 4 6], b = [1 4; 2 5; 3 6] -> [22 49; 28 64].
        assert!(out.contains("22"), "{out}");
        assert!(out.contains("49"), "{out}");
        assert!(out.contains("28"), "{out}");
        assert!(out.contains("64"), "{out}");
    }

    #[test]
    fn transpose_and_dims() {
        let out = run("\
m <- matrix(1:6, nrow = 2, ncol = 3)
print(nrow(t(m)))
print(ncol(t(m)))");
        assert_eq!(out.trim(), "[1] 3\n[1] 2");
    }

    #[test]
    fn matrix_takes_nrow_and_ncol_by_position() {
        // R's formal order is matrix(data, nrow, ncol); every spelling of
        // 2 x 3 is the same matrix, and the issue's reproducer factors.
        let dims = |call: &str| format!("m <- {call}\nprint(nrow(m))\nprint(ncol(m))\nprint(m)");
        for kind in EngineKind::all() {
            let want = run_with(kind, &dims("matrix(1:6, nrow = 2, ncol = 3)"));
            assert!(want.starts_with("[1] 2\n[1] 3\n"), "{kind:?}:\n{want}");
            for call in [
                "matrix(1:6, 2, 3)",
                "matrix(1:6, 2)",
                "matrix(1:6, ncol = 3)",
                "matrix(1:6, 2, ncol = 3)",
            ] {
                assert_eq!(run_with(kind, &dims(call)), want, "{kind:?}: {call}");
            }
            let gram = run_with(kind, "print(nrow(chol(matrix(c(4, 1, 1, 3), 2, 2))))");
            assert_eq!(gram.trim(), "[1] 2", "{kind:?}");
            for (call, says) in [
                ("matrix(1:6, 2, 3, 4)", "at most three"),
                ("matrix(1:6, 2, nrow = 3)", "nrow given both"),
                ("matrix(1:6, 2, 3, ncol = 3)", "ncol given both"),
            ] {
                let mut i = Interpreter::new(EngineConfig::new(kind));
                match i.run(call) {
                    Err(RError::Runtime(m)) => assert!(m.contains(says), "{kind:?}: {call}: {m}"),
                    other => panic!("{kind:?}: {call}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn builtins() {
        assert_eq!(run("print(length(3:7))").trim(), "[1] 5");
        assert_eq!(run("print(head(1:100, 3))").trim(), "[1] 1 2 3");
        assert_eq!(run("print(max(pmin(1:5, 3)))").trim(), "[1] 3");
        assert_eq!(
            run("print(ifelse(c(1,0,1), c(10,20,30), c(-1,-2,-3)))").trim(),
            "[1] 10 -2 30"
        );
    }

    #[test]
    fn sparse_builtins() {
        // sparse(i, j, v, nrow, ncol): a 3-nnz 6x6 matrix times identity.
        let src = "\
a <- sparse(c(1, 3, 6), c(2, 3, 1), c(10, 20, 30), 6, 6)
print(nnz(a))
print(nrow(a))
d <- as.dense(a)
print(nnz(d))
s2 <- as.sparse(d)
print(nnz(s2))";
        for kind in EngineKind::all() {
            let out = run_with(kind, src);
            assert_eq!(out.trim(), "[1] 3\n[1] 6\n[1] 3\n[1] 3", "{kind:?}: {out}");
        }
    }

    #[test]
    fn sparse_matmul_through_script() {
        let src = "\
a <- sparse(c(1, 2), c(1, 2), c(2, 3), 2, 2)
b <- matrix(c(1, 0, 0, 1), nrow = 2, ncol = 2)
print(a %*% b)";
        let out = run(src);
        assert!(out.contains('2'), "{out}");
        assert!(out.contains('3'), "{out}");
    }

    #[test]
    fn sparse_transpose_through_script() {
        // t() on a sparse matrix stays sparse under the deferred engines
        // (nnz is answered from the transposed handle) and all four
        // operand-format combinations of %*% agree across engines.
        let src = "\
a <- sparse(c(1, 2, 4), c(3, 1, 2), c(5, 7, 9), 4, 4)
ta <- t(a)
print(nnz(ta))
print(nrow(ta))
b <- t(t(a))
print(nnz(b))
d <- as.dense(a)
p1 <- a %*% a
p2 <- a %*% d
p3 <- d %*% a
p4 <- d %*% d
print(sum(nnz(p1) + nnz(p2) + nnz(p3) + nnz(p4)))";
        let mut outs = Vec::new();
        for kind in EngineKind::all() {
            outs.push(run_with(kind, src));
        }
        for w in outs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        // t(a) keeps the 3 non-zeros and swaps dims; t(t(a)) is a again.
        assert!(outs[0].starts_with("[1] 3\n[1] 4\n[1] 3\n"), "{}", outs[0]);
    }

    #[test]
    fn sparse_named_dims_and_bounds() {
        assert_eq!(
            run("print(nnz(sparse(c(2), c(2), c(5), nrow = 4, ncol = 3)))").trim(),
            "[1] 1"
        );
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        assert!(matches!(
            i.run("sparse(c(9), c(1), c(1), 2, 2)"),
            Err(RError::Runtime(m)) if m.contains("out of bounds")
        ));
        // Empty triplets with no dimensions: an error, not a panic; with
        // explicit dimensions: a legal all-zero matrix.
        assert!(matches!(
            i.run("sparse(c(), c(), c())"),
            Err(RError::Runtime(m)) if m.contains("dimensions must be positive")
        ));
        assert_eq!(
            run("print(nnz(sparse(c(), c(), c(), nrow = 3, ncol = 3)))").trim(),
            "[1] 0"
        );
    }

    #[test]
    fn nnz_of_vector_counts_nonzeros() {
        assert_eq!(run("print(nnz(c(0, 1, 0, 2, 0)))").trim(), "[1] 2");
    }

    #[test]
    fn seq_and_numeric() {
        assert_eq!(run("print(sum(seq_len(4)))").trim(), "[1] 10");
        assert_eq!(run("print(sum(numeric(5)))").trim(), "[1] 0");
    }

    #[test]
    fn errors_are_reported() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        assert!(matches!(i.run("print(zz)"), Err(RError::Runtime(_))));
        assert!(matches!(i.run("x <- ("), Err(RError::Parse(_))));
        assert!(matches!(
            i.run("nosuchfn(1)"),
            Err(RError::Runtime(m)) if m.contains("nosuchfn")
        ));
    }

    #[test]
    fn environment_persists_across_runs() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        i.run("x <- 21").unwrap();
        let out = i.run("print(x * 2)").unwrap();
        assert_eq!(out.trim(), "[1] 42");
    }

    #[test]
    fn riot_limits_builtin_sets_prints_and_clears() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        let out = i.run("riot.limits()").unwrap();
        assert!(out.contains("max_reads=unlimited"), "{out}");
        i.run("riot.limits(max_reads = 1000, deadline_ms = 60000)")
            .unwrap();
        let out = i.run("riot.limits()").unwrap();
        assert!(out.contains("max_reads=1000"), "{out}");
        assert!(out.contains("deadline_ms=60000"), "{out}");
        // Queries still run under generous limits.
        let out = i.run("x <- 1:64\nprint(sum(x))").unwrap();
        assert_eq!(out.trim(), "[1] 2080");
        i.run("riot.limits(clear = TRUE)").unwrap();
        let out = i.run("riot.limits()").unwrap();
        assert!(out.contains("max_reads=unlimited"), "{out}");
    }

    #[test]
    fn riot_limits_budget_trip_surfaces_as_exec_error() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        i.run("riot.limits(max_flops = 10)").unwrap();
        let err = i.run("x <- 1:4096\nprint(sum(x * 2 + 1))").unwrap_err();
        match err {
            RError::Exec(e) => assert!(e.is_governance_abort(), "{e}"),
            other => panic!("expected exec error, got {other}"),
        }
        // Clearing limits makes the same program succeed again.
        i.run("riot.limits(clear = TRUE)").unwrap();
        let out = i.run("print(sum(x * 2 + 1))").unwrap();
        assert!(!out.trim().is_empty());
    }

    #[test]
    fn pending_cancel_interrupts_between_statements() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        i.run("x <- 1:32").unwrap();
        i.session().cancel_handle().cancel();
        let err = i.run("y <- x + 1\nprint(sum(y))").unwrap_err();
        match err {
            RError::Exec(e) => assert!(e.is_governance_abort(), "{e}"),
            other => panic!("expected cancellation, got {other}"),
        }
        // A reset restores the session.
        i.session().reset_cancel();
        let out = i.run("print(sum(x))").unwrap();
        assert_eq!(out.trim(), "[1] 528");
    }

    #[test]
    fn a_deferred_scalar_is_computed_where_it_is_observed() {
        // `m` is 3 and a bare aggregate. Each row is one way a script (or
        // its host) can come to need the number: under Riot the aggregate
        // is pending before the row runs and has its value after, and
        // every engine prints the same thing.
        let setup = "x <- 1:8\nm <- sum(x[1:2])";
        let observations = [
            "print(m)",
            "if (m > 2) print(7)",
            "for (i in m) print(i)",
            "print(m:4)",
            "print(length(1:m))",
            "print(c(m, 1))",
            "print(head(x, m))",
            "print(head(m))",
            "print(x[m])",
            "y <- x\ny[m] <- 0\nprint(y)",
            "y <- x\ny[x > m] <- m\nprint(y)",
            "print(x - m)",
            "print(sum(x * m) / m + mean(m))",
            "print(seq_len(m))",
            "print(matrix(m, 1, 1))",
            "print(nnz(m))",
        ];
        for observe in observations {
            let outputs = EngineKind::all().map(|kind| {
                let mut i = Interpreter::new(EngineConfig::new(kind));
                i.run(setup).unwrap();
                let before = i.session().pending_scalars();
                assert_eq!(before, usize::from(kind == EngineKind::Riot), "{kind:?}");
                let out = i
                    .run(observe)
                    .unwrap_or_else(|e| panic!("{kind:?}: {observe}: {e}"));
                assert_eq!(i.session().pending_scalars(), 0, "{kind:?}: {observe}");
                assert!(matches!(i.get("m"), Some(RValue::Scalar(m)) if *m == 3.0));
                out
            });
            assert!(
                outputs.windows(2).all(|w| w[0] == w[1]),
                "{observe}: {outputs:?}"
            );
        }
        // Errors are the same errors too: a scalar is not a vector.
        for bad in ["m[1]", "m[1] <- 2"] {
            for kind in EngineKind::all() {
                let mut i = Interpreter::new(EngineConfig::new(kind));
                i.run(setup).unwrap();
                let err = i.run(bad);
                assert!(matches!(&err, Err(RError::Runtime(m)) if m.contains("not a vector")));
            }
        }
        // Profiling and asking the host both observe; `Interpreter::run`
        // returning does not, and a failed look leaves the scalar pending.
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        i.run(setup).unwrap();
        let profiled = i.run("riot.profile(m)").unwrap();
        assert!(
            profiled.contains("spans          1"),
            "the batch:\n{profiled}"
        );
        assert_eq!(i.session().pending_scalars(), 0);
        i.run("v <- mean(x)\nw <- mean(x[9:9])").unwrap();
        assert_eq!(i.session().pending_scalars(), 2);
        assert!(matches!(i.get("v"), Some(RValue::Scalar(v)) if *v == 4.5));
        assert!(
            matches!(i.get("w"), Some(RValue::Vector { .. })),
            "9 is out of bounds"
        );
        assert_eq!(i.session().pending_scalars(), 1);
    }

    #[test]
    fn deferred_aggregates_share_a_pass_and_run_once() {
        // The iot rollup: nothing runs in the loop, and `print(rsum)`
        // resolves each window's three aggregates over one gather.
        let rollup = "\
rsum <- numeric(3)
rmin <- numeric(3)
rmax <- numeric(3)
for (j in 1:3) {
  win <- s[((j - 1) * 64 + 1):(j * 64)]
  rsum[j] <- sum(win)
  rmin[j] <- min(win)
  rmax[j] <- max(win)
}";
        let prints = "print(rsum)\nprint(rmin)\nprint(rmax)";
        let outputs = EngineKind::all().map(|kind| {
            let mut cfg = EngineConfig::new(kind);
            cfg.block_size = 512; // one window per block
            cfg.chunk_elems = 64;
            let mut i = Interpreter::new(cfg);
            i.bind_vector("s", 192, |k| ((k * 13) % 17) as f64).unwrap();
            let session = i.session().clone();
            session.drop_caches().unwrap();
            let before = session.io_snapshot();
            i.run(rollup).unwrap();
            if kind == EngineKind::Riot {
                assert_eq!(session.pending_scalars(), 9);
                assert_eq!((session.io_snapshot() - before).reads, 0);
                i.run("print(rsum)").unwrap();
                assert_eq!(session.pending_scalars(), 0, "min and max rode along");
                assert_eq!((session.io_snapshot() - before).reads, 3);
            }
            i.run(prints).unwrap()
        });
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");

        // `sum(d)` twice is one pass: the value is the node's.
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        let mut i = Interpreter::new(cfg);
        i.bind_vector("x", 640, |k| k as f64).unwrap();
        let session = i.session().clone();
        let mut reads = Vec::new();
        for _ in 0..2 {
            session.drop_caches().unwrap();
            let before = session.io_snapshot();
            assert_eq!(
                i.run("d <- x * 2\nprint(sum(d))").unwrap().trim(),
                "[1] 408960"
            );
            reads.push((session.io_snapshot() - before).reads);
        }
        assert_eq!(reads, [10, 0]);
    }

    #[test]
    fn a_long_unobserved_loop_stays_shallow() {
        // Nothing observes `acc` for 5000 rounds. A scalar over a DAG
        // deeper than the bound is observed where it is built, so neither
        // the chain under `acc` nor the number of pending aggregates
        // grows with the loop (and planning it never runs out of stack).
        let outputs = [EngineKind::PlainR, EngineKind::Riot].map(|kind| {
            let mut i = Interpreter::new(EngineConfig::new(kind));
            i.bind_vector("x", 8, |k| k as f64).unwrap();
            let out = i
                .run("acc <- 0\nfor (i in 1:5000) acc <- acc + sum(x * i) / 2")
                .unwrap();
            assert!(i.session().pending_scalars() < 200, "{kind:?}");
            out + &i.run("print(acc)").unwrap()
        });
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0].trim(), "[1] 175035000");
    }

    #[test]
    fn right_arrow_assignment_works() {
        assert_eq!(run("5 -> y\nprint(y)").trim(), "[1] 5");
    }

    #[test]
    fn runif_is_deterministic_per_interpreter() {
        let a = run("x <- runif(5)\nprint(sum(x) > 0)");
        let b = run("x <- runif(5)\nprint(sum(x) > 0)");
        assert_eq!(a, b);
    }

    #[test]
    fn explain_prints_a_plan_under_deferred_engines() {
        let src = "x <- 1:100\ny <- sqrt(x^2 + 1)\nexplain(y[c(3, 7)])";
        let out = run(src);
        // The optimizer pushed the 2-element gather through the whole
        // pipeline: every node in the printed plan is already vec[2].
        assert!(out.contains("map sqrt"), "optimized plan shown:\n{out}");
        assert!(out.contains("vec[2]"), "gather pushed down:\n{out}");
        assert!(out.contains("└─"), "plan renders as a tree:\n{out}");
    }

    #[test]
    fn explain_is_engine_transparent() {
        // The same program runs under every engine; eager engines report
        // the value as materialized instead of erroring.
        let src = "x <- 1:20\nexplain(x + 1)";
        for kind in EngineKind::all() {
            let out = run_with(kind, src);
            assert!(!out.is_empty(), "{kind:?} produced no explain output");
        }
        let eager = run_with(EngineKind::PlainR, src);
        assert!(eager.contains("<materialized>"), "{eager}");
    }

    #[test]
    fn explain_matrix_and_scalar() {
        let out = run("m <- matrix(1:12, nrow = 3)\nexplain(t(m) %*% m)");
        assert!(!out.trim().is_empty(), "{out}");
        assert!(run("explain(42)").contains("nothing to explain"));
    }

    #[test]
    fn riot_profile_brackets_its_argument() {
        let src = "x <- 1:512\nz <- riot.profile(sum(x * 2))\nprint(z)";
        for kind in EngineKind::all() {
            let out = run_with(kind, src);
            assert!(out.contains("engine"), "{kind:?}:\n{out}");
            assert!(out.contains("flops"), "{kind:?}:\n{out}");
            // The profiled value is returned unchanged and still usable.
            assert!(out.trim_end().ends_with("[1] 262656"), "{kind:?}:\n{out}");
        }
    }

    #[test]
    fn riot_profile_without_args_reports_session_counters() {
        let out = run("x <- 1:256\nprint(sum(x))\nriot.profile()");
        assert!(out.contains("[1] 32896"), "{out}");
        // Cumulative counters, not a per-query profile: one line each.
        for prefix in ["io:", "pool:"] {
            let n = out.lines().filter(|l| l.starts_with(prefix)).count();
            assert_eq!(n, 1, "exactly one `{prefix}` line:\n{out}");
        }
        assert!(out.contains("hit rate"), "pool stats present:\n{out}");
    }

    #[test]
    fn factorization_builtins_agree_across_engines() {
        // chol/solve/crossprod through the script layer: the factor
        // reconstructs the input, solve recovers a known solution, and the
        // normal-equations composition runs end to end — identically on
        // all four engines.
        let src = "\
a <- matrix(c(4, 1, 1, 1, 5, 2, 1, 2, 6), nrow = 3, ncol = 3)
l <- chol(a)
print(l %*% t(l))
b <- matrix(c(9, 17, 23), nrow = 3, ncol = 1)
print(solve(a, b))
xx <- matrix(1:12, nrow = 6, ncol = 2)
yy <- matrix(1:6, nrow = 6, ncol = 1)
beta <- solve(crossprod(xx), crossprod(xx, yy))
print(nrow(beta))";
        let mut outs = Vec::new();
        for kind in EngineKind::all() {
            outs.push((kind, run_with(kind, src)));
        }
        for w in outs.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
        }
        // L %*% t(L) prints a again (4 ... 6) and x = a \ b is [1 2 3].
        let out = &outs[0].1;
        assert!(out.contains('4') && out.contains('6'), "{out}");
        assert!(out.contains("[1] 2"), "beta is 2x1:\n{out}");
    }

    #[test]
    fn solve_unary_is_refused_and_non_pd_chol_errors() {
        let mut i = Interpreter::new(EngineConfig::new(EngineKind::Riot));
        // R's solve(a) materializes an inverse — exactly what the engine
        // refuses to do; the error says to use the two-argument form.
        i.run("a <- matrix(c(4, 1, 1, 3), nrow = 2, ncol = 2)")
            .unwrap();
        assert!(matches!(
            i.run("solve(a)"),
            Err(RError::Runtime(m)) if m.contains("solve(a, b)")
        ));
        // chol of an indefinite matrix is the typed executor error naming
        // the failing pivot, on eager and deferred engines alike.
        for kind in EngineKind::all() {
            let mut i = Interpreter::new(EngineConfig::new(kind));
            i.run("m <- matrix(c(1, 2, 2, 1), nrow = 2, ncol = 2)")
                .unwrap();
            let err = i.run("print(chol(m))");
            assert!(
                matches!(
                    &err,
                    Err(RError::Exec(
                        riot_core::exec::ExecError::NotPositiveDefinite { pivot: 1, .. }
                    ))
                ),
                "{kind:?}: {err:?}"
            );
        }
    }
}
