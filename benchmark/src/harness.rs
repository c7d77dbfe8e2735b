//! One closed-loop iteration, seen from outside: open a fresh `Session`,
//! bind the stored inputs, run the script, fetch its results, drop the
//! session, and (over a shared store) put the catalog back the way setup
//! left it — reporting what had to be dropped to get there.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use riot::array::StorageCtx;
use riot::rlang::RValue;
use riot::storage::{IoSnapshot, ObjectId, PoolStats};
use riot::trace::Tracer;
use riot::{EngineConfig, EngineKind, Interpreter, ResourceLimits, Session};

use crate::proc::{Measured, Meter};
use crate::script::{Script, StmtSpan};
use crate::store::{Catalog, DeviceReport, Instruments, Store, StoreOpts, TempFile};

/// What the traced pass adds to an iteration's report.
#[derive(Default)]
pub struct IterTrace {
    pub parse_s: f64,
    /// Statements the interpreter executed (loops unrolled).
    pub statements: u64,
    pub spans: Vec<StmtSpan>,
    pub device: DeviceReport,
}

/// Durable-commit facts (`ingest_commit` only).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitReport {
    pub commit_ms: f64,
    pub versions: u64,
}

/// Everything the harness learned from one iteration.
pub struct IterReport {
    /// Fresh session → results fetched. Verification is not in here.
    pub measured: Measured,
    pub io: IoSnapshot,
    pub pool: PoolStats,
    /// `StorageCtx::total_blocks` at the end of the iteration, before the
    /// leak clean-up.
    pub device_blocks: u64,
    pub leaked_objects: u64,
    pub leaked_blocks: u64,
    pub commit: Option<CommitReport>,
    pub trace: Option<IterTrace>,
    /// `Err` when the script failed, the catalog did not return to its
    /// post-setup state, or (set by the workload) verification failed.
    pub verdict: Result<(), String>,
}

impl IterReport {
    /// An iteration that could not even start.
    pub fn failed(why: String) -> IterReport {
        IterReport {
            measured: Measured::default(),
            io: IoSnapshot::default(),
            pool: PoolStats::default(),
            device_blocks: 0,
            leaked_objects: 0,
            leaked_blocks: 0,
            commit: None,
            trace: None,
            verdict: Err(why),
        }
    }
}

/// How one iteration should run.
#[derive(Debug, Clone, Copy)]
pub struct IterOpts {
    pub traced: bool,
    /// Attach `ResourceLimits::none()`: the governed bracket with nothing
    /// to trip.
    pub governed: bool,
    /// Engine configuration override (engine rows, `threads = 2`).
    pub cfg: Option<EngineConfig>,
}

impl IterOpts {
    pub const PLAIN: IterOpts = IterOpts {
        traced: false,
        governed: false,
        cfg: None,
    };
    pub const TRACED: IterOpts = IterOpts {
        traced: true,
        ..IterOpts::PLAIN
    };
}

/// Common engine configuration: Riot, 8 KiB blocks, LRU, one thread,
/// default chunk size; `frames` is both the pool size and the kernels'
/// memory budget.
pub fn engine_config(frames: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(EngineKind::Riot);
    cfg.mem_blocks = frames;
    cfg
}

/// The `trace` argument of [`Program::run`]: `Some` exactly when the
/// iteration is traced.
pub fn trace_sink<'a>(
    tracer: &'a Tracer,
    trace: &'a mut Option<IterTrace>,
) -> Option<(&'a Tracer, &'a mut IterTrace)> {
    trace.as_mut().map(|t| (tracer, t))
}

/// A script plus the size parameters it reads.
pub struct Program {
    script: Script,
    scalars: HashMap<&'static str, f64>,
}

impl Program {
    pub fn new(source: &str, scalars: HashMap<&'static str, f64>) -> Program {
        Program {
            script: Script::new(source),
            scalars,
        }
    }

    /// Another script over the same size parameters (the explain probes'
    /// deferred prefixes).
    pub fn with_script(&self, source: &str) -> Program {
        Program::new(source, self.scalars.clone())
    }

    /// Run in a fresh interpreter over `session`: `bind` attaches the
    /// inputs, `fetch` pulls results out at full precision. With a
    /// `trace` sink the script runs statement by statement inside
    /// `Session::profile`, and the spans are appended to the sink.
    pub fn run<O>(
        &self,
        session: &Session,
        trace: Option<(&Tracer, &mut IterTrace)>,
        bind: impl FnOnce(&mut Interpreter) -> Result<(), String>,
        fetch: impl FnOnce(&Interpreter, &str) -> Result<O, String>,
    ) -> Result<O, String> {
        let mut interp = Interpreter::with_session(session.clone());
        for (name, value) in &self.scalars {
            interp.bind_scalar(name, *value);
        }
        bind(&mut interp)?;
        let out = match trace {
            Some((tracer, sink)) => {
                let (parse_s, statements) = self.script.parse_probe(&self.scalars)?;
                let (out, spans) = self.script.run_traced(&mut interp, session, tracer)?;
                sink.parse_s += parse_s;
                sink.statements += statements;
                sink.spans.extend(spans);
                out
            }
            None => self.script.run(&mut interp)?,
        };
        fetch(&interp, &out)
    }
}

/// Microseconds `Session::explain` takes on the deferred plan bound to
/// `var` (a `fetch` closure for [`Program::run`]).
pub fn explain_us(interp: &Interpreter, var: &str) -> Result<f64, String> {
    let session = interp.session();
    let t0 = Instant::now();
    let plan = match interp.get(var) {
        Some(RValue::Vector { v, .. }) => session.explain(v),
        Some(RValue::Matrix(m)) => session.explain_mat(m),
        _ => return Err(format!("explain probe: '{var}' is not a vector or matrix")),
    };
    let us = t0.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(plan);
    Ok(us)
}

/// A store holding a workload's ingested inputs, shared by every
/// iteration of a run.
pub struct SharedEnv {
    pub store: Store,
    cfg: EngineConfig,
    /// Empty the buffer pool before each iteration (outside the timed
    /// region), so every iteration starts equally cold.
    cold_start: bool,
    /// `catalog_fingerprint()` right after setup; every iteration must
    /// start from exactly this allocation state.
    baseline: String,
    // Declared last: the file is removed after the pool above has closed.
    _file: TempFile,
}

impl SharedEnv {
    /// Create the device file, ingest through `ingest` (generator closures
    /// bound under catalog names), flush, and empty the cache.
    pub fn create(
        dir: &Path,
        label: &str,
        opts: StoreOpts,
        instruments: &Instruments,
        cold_start: bool,
        ingest: impl FnOnce(&mut Interpreter) -> Result<(), String>,
    ) -> Result<SharedEnv, String> {
        let file = TempFile::new(dir, label);
        let store = Store::open(file.path(), opts, Catalog::Fresh, instruments)?;
        let cfg = engine_config(opts.frames);
        {
            let session = Session::with_ctx(cfg, store.ctx.clone());
            let mut interp = Interpreter::with_session(session.clone());
            ingest(&mut interp)?;
            drop(interp);
            session.drop_caches().map_err(|e| format!("flush: {e}"))?;
        }
        let baseline = store.ctx.catalog_fingerprint();
        Ok(SharedEnv {
            store,
            cfg,
            cold_start,
            baseline,
            _file: file,
        })
    }

    /// One iteration of `program`; returns the report and whatever
    /// `fetch` produced (still inside the timed region).
    pub fn iterate<O>(
        &self,
        opts: IterOpts,
        program: &Program,
        bind: impl FnOnce(&mut Interpreter) -> Result<(), String>,
        fetch: impl FnOnce(&Interpreter, &str) -> Result<O, String>,
    ) -> (IterReport, Option<O>) {
        let ctx = &self.store.ctx;
        let Instruments { timer, tracer } = &self.store.instruments;
        let cfg = opts.cfg.unwrap_or(self.cfg);
        let before_ids = ctx.live_object_ids();
        let before_blocks = ctx.total_blocks();
        if self.cold_start {
            if let Err(e) = Session::with_ctx(cfg, ctx.clone()).drop_caches() {
                let why = format!("emptying the pool before the iteration: {e}");
                return (IterReport::failed(why), None);
            }
        }
        let mut trace = opts.traced.then(IterTrace::default);
        if opts.traced {
            self.store.instruments.warm();
        }
        timer.reset(opts.traced);

        let meter = Meter::start();
        let session = Session::with_ctx(cfg, ctx.clone());
        if opts.governed {
            session.set_limits(ResourceLimits::none());
        }
        let (io0, pool0) = (session.io_snapshot(), session.pool_stats());
        let run = program.run(&session, trace_sink(tracer, &mut trace), bind, fetch);
        let measured = meter.stop();
        let io = session.io_snapshot() - io0;
        let pool = session.pool_stats().delta(&pool0);
        session.clear_limits();
        drop(session);

        if let Some(t) = &mut trace {
            t.device = timer.report();
        }
        timer.reset(false);
        let device_blocks = ctx.total_blocks();
        let (leaked_objects, restored) = restore_catalog(ctx, &before_ids, &self.baseline);
        let (fetched, verdict) = match run {
            Ok(o) => (Some(o), restored),
            Err(e) => (None, Err(e)),
        };
        let report = IterReport {
            measured,
            io,
            pool,
            device_blocks,
            leaked_objects,
            leaked_blocks: device_blocks - before_blocks,
            commit: None,
            trace,
            verdict,
        };
        (report, fetched)
    }

    /// `Session::explain` latency on the plan `program` leaves in `var`
    /// without forcing it.
    pub fn explain_probe(
        &self,
        program: &Program,
        var: &str,
        bind: impl FnOnce(&mut Interpreter) -> Result<(), String>,
    ) -> Result<f64, String> {
        let (report, us) = self.iterate(IterOpts::PLAIN, program, bind, |interp, _| {
            explain_us(interp, var)
        });
        report.verdict.and(us.ok_or_else(|| "no plan".to_string()))
    }
}

/// Dropping a `Session` over a shared context does not free what it
/// materialized. Drop every object that was not live before the
/// iteration and require the catalog fingerprint to be back at `baseline`.
fn restore_catalog(
    ctx: &StorageCtx,
    before: &[ObjectId],
    baseline: &str,
) -> (u64, Result<(), String>) {
    let mut leaked = 0;
    for id in ctx.live_object_ids() {
        if before.binary_search(&id).is_err() {
            leaked += 1;
            if let Err(e) = ctx.drop_object(id) {
                return (leaked, Err(format!("dropping leaked object {id:?}: {e}")));
            }
        }
    }
    if ctx.catalog_fingerprint() != baseline {
        return (
            leaked,
            Err("catalog fingerprint did not return to its post-setup value".to_string()),
        );
    }
    (leaked, Ok(()))
}
