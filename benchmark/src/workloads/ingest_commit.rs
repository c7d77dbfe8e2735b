//! `ingest_commit`: the storage layers used the other way round. Every
//! iteration creates a durable store, ingests 68 MiB under names, runs a
//! short script, commits, drops everything, reopens the file, reads the
//! named objects back and deletes the file. Dirty eviction, write-back,
//! `sync` and shadow-paged catalog commits do the work; a read-path gain
//! paid for on the write path shows here.

use std::collections::HashMap;
use std::time::Instant;

use riot::{Interpreter, IoSnapshot, Session};

use super::{printed_numbers, Params, Plan, Workload};
use crate::gen;
use crate::harness::{
    engine_config, explain_us, trace_sink, CommitReport, IterOpts, IterReport, IterTrace, Program,
};
use crate::proc::Meter;
use crate::store::{Catalog, Instruments, Store, StoreOpts, TempFile, BLOCK_SIZE};

const XS: u64 = 1;
const YS: u64 = 2;
const MS: u64 = 3;
/// Objects ingested under names: x, y, m.
const NAMED: u64 = 3;

#[derive(Clone, Copy)]
struct Data {
    seed: u64,
    n: usize,
    rows: usize,
    cols: usize,
}

impl Data {
    /// Small integers, so every sum is exact in any order.
    fn x(&self, i: usize) -> f64 {
        gen::below(self.seed, XS, i as u64, 16) as f64
    }

    fn y(&self, i: usize) -> f64 {
        gen::below(self.seed, YS, i as u64, 16) as f64
    }

    fn m(&self, i: usize, j: usize) -> f64 {
        gen::below(self.seed, MS, (i * self.cols + j) as u64, 8) as f64
    }
}

#[derive(Debug, PartialEq)]
struct Reference {
    dot: f64,
    sum_gram: f64,
    sum_m: f64,
}

pub struct IngestCommit {
    params: Params,
    data: Data,
    frames: usize,
    program: Program,
    instruments: Instruments,
    reopen: Program,
    reference: Option<Reference>,
}

impl IngestCommit {
    pub fn new(params: &Params) -> IngestCommit {
        let (n, rows, cols, frames) = if params.smoke {
            (1 << 16, 256, 64, 64)
        } else {
            (1 << 22, 2048, 256, 512)
        };
        IngestCommit {
            params: params.clone(),
            data: Data {
                seed: params.seed,
                n,
                rows,
                cols,
            },
            frames,
            program: Program::new(
                include_str!("../../scripts/ingest_commit.R"),
                HashMap::new(),
            ),
            instruments: Instruments::new(),
            reopen: Program::new(
                include_str!("../../scripts/ingest_reopen.R"),
                HashMap::new(),
            ),
            reference: None,
        }
    }

    fn opts(&self) -> StoreOpts {
        StoreOpts::plain(self.frames)
    }

    /// The timed part of one iteration. Fills `report` as it goes and
    /// returns the numbers printed before the commit and after the reopen.
    fn cycle(
        &self,
        file: &TempFile,
        instruments: &Instruments,
        report: &mut IterReport,
    ) -> Result<(Vec<f64>, Vec<f64>), String> {
        let d = self.data;
        let cfg = engine_config(self.frames);
        let tracer = &*instruments.tracer;

        // Ingest under names, compute, commit.
        let store = Store::open(file.path(), self.opts(), Catalog::Durable, instruments)?;
        let session = Session::with_ctx(cfg, store.ctx.clone());
        let before = self.program.run(
            &session,
            trace_sink(tracer, &mut report.trace),
            |interp: &mut Interpreter| {
                interp
                    .bind_vector_stored("x", "x", d.n, |i| d.x(i))
                    .and_then(|()| interp.bind_vector_stored("y", "y", d.n, |i| d.y(i)))
                    .and_then(|()| {
                        interp.bind_matrix_stored("m", "m", d.rows, d.cols, |i, j| d.m(i, j))
                    })
                    .map_err(|e| e.to_string())
            },
            |_, out| Ok(printed_numbers(out)),
        )?;
        let t0 = Instant::now();
        store.ctx.commit().map_err(|e| format!("commit: {e}"))?;
        report.commit = Some(CommitReport {
            commit_ms: t0.elapsed().as_secs_f64() * 1e3,
            versions: store.ctx.catalog_version().unwrap_or(0),
        });
        report.io = session.io_snapshot();
        report.pool = session.pool_stats();
        report.device_blocks = store.ctx.total_blocks();
        // What the script left behind besides the three named inputs.
        report.leaked_objects = (store.ctx.live_object_ids().len() as u64).saturating_sub(NAMED);
        let input_blocks = self.input_bytes().div_ceil(BLOCK_SIZE as u64);
        report.leaked_blocks = report.device_blocks.saturating_sub(input_blocks);
        drop(session);
        drop(store);

        // Reopen what was acknowledged and read it back by name.
        let store = Store::open(file.path(), self.opts(), Catalog::Reopen, instruments)?;
        let session = Session::with_ctx(cfg, store.ctx.clone());
        let after = self.reopen.run(
            &session,
            trace_sink(tracer, &mut report.trace),
            |interp: &mut Interpreter| {
                interp
                    .bind_open_vector("x", "x")
                    .and_then(|()| interp.bind_open_vector("y", "y"))
                    .and_then(|()| interp.bind_open_matrix("m", "m"))
                    .map_err(|e| e.to_string())
            },
            |_, out| Ok(printed_numbers(out)),
        )?;
        let (io, pool) = (session.io_snapshot(), session.pool_stats());
        report.io = add_io(report.io, io);
        report.pool.hits += pool.hits;
        report.pool.misses += pool.misses;
        report.pool.evict_writebacks += pool.evict_writebacks;
        Ok((before, after))
    }
}

fn add_io(a: IoSnapshot, b: IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        seq_reads: a.seq_reads + b.seq_reads,
        seq_writes: a.seq_writes + b.seq_writes,
        bytes_read: a.bytes_read + b.bytes_read,
        bytes_written: a.bytes_written + b.bytes_written,
        syncs: a.syncs + b.syncs,
    }
}

impl Workload for IngestCommit {
    fn plan(&self) -> Plan {
        Plan {
            warmup: 3,
            min_timed: 40,
            traced: 10,
        }
    }

    fn input_bytes(&self) -> u64 {
        let d = self.data;
        ((2 * d.n + d.rows * d.cols) * 8) as u64
    }

    /// Nothing is ingested ahead of time — ingest *is* the workload — so
    /// set-up formats, commits and reopens an empty durable store, which
    /// proves the data directory can hold one.
    fn setup(&mut self) -> Result<(), String> {
        let file = TempFile::new(&self.params.dir, "ingest_commit-format");
        let instruments = &self.instruments;
        let store = Store::open(file.path(), self.opts(), Catalog::Durable, instruments)?;
        store.ctx.commit().map_err(|e| format!("commit: {e}"))?;
        drop(store);
        Store::open(file.path(), self.opts(), Catalog::Reopen, instruments).map(drop)
    }

    fn prepare_reference(&mut self) {
        let d = self.data;
        let dot = (0..d.n).map(|i| d.x(i) * d.y(i)).sum();
        // sum(crossprod(m)) = sum over rows of (row sum)^2.
        let (mut sum_gram, mut sum_m) = (0.0, 0.0);
        for i in 0..d.rows {
            let row: f64 = (0..d.cols).map(|j| d.m(i, j)).sum();
            sum_gram += row * row;
            sum_m += row;
        }
        self.reference = Some(Reference {
            dot,
            sum_gram,
            sum_m,
        });
    }

    fn corrupt_reference(&mut self) {
        self.reference.as_mut().expect("reference prepared").sum_m += 1.0;
    }

    fn iterate(&mut self, opts: IterOpts) -> IterReport {
        let mut report = IterReport::failed(String::new());
        let file = TempFile::new(&self.params.dir, "ingest_commit");
        let instruments = self.instruments.clone();
        report.trace = opts.traced.then(IterTrace::default);
        if opts.traced {
            instruments.warm();
        }
        instruments.timer.reset(opts.traced);

        let meter = Meter::start();
        let printed = self.cycle(&file, &instruments, &mut report);
        drop(file);
        report.measured = meter.stop();

        if let Some(t) = &mut report.trace {
            t.device = instruments.timer.report();
        }
        instruments.timer.reset(false);
        report.verdict = printed.and_then(|(before, after)| {
            let want = self.reference.as_ref().ok_or("reference not prepared")?;
            // Exact: integer data. The reopened file must return the
            // committed values.
            if before != [want.dot, want.sum_gram] {
                return Err(format!(
                    "before commit printed {before:?}, reference {want:?}"
                ));
            }
            if after != [want.dot, want.sum_m] {
                return Err(format!(
                    "after reopen printed {after:?}, reference {want:?}"
                ));
            }
            Ok(())
        });
        report
    }

    fn explain_probe(&mut self) -> Result<f64, String> {
        let file = TempFile::new(&self.params.dir, "ingest_commit-explain");
        let store = Store::open(file.path(), self.opts(), Catalog::Fresh, &self.instruments)?;
        let session = Session::with_ctx(engine_config(self.frames), store.ctx.clone());
        let deferred = self.program.with_script("g <- crossprod(m)\n");
        let d = self.data;
        deferred.run(
            &session,
            None,
            |interp: &mut Interpreter| {
                interp
                    .bind_matrix_stored("m", "m", d.rows, d.cols, |i, j| d.m(i, j))
                    .map_err(|e| e.to_string())
            },
            |interp, _| explain_us(interp, "g"),
        )
    }
}
