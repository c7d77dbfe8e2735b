//! The corpus manifest format: one file per workload, parsed from a
//! small line-based syntax so budgets stay human-reviewable in diffs.
//!
//! ```text
//! description = Ridge regression via the normal-equations solve path
//! engines = plain_r strawman mat_named riot
//!
//! [profile test]
//! block_size = 512
//! mem_blocks = 24
//! chunk_elems = 64
//! param n = 44
//! param p = 4
//! checksum = 0x1b2c3d4e5f607182
//! budget plain_r = reads 120 writes 48
//! ```
//!
//! The checksum is FNV-1a over the script's printed output; the budgets
//! are **exact** counted block I/O per engine, valid for every thread
//! count and prefetch depth (parallelism and prefetch change timing,
//! never counted I/O — the invariant the grid asserts). Regenerate both
//! with `cargo run --release -p riot-bench --bin riot-corpus -- --update`
//! after an intentional change; the file is machine-rewritten, so
//! comments do not survive regeneration.

use riot_core::EngineKind;

/// Exact counted-I/O budget for one engine under one profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Counted block reads (buffer pool + paging heap).
    pub reads: u64,
    /// Counted block writes.
    pub writes: u64,
}

/// One named size/memory configuration of a workload.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Profile name (`test` for CI, `full` for the `riot-corpus` gate).
    pub name: String,
    /// Block (and heap page) size in bytes.
    pub block_size: usize,
    /// Buffer-pool / paging-heap frames — the memory-ratio knob.
    pub mem_blocks: usize,
    /// Pipeline chunk size in elements.
    pub chunk_elems: usize,
    /// Workload size parameters, in file order.
    pub params: Vec<(String, u64)>,
    /// FNV-1a of the expected printed output (0 = not yet generated).
    pub checksum: u64,
    /// Exact per-engine I/O budgets, keyed by engine slug.
    pub budgets: Vec<(String, Budget)>,
}

impl Profile {
    /// Look up a size parameter; panics with the key name if missing
    /// (a manifest authoring error, not a runtime condition).
    pub fn param(&self, key: &str) -> u64 {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("profile '{}' is missing param '{key}'", self.name))
    }

    /// The budget pinned for `engine`, if generated.
    pub fn budget(&self, engine: EngineKind) -> Option<Budget> {
        let slug = engine_slug(engine);
        self.budgets
            .iter()
            .find(|(k, _)| k == slug)
            .map(|(_, b)| *b)
    }

    /// Replace (or insert) the budget for `engine`.
    pub fn set_budget(&mut self, engine: EngineKind, budget: Budget) {
        let slug = engine_slug(engine);
        if let Some(slot) = self.budgets.iter_mut().find(|(k, _)| k == slug) {
            slot.1 = budget;
        } else {
            self.budgets.push((slug.to_string(), budget));
        }
        // Canonical order keeps regenerated files diff-stable.
        self.budgets.sort_by_key(|(k, _)| {
            EngineKind::all()
                .iter()
                .position(|e| engine_slug(*e) == k)
                .unwrap_or(usize::MAX)
        });
    }
}

/// A parsed workload manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// One-line human description.
    pub description: String,
    /// Engines the workload runs under (all four for every current
    /// workload; the field exists so a future workload can exclude one).
    pub engines: Vec<EngineKind>,
    /// Profiles in file order (`test` first by convention).
    pub profiles: Vec<Profile>,
}

impl Manifest {
    /// Find a profile by name.
    pub fn profile(&self, name: &str) -> Option<&Profile> {
        self.profiles.iter().find(|p| p.name == name)
    }

    /// The cells of `measured` that read or write **more** than this
    /// manifest pins, one description each — the standing rule "counted
    /// I/O may only decrease", as a check `--update` runs before it
    /// writes. A cell this manifest has no budget for yet is new, not
    /// raised.
    pub fn raised_cells(&self, measured: &Manifest) -> Vec<String> {
        let mut raised = Vec::new();
        for new in &measured.profiles {
            let pinned = self.profile(&new.name).map_or(&[][..], |p| &p.budgets);
            for (slug, was) in pinned {
                match new.budgets.iter().find(|(k, _)| k == slug) {
                    Some((_, now)) if now.reads > was.reads || now.writes > was.writes => {
                        raised.push(format!(
                            "[{}] {slug}: {}r/{}w -> {}r/{}w",
                            new.name, was.reads, was.writes, now.reads, now.writes
                        ));
                    }
                    _ => {}
                }
            }
        }
        raised
    }

    /// Parse the manifest syntax; errors carry the offending line.
    pub fn parse(src: &str) -> Result<Manifest, String> {
        let mut m = Manifest {
            description: String::new(),
            engines: Vec::new(),
            profiles: Vec::new(),
        };
        for raw in src.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[profile ") {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("unterminated section: {line}"))?;
                m.profiles.push(Profile {
                    name: name.trim().to_string(),
                    block_size: 0,
                    mem_blocks: 0,
                    chunk_elems: 0,
                    params: Vec::new(),
                    checksum: 0,
                    budgets: Vec::new(),
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("expected 'key = value': {line}"))?;
            let (key, value) = (key.trim(), value.trim());
            match m.profiles.last_mut() {
                None => match key {
                    "description" => m.description = value.to_string(),
                    "engines" => {
                        for slug in value.split_whitespace() {
                            m.engines.push(
                                engine_from_slug(slug)
                                    .ok_or_else(|| format!("unknown engine slug: {slug}"))?,
                            );
                        }
                    }
                    _ => return Err(format!("unknown header key: {key}")),
                },
                Some(p) => {
                    if let Some(name) = key.strip_prefix("param ") {
                        p.params.push((name.trim().to_string(), parse_u64(value)?));
                    } else if let Some(slug) = key.strip_prefix("budget ") {
                        p.budgets
                            .push((slug.trim().to_string(), parse_budget(value)?));
                    } else {
                        match key {
                            "block_size" => p.block_size = parse_u64(value)? as usize,
                            "mem_blocks" => p.mem_blocks = parse_u64(value)? as usize,
                            "chunk_elems" => p.chunk_elems = parse_u64(value)? as usize,
                            "checksum" => p.checksum = parse_u64(value)?,
                            _ => return Err(format!("unknown profile key: {key}")),
                        }
                    }
                }
            }
        }
        if m.engines.is_empty() {
            return Err("manifest lists no engines".to_string());
        }
        for p in &m.profiles {
            if p.block_size == 0 || p.mem_blocks == 0 || p.chunk_elems == 0 {
                return Err(format!(
                    "profile '{}' is missing block_size/mem_blocks/chunk_elems",
                    p.name
                ));
            }
        }
        Ok(m)
    }

    /// Render back to the file syntax (the `--update` writer). Inverse of
    /// [`Manifest::parse`] up to comments and whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("description = {}\n", self.description));
        out.push_str("engines =");
        for e in &self.engines {
            out.push(' ');
            out.push_str(engine_slug(*e));
        }
        out.push('\n');
        for p in &self.profiles {
            out.push_str(&format!("\n[profile {}]\n", p.name));
            out.push_str(&format!("block_size = {}\n", p.block_size));
            out.push_str(&format!("mem_blocks = {}\n", p.mem_blocks));
            out.push_str(&format!("chunk_elems = {}\n", p.chunk_elems));
            for (k, v) in &p.params {
                out.push_str(&format!("param {k} = {v}\n"));
            }
            out.push_str(&format!("checksum = {:#018x}\n", p.checksum));
            for (slug, b) in &p.budgets {
                out.push_str(&format!(
                    "budget {slug} = reads {} writes {}\n",
                    b.reads, b.writes
                ));
            }
        }
        out
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| format!("bad number: {s}"))
}

fn parse_budget(s: &str) -> Result<Budget, String> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    match parts.as_slice() {
        ["reads", r, "writes", w] => Ok(Budget {
            reads: parse_u64(r)?,
            writes: parse_u64(w)?,
        }),
        _ => Err(format!("bad budget (want 'reads N writes M'): {s}")),
    }
}

/// Stable manifest key for an engine.
pub fn engine_slug(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::PlainR => "plain_r",
        EngineKind::Strawman => "strawman",
        EngineKind::MatNamed => "mat_named",
        EngineKind::Riot => "riot",
    }
}

/// Inverse of [`engine_slug`].
pub fn engine_from_slug(slug: &str) -> Option<EngineKind> {
    EngineKind::all()
        .into_iter()
        .find(|e| engine_slug(*e) == slug)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips() {
        let src = "description = demo\nengines = plain_r riot\n\n[profile test]\n\
                   block_size = 512\nmem_blocks = 24\nchunk_elems = 64\n\
                   param n = 44\nchecksum = 0x00000000000000ff\n\
                   budget plain_r = reads 10 writes 2\nbudget riot = reads 3 writes 0\n";
        let m = Manifest::parse(src).unwrap();
        assert_eq!(m.engines, vec![EngineKind::PlainR, EngineKind::Riot]);
        let p = m.profile("test").unwrap();
        assert_eq!(p.param("n"), 44);
        assert_eq!(p.checksum, 0xff);
        assert_eq!(
            p.budget(EngineKind::Riot),
            Some(Budget {
                reads: 3,
                writes: 0
            })
        );
        assert_eq!(Manifest::parse(&m.render()).unwrap().render(), m.render());
    }

    #[test]
    fn a_raised_cell_is_named_and_a_lowered_or_new_one_is_not() {
        let src = "description = demo\nengines = plain_r mat_named riot\n\n[profile test]\n\
                   block_size = 512\nmem_blocks = 24\nchunk_elems = 64\n\
                   checksum = 0x00000000000000ff\n\
                   budget plain_r = reads 10 writes 2\nbudget riot = reads 3 writes 4\n";
        let pinned = Manifest::parse(src).unwrap();
        assert!(pinned.raised_cells(&pinned).is_empty());
        let budget = |reads, writes| Budget { reads, writes };
        let mut doctored = pinned.clone();
        let profile = &mut doctored.profiles[0];
        profile.set_budget(EngineKind::PlainR, budget(9, 0)); // lower: fine
        profile.set_budget(EngineKind::MatNamed, budget(99, 99)); // new: fine
        profile.set_budget(EngineKind::Riot, budget(3, 5)); // one more write
        assert_eq!(
            pinned.raised_cells(&doctored),
            ["[test] riot: 3r/4w -> 3r/5w"]
        );
        doctored.profiles[0].set_budget(EngineKind::Riot, budget(4, 0));
        assert_eq!(
            pinned.raised_cells(&doctored),
            ["[test] riot: 3r/4w -> 4r/0w"]
        );
    }

    #[test]
    fn set_budget_keeps_canonical_order() {
        let mut p = Profile {
            name: "test".into(),
            block_size: 512,
            mem_blocks: 8,
            chunk_elems: 64,
            params: vec![],
            checksum: 0,
            budgets: vec![],
        };
        p.set_budget(
            EngineKind::Riot,
            Budget {
                reads: 1,
                writes: 1,
            },
        );
        p.set_budget(
            EngineKind::PlainR,
            Budget {
                reads: 2,
                writes: 2,
            },
        );
        assert_eq!(p.budgets[0].0, "plain_r");
        assert_eq!(p.budgets[1].0, "riot");
    }
}
