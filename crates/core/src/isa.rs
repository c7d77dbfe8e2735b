//! Run-time instruction-set selection: the crate's only unsafe code.
//!
//! A hot kernel is written once, as a safe `#[inline(always)]` body behind
//! a [`Kernel`]; [`Isa::run`] calls it through a wrapper compiled under
//! that instruction set's target features, so each wrapper holds its own
//! copy of the body, vectorized at its own width. [`supported`] lists the
//! instruction sets the running CPU has, narrowest first, and [`run`]
//! uses the widest of them, detected once per process. The dense GEMM
//! (`exec::gemm`) and the tape's chunk kernels (`expr::Chunk`) share this
//! one detection.
//!
//! Which copy runs never changes a bit: the bodies contract no
//! multiply-add and regroup no sum, so a vector lane computes exactly the
//! scalar expression.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Work compiled once per instruction set. Implementations mark `run`
/// `#[inline(always)]`, so it lands inside each wrapper.
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Out;

    /// Do the work. `isa` is the instruction set this copy is compiled
    /// for, a constant in each copy (a kernel may size its register
    /// blocks by it).
    fn run(self, isa: Isa) -> Self::Out;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

/// An instruction set the running CPU supports: only [`supported`] makes
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa(Level);

impl Isa {
    /// `f64`s one vector register holds.
    pub(crate) fn f64_lanes(self) -> usize {
        match self.0 {
            Level::Baseline => 2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512f => 8,
        }
    }

    /// Run this instruction set's copy of `kernel`.
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Out {
        let entry: unsafe fn(K) -> K::Out = match self.0 {
            Level::Baseline => baseline,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => avx2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512f => avx512f,
        };
        // SAFETY: every entry is safe code; the wider two are compiled for
        // one target feature each (`avx2`, `avx512f`), and an `Isa` naming
        // that feature exists only after `supported` detected it on the
        // running CPU.
        unsafe { entry(kernel) }
    }
}

fn baseline<K: Kernel>(kernel: K) -> K::Out {
    kernel.run(Isa(Level::Baseline))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run(Isa(Level::Avx2))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<K: Kernel>(kernel: K) -> K::Out {
    kernel.run(Isa(Level::Avx512f))
}

/// Every instruction set the running CPU supports, narrowest first.
pub(crate) fn supported() -> Vec<Isa> {
    let mut list = vec![Isa(Level::Baseline)];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            list.push(Isa(Level::Avx2));
        }
        if is_x86_feature_detected!("avx512f") {
            list.push(Isa(Level::Avx512f));
        }
    }
    list
}

/// Run `kernel` at the widest supported instruction set, chosen on the
/// first call.
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Out {
    static WIDEST: OnceLock<Isa> = OnceLock::new();
    let widest = || *supported().last().expect("baseline is listed");
    WIDEST.get_or_init(widest).run(kernel)
}

#[cfg(test)]
impl Isa {
    /// Name for the measurement tables.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512f => "avx512f",
        }
    }
}
