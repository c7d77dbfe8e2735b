//! Property tests for the paging simulator: the heap must be functionally
//! transparent (identical to plain `Vec<f64>` semantics) regardless of how
//! hard it thrashes, and its residency cap must hold at every step.

use proptest::prelude::*;
use riot_vm::{PagedHeap, VmConfig};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u8),
    Set(u8, u8, f64),
    Get(u8, u8),
    Chunk(u8, u8),
    Release(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (1u8..40).prop_map(Op::Alloc),
        4 => (any::<u8>(), any::<u8>(), -1e6f64..1e6).prop_map(|(o, i, v)| Op::Set(o, i, v)),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(o, i)| Op::Get(o, i)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(o, i)| Op::Chunk(o, i)),
        1 => any::<u8>().prop_map(Op::Release),
    ]
}

proptest! {
    /// The heap behaves exactly like a map of plain vectors, under any
    /// frame budget and page size.
    #[test]
    fn heap_is_transparent(
        ops in prop::collection::vec(op_strategy(), 1..150),
        frames in 1usize..6,
        page in 1usize..9,
    ) {
        let mut h = PagedHeap::new(VmConfig { page_elems: page, frames });
        let mut live: Vec<(riot_vm::VmId, Vec<f64>)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(n) => {
                    let id = h.alloc(n as usize).unwrap();
                    live.push((id, vec![0.0; n as usize]));
                }
                Op::Set(o, i, v) => {
                    if live.is_empty() { continue; }
                    let slot = o as usize % live.len();
                    let (id, model) = &mut live[slot];
                    if model.is_empty() { continue; }
                    let idx = i as usize % model.len();
                    h.set(*id, idx, v);
                    model[idx] = v;
                }
                Op::Get(o, i) => {
                    if live.is_empty() { continue; }
                    let (id, model) = &live[o as usize % live.len()];
                    if model.is_empty() { continue; }
                    let idx = i as usize % model.len();
                    prop_assert_eq!(h.get(*id, idx), model[idx]);
                }
                Op::Chunk(o, i) => {
                    if live.is_empty() { continue; }
                    let (id, model) = &live[o as usize % live.len()];
                    if model.is_empty() { continue; }
                    let start = i as usize % model.len();
                    let len = model.len() - start;
                    let mut out = vec![0.0; len];
                    h.read_chunk(*id, start, &mut out);
                    prop_assert_eq!(&out[..], &model[start..]);
                }
                Op::Release(o) => {
                    if live.is_empty() { continue; }
                    let (id, _) = live.remove(o as usize % live.len());
                    h.release(id);
                }
            }
            prop_assert!(h.resident_pages() <= frames, "residency cap violated");
        }

        // Full verification sweep.
        for (id, model) in &live {
            prop_assert_eq!(h.to_vec(*id), model.clone());
        }
    }

    /// I/O counters reconcile with fault statistics: every swap-in is a
    /// read, every swap-out is a write, and faults bound both.
    #[test]
    fn io_reconciles_with_faults(
        writes in prop::collection::vec((any::<u16>(), -10.0f64..10.0), 1..300),
        frames in 1usize..4,
    ) {
        let mut h = PagedHeap::new(VmConfig { page_elems: 4, frames });
        let v = h.alloc(256).unwrap();
        for (i, val) in writes {
            h.set(v, i as usize % 256, val);
        }
        let s = h.stats();
        let io = h.io_stats().snapshot();
        prop_assert_eq!(io.reads, s.swap_ins);
        prop_assert_eq!(io.writes, s.swap_outs);
        prop_assert!(s.swap_ins <= s.faults);
        prop_assert!(s.peak_resident <= frames);
    }
}
