//! Page replacement policies for the buffer pool.
//!
//! The paper's algorithms assume the buffer manager keeps the *right* pages
//! resident: the BNLJ-inspired matrix multiply pins a chunk of `A` rows
//! while streaming `B`, and the square-tiled algorithm holds three `p × p`
//! submatrices. Replacement only decides the fate of *unpinned* pages, but
//! the choice still matters for workloads that re-touch data. Three classic
//! policies are provided: LRU (default), Clock (second chance), and MRU
//! (which is optimal for cyclic scans larger than memory).

/// Frame index inside a buffer pool.
pub type FrameId = usize;

/// A replacement policy over pool frames.
///
/// The pool calls [`Replacer::record_access`] on every hit or load,
/// [`Replacer::set_evictable`] as pin counts rise and fall, and
/// [`Replacer::victim`] when it needs to free a frame. Only frames marked
/// evictable may be returned as victims.
///
/// Frames with device I/O in flight (loading, flushing, or mid-eviction —
/// see the frame state machine in `crate::pool`) are never evictable: the
/// pool clears evictability before dropping its shard lock around the
/// transfer and restores it afterwards, and `victim` removes the chosen
/// frame from the policy entirely, so a frame in the `Evicting` state
/// cannot be handed out a second time while its write-back is outstanding.
/// Policies therefore need no in-flight awareness of their own — skipping
/// busy frames falls out of the evictable flag.
pub trait Replacer {
    /// Note that `frame` was just accessed.
    fn record_access(&mut self, frame: FrameId);
    /// Mark whether `frame` may be evicted (pin count reached zero) or not.
    fn set_evictable(&mut self, frame: FrameId, evictable: bool);
    /// Choose a victim among evictable frames, removing it from the policy.
    fn victim(&mut self) -> Option<FrameId>;
    /// Forget a frame entirely (its page was freed or reassigned).
    fn remove(&mut self, frame: FrameId);
    /// Number of frames currently evictable.
    fn evictable_count(&self) -> usize;
}

/// Which policy a pool should use; see [`make_replacer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacerKind {
    /// Evict the least recently used frame.
    Lru,
    /// Second-chance clock approximation of LRU.
    Clock,
    /// Evict the most recently used frame (best for large cyclic scans).
    Mru,
}

/// Construct a boxed replacer for `capacity` frames. The box is `Send` so
/// a pool shard can migrate across threads.
pub fn make_replacer(kind: ReplacerKind, capacity: usize) -> Box<dyn Replacer + Send> {
    match kind {
        ReplacerKind::Lru => Box::new(LruReplacer::new(capacity)),
        ReplacerKind::Clock => Box::new(ClockReplacer::new(capacity)),
        ReplacerKind::Mru => Box::new(MruReplacer::new(capacity)),
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Logical timestamp of the most recent access; 0 = never accessed.
    stamp: u64,
    evictable: bool,
    present: bool,
}

/// Exact least-recently-used replacement via logical timestamps.
///
/// Victim selection is a linear scan, which is ideal at the pool sizes used
/// in the reproduction (≤ a few thousand frames) and keeps the policy
/// allocation-free on the hot path.
pub struct LruReplacer {
    slots: Vec<Slot>,
    clock: u64,
}

impl LruReplacer {
    /// Policy for a pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        LruReplacer {
            slots: vec![Slot::default(); capacity],
            clock: 0,
        }
    }
}

impl Replacer for LruReplacer {
    fn record_access(&mut self, frame: FrameId) {
        self.clock += 1;
        let s = &mut self.slots[frame];
        s.stamp = self.clock;
        s.present = true;
    }

    fn set_evictable(&mut self, frame: FrameId, evictable: bool) {
        let s = &mut self.slots[frame];
        s.present = true;
        s.evictable = evictable;
    }

    fn victim(&mut self) -> Option<FrameId> {
        let mut best: Option<(FrameId, u64)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.present && s.evictable {
                match best {
                    Some((_, stamp)) if stamp <= s.stamp => {}
                    _ => best = Some((i, s.stamp)),
                }
            }
        }
        if let Some((i, _)) = best {
            self.slots[i] = Slot::default();
        }
        best.map(|(i, _)| i)
    }

    fn remove(&mut self, frame: FrameId) {
        self.slots[frame] = Slot::default();
    }

    fn evictable_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.present && s.evictable)
            .count()
    }
}

/// Most-recently-used replacement: the mirror image of LRU.
///
/// For a cyclic scan over a file larger than the pool, LRU evicts exactly
/// the page that will be needed soonest; MRU keeps a stable prefix resident
/// and is the textbook fix. Exposed for the replacement-policy ablation.
pub struct MruReplacer {
    slots: Vec<Slot>,
    clock: u64,
}

impl MruReplacer {
    /// Policy for a pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        MruReplacer {
            slots: vec![Slot::default(); capacity],
            clock: 0,
        }
    }
}

impl Replacer for MruReplacer {
    fn record_access(&mut self, frame: FrameId) {
        self.clock += 1;
        let s = &mut self.slots[frame];
        s.stamp = self.clock;
        s.present = true;
    }

    fn set_evictable(&mut self, frame: FrameId, evictable: bool) {
        let s = &mut self.slots[frame];
        s.present = true;
        s.evictable = evictable;
    }

    fn victim(&mut self) -> Option<FrameId> {
        let mut best: Option<(FrameId, u64)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.present && s.evictable {
                match best {
                    Some((_, stamp)) if stamp >= s.stamp => {}
                    _ => best = Some((i, s.stamp)),
                }
            }
        }
        if let Some((i, _)) = best {
            self.slots[i] = Slot::default();
        }
        best.map(|(i, _)| i)
    }

    fn remove(&mut self, frame: FrameId) {
        self.slots[frame] = Slot::default();
    }

    fn evictable_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.present && s.evictable)
            .count()
    }
}

/// Second-chance (clock) replacement.
///
/// Each frame carries a reference bit set on access; the clock hand sweeps
/// frames, clearing set bits and evicting the first evictable frame whose
/// bit is already clear. A cheap, widely deployed LRU approximation.
pub struct ClockReplacer {
    referenced: Vec<bool>,
    evictable: Vec<bool>,
    present: Vec<bool>,
    hand: usize,
}

impl ClockReplacer {
    /// Policy for a pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        ClockReplacer {
            referenced: vec![false; capacity],
            evictable: vec![false; capacity],
            present: vec![false; capacity],
            hand: 0,
        }
    }
}

impl Replacer for ClockReplacer {
    fn record_access(&mut self, frame: FrameId) {
        self.referenced[frame] = true;
        self.present[frame] = true;
    }

    fn set_evictable(&mut self, frame: FrameId, evictable: bool) {
        self.present[frame] = true;
        self.evictable[frame] = evictable;
    }

    fn victim(&mut self) -> Option<FrameId> {
        let n = self.referenced.len();
        if n == 0 || self.evictable_count() == 0 {
            return None;
        }
        // At most two sweeps: the first clears reference bits, the second is
        // then guaranteed to find an unreferenced evictable frame.
        for _ in 0..2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            if self.present[i] && self.evictable[i] {
                if self.referenced[i] {
                    self.referenced[i] = false;
                } else {
                    self.present[i] = false;
                    self.evictable[i] = false;
                    return Some(i);
                }
            }
        }
        None
    }

    fn remove(&mut self, frame: FrameId) {
        self.present[frame] = false;
        self.evictable[frame] = false;
        self.referenced[frame] = false;
    }

    fn evictable_count(&self) -> usize {
        (0..self.present.len())
            .filter(|&i| self.present[i] && self.evictable[i])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch_all(r: &mut dyn Replacer, frames: &[FrameId]) {
        for &f in frames {
            r.record_access(f);
            r.set_evictable(f, true);
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut r = LruReplacer::new(4);
        touch_all(&mut r, &[0, 1, 2, 3]);
        r.record_access(0); // refresh 0; next victim should be 1
        assert_eq!(r.victim(), Some(1));
        assert_eq!(r.victim(), Some(2));
    }

    #[test]
    fn lru_respects_evictability() {
        let mut r = LruReplacer::new(3);
        touch_all(&mut r, &[0, 1, 2]);
        r.set_evictable(0, false);
        assert_eq!(r.victim(), Some(1));
        r.set_evictable(2, false);
        assert_eq!(r.victim(), None);
        assert_eq!(r.evictable_count(), 0);
    }

    #[test]
    fn mru_evicts_newest() {
        let mut r = MruReplacer::new(4);
        touch_all(&mut r, &[0, 1, 2, 3]);
        assert_eq!(r.victim(), Some(3));
        assert_eq!(r.victim(), Some(2));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut r = ClockReplacer::new(3);
        touch_all(&mut r, &[0, 1, 2]);
        // All referenced: first sweep clears bits, evicts frame 0 on wrap.
        assert_eq!(r.victim(), Some(0));
        // Frame 1 and 2 now have cleared bits; 1 is next under the hand.
        assert_eq!(r.victim(), Some(1));
        r.record_access(2);
        // 2 referenced again: it gets a second chance but is the only
        // candidate, so the second sweep takes it.
        assert_eq!(r.victim(), Some(2));
        assert_eq!(r.victim(), None);
    }

    #[test]
    fn remove_forgets_frames() {
        for kind in [ReplacerKind::Lru, ReplacerKind::Clock, ReplacerKind::Mru] {
            let mut r = make_replacer(kind, 2);
            r.record_access(0);
            r.set_evictable(0, true);
            r.remove(0);
            assert_eq!(r.victim(), None, "policy {kind:?}");
        }
    }

    #[test]
    fn victim_on_empty_policy_is_none() {
        for kind in [ReplacerKind::Lru, ReplacerKind::Clock, ReplacerKind::Mru] {
            let mut r = make_replacer(kind, 4);
            assert_eq!(r.victim(), None, "policy {kind:?}");
        }
    }
}
