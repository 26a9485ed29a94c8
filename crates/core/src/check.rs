//! Shadow access checker for the rank-wave parallel driver.
//!
//! The wave discipline — each table row written by exactly one worker of
//! its own wave, reads confined to strictly-smaller-popcount rows of
//! earlier waves — is what makes the ~95 `unsafe` raw-pointer accesses in
//! [`crate::table`] sound. This module turns that prose contract into a
//! machine check:
//!
//! * Under `--cfg blitz_check`, every [`crate::table::SyncTableView`]
//!   accessor is tagged with the worker's id and current wave popcount
//!   and validated against a **shadow table**: one atomic epoch/owner
//!   word per DP row recording which (wave, worker) last wrote it. Any
//!   cross-wave write, double-write within a wave, future-wave read, or
//!   same-wave read of a row owned by another worker panics with a
//!   precise diagnostic naming the row, the wave, and both workers.
//! * Under plain `debug_assertions` (without `blitz_check`), a cheaper
//!   subset runs with no atomics: writes must target the current wave's
//!   popcount and, when the worker claimed a chunk, fall inside its
//!   chunk of the wave's Gosper enumeration (colex rank bounds).
//! * In ordinary release builds this whole module is compiled out and
//!   the instrumentation is a true no-op — the hotpath harness pins
//!   that down.
//!
//! The third leg of the safety contract — "no `&`/`&mut` to the whole
//! shared table inside worker closures" — is a *static* property of the
//! source and cannot be observed at runtime; `cargo xtask lint` enforces
//! it instead.

use crate::bitset::RelSet;

#[cfg(blitz_check)]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-row shadow word layout (`blitz_check` only):
///
/// ```text
/// bit 63      : WRITTEN flag (0 ⇒ the row was never written via a view)
/// bits 32..40 : wave popcount of the last write (k ≤ MAX_RELS < 2^8)
/// bits  0..32 : id of the worker that performed the last write
/// ```
#[cfg(blitz_check)]
const WRITTEN: u64 = 1 << 63;

#[cfg(blitz_check)]
fn encode(wave: usize, worker: usize) -> u64 {
    WRITTEN | ((wave as u64) << 32) | (worker as u64 & 0xffff_ffff)
}

#[cfg(blitz_check)]
fn decode(word: u64) -> Option<(usize, usize)> {
    if word & WRITTEN == 0 {
        None
    } else {
        Some((((word >> 32) & 0xff) as usize, (word & 0xffff_ffff) as usize))
    }
}

/// Shadow table shared by every view of one [`crate::table::SyncTable`]:
/// one epoch/owner word per DP row plus the worker-id allocator.
#[cfg(blitz_check)]
pub(crate) struct ShadowState {
    words: Box<[AtomicU64]>,
    next_worker: AtomicUsize,
}

#[cfg(blitz_check)]
impl ShadowState {
    /// Shadow words for a `2^n`-row table, all "never written".
    pub(crate) fn new(n: usize) -> ShadowState {
        let mut words = Vec::new();
        words.resize_with(1usize << n, || AtomicU64::new(0));
        ShadowState { words: words.into_boxed_slice(), next_worker: AtomicUsize::new(0) }
    }

    /// Allocate the next worker id (one per view).
    pub(crate) fn next_worker(&self) -> usize {
        self.next_worker.fetch_add(1, Ordering::SeqCst)
    }
}

/// One view's instrumentation state: the wave/chunk the view is currently
/// processing, its worker id, and the pointer to the shared shadow table.
/// Present only in checked builds; the plain-`debug_assertions` flavour
/// carries no shadow pointer and no worker id.
#[derive(Copy, Clone)]
pub(crate) struct WaveGuard {
    /// Current wave popcount; `None` ⇒ unconstrained (single-threaded
    /// test usage outside a wave driver).
    wave: Option<usize>,
    /// Colex rank bounds `[lo, hi)` of this worker's chunk within the
    /// wave's Gosper enumeration; `None` when the caller owns the whole
    /// wave (the single-threaded fill of a degenerate table).
    chunk: Option<(u64, u64)>,
    #[cfg(blitz_check)]
    worker: usize,
    #[cfg(blitz_check)]
    shadow: *const ShadowState,
}

impl WaveGuard {
    /// Guard for a freshly created view: no wave in progress.
    #[cfg(not(blitz_check))]
    pub(crate) fn unconstrained() -> WaveGuard {
        WaveGuard { wave: None, chunk: None }
    }

    /// Guard for a freshly created view: no wave in progress, worker id
    /// drawn from the shared shadow state.
    #[cfg(blitz_check)]
    pub(crate) fn unconstrained(shadow: &ShadowState) -> WaveGuard {
        WaveGuard { wave: None, chunk: None, worker: shadow.next_worker(), shadow }
    }

    /// Enter wave `k`, optionally bounding this worker's writes to the
    /// colex rank range `chunk` within the wave.
    pub(crate) fn begin_wave(&mut self, k: usize, chunk: Option<(u64, u64)>) {
        self.wave = Some(k);
        self.chunk = chunk;
    }

    #[cfg(blitz_check)]
    fn shadow(&self) -> &ShadowState {
        // SAFETY: the shadow state is owned by the `SyncTable` this
        // view was created from, and the view contract keeps that table
        // (and hence the shadow) alive for the view's whole lifetime.
        unsafe { &*self.shadow }
    }

    /// Validate a write to row `s` under the wave discipline. Called by
    /// every `set_*` accessor of `SyncTableView` in checked builds.
    #[inline]
    pub(crate) fn check_write(&self, s: RelSet) {
        let Some(k) = self.wave else { return };
        let p = s.len();
        assert!(
            p == k,
            "wave-discipline violation: write to row {s:?} (popcount {p}) during wave {k} \
             — workers may only write rows of the current wave"
        );
        if let Some((lo, hi)) = self.chunk {
            let rank = crate::split::rank_same_popcount(u64::from(s.bits()));
            assert!(
                lo <= rank && rank < hi,
                "wave-discipline violation: write to row {s:?} at wave rank {rank}, outside \
                 this worker's chunk [{lo}, {hi}) of wave {k}"
            );
        }
        #[cfg(blitz_check)]
        {
            let word = &self.shadow().words[s.index()];
            let prev = word.swap(encode(k, self.worker), Ordering::SeqCst);
            if let Some((pw, po)) = decode(prev) {
                assert!(
                    pw != k || po == self.worker,
                    "wave-discipline violation: row {s:?} written by worker {po} and worker {} \
                     in the same wave {k} — per-wave row ownership must be disjoint",
                    self.worker
                );
            }
        }
    }

    /// Validate a read of row `s` under the wave discipline. Called by
    /// every getter of `SyncTableView` under `blitz_check`. (The
    /// plain-`debug_assertions` flavour checks writes only: read
    /// validation needs the shadow ownership words.)
    #[inline]
    pub(crate) fn check_read(&self, s: RelSet) {
        let Some(k) = self.wave else { return };
        let p = s.len();
        assert!(
            p <= k,
            "wave-discipline violation: read of row {s:?} (popcount {p}) during wave {k} \
             — rows of later waves are still being written"
        );
        #[cfg(blitz_check)]
        if p == k {
            let word = self.shadow().words[s.index()].load(Ordering::SeqCst);
            match decode(word) {
                Some((pw, po)) if pw == k && po == self.worker => {}
                Some((pw, po)) => panic!(
                    "wave-discipline violation: worker {} read row {s:?} of the current wave \
                     {k}, but the row was last written by worker {po} in wave {pw} — same-wave \
                     reads are only sound on a worker's own row",
                    self.worker
                ),
                None => panic!(
                    "wave-discipline violation: worker {} read row {s:?} of the current wave \
                     {k} before any worker wrote it",
                    self.worker
                ),
            }
        }
    }
}

// SAFETY: the guard's shadow pointer targets `ShadowState`, whose shared
// surface is entirely atomic; sending the guard to a worker thread moves
// only plain data and that pointer.
#[cfg(blitz_check)]
unsafe impl Send for WaveGuard {}

#[cfg(all(test, blitz_check))]
mod tests {
    use crate::bitset::RelSet;
    use crate::table::{AosTable, SyncTable, TableLayout};

    /// Seeded cross-wave write: a worker in wave 2 writes a popcount-3
    /// row. The shadow checker must fire — this is the self-test proving
    /// the instrumentation is live, not silently compiled out.
    #[test]
    #[should_panic(expected = "wave-discipline violation")]
    fn cross_wave_write_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread; the seeded violation is the
        // checker's to catch, not a real race.
        let mut view = unsafe { shared.view() };
        view.begin_wave(2, None);
        view.set_cost(RelSet::from_bits(0b0111), 1.0); // popcount 3 in wave 2
    }

    #[test]
    #[should_panic(expected = "same wave")]
    fn double_write_same_wave_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: two views on one thread; accesses are sequential, so
        // there is no real race — only the seeded ownership violation.
        let mut a = unsafe { shared.view() };
        let mut b = unsafe { shared.view() }; // SAFETY: as above.
        a.begin_wave(2, None);
        b.begin_wave(2, None);
        a.set_cost(RelSet::from_bits(0b0011), 1.0);
        b.set_cost(RelSet::from_bits(0b0011), 2.0); // same row, same wave, other worker
    }

    #[test]
    #[should_panic(expected = "later waves")]
    fn future_wave_read_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        view.begin_wave(2, None);
        let _ = view.cost(RelSet::from_bits(0b0111)); // popcount 3 in wave 2
    }

    #[test]
    #[should_panic(expected = "own row")]
    fn same_wave_foreign_read_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: two views on one thread, sequential accesses.
        let mut a = unsafe { shared.view() };
        let mut b = unsafe { shared.view() }; // SAFETY: as above.
        a.begin_wave(2, None);
        b.begin_wave(2, None);
        a.set_card(RelSet::from_bits(0b0011), 10.0);
        let _ = b.card(RelSet::from_bits(0b0011)); // another worker's wave-2 row
    }

    #[test]
    #[should_panic(expected = "before any worker wrote it")]
    fn unwritten_own_wave_read_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        view.begin_wave(2, None);
        let _ = view.card(RelSet::from_bits(0b0011)); // never written in this wave
    }

    #[test]
    #[should_panic(expected = "outside this worker's chunk")]
    fn out_of_chunk_write_is_detected() {
        let mut t = AosTable::with_rels(6);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        // Wave 2 of n=6 has C(6,2)=15 rows; claim ranks [0, 4) only.
        view.begin_wave(2, Some((0, 4)));
        // 0b110000 = {R4,R5} is the *last* wave-2 row (rank 14).
        view.set_cost(RelSet::from_bits(0b11_0000), 1.0);
    }

    /// The legitimate pattern — write your own row, read prior-wave and
    /// own-row data — passes through the checker untouched.
    #[test]
    fn wave_discipline_is_accepted() {
        let mut t = AosTable::with_rels(4);
        for rel in 0..4 {
            t.set_cost(RelSet::singleton(rel), 0.0);
            t.set_card(RelSet::singleton(rel), 2.0);
        }
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        for k in 2..=4usize {
            view.begin_wave(k, None);
            for bits in 1u32..16 {
                let s = RelSet::from_bits(bits);
                if s.len() != k {
                    continue;
                }
                let u = s.lowest_singleton();
                let v = s - u;
                let card = view.card(u) * view.card(v); // prior-wave reads
                view.set_card(s, card);
                let own = view.card(s); // own-row read after own write
                view.set_cost(s, own as f32);
            }
        }
    }
}
