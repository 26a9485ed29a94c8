//! The dynamic-programming table (paper Sections 3.2, 4.1 and 5.4).
//!
//! The table has one row per nonempty subset of the `n` relations, indexed
//! by the subset's integer bit-vector representation, for `2^n` slots in
//! all (slot 0, the empty set, is unused). Each row carries:
//!
//! * `card` — the (estimated) cardinality of the intermediate result over
//!   the subset (`f64` for wide dynamic range, per footnote 2);
//! * `cost` — the cost of the best plan found (`f32`; overflow ⇒ `+∞` ⇒
//!   rejected, per Section 6.3);
//! * `best_lhs` — the left-hand side of the best split (bit-vector);
//! * `pi_fan` — the memoized fan selectivity product `Π_fan` (Section 5.4;
//!   join optimization only);
//! * `aux` — an optional cost-model memo (e.g. the sort-merge log term).
//!
//! Several layouts are provided behind the [`TableLayout`] trait so that
//! the benchmark harness can ablate the choice: [`AosTable`] (array of
//! structs, the paper's layout), [`SoaTable`] (struct of arrays),
//! [`CompactProductTable`] (the paper's exact 16-byte product row) and
//! [`HotColdTable`] (hot/cold split: a dense, 64-byte-aligned `cost`
//! array feeds the pruning cascade at 4 bytes per probe, with every
//! other column banished to cold arrays). The optimizer is generic over
//! the layout and monomorphizes each; [`LayoutChoice`] names them for
//! runtime dispatch at the non-generic entry points.

use crate::bitset::{RelSet, MAX_RELS};
use std::marker::PhantomData;

/// Runtime name for a monomorphized table layout, used by the
/// non-generic entry points ([`crate::join::optimize_join_with`] and
/// friends) and the service/CLI configuration surface. The generic
/// `*_into*` functions ignore it — there the caller picks the layout as
/// a type parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum LayoutChoice {
    /// [`AosTable`] — the paper's array-of-structs layout.
    #[default]
    Aos,
    /// [`SoaTable`] — one dense array per column.
    Soa,
    /// [`HotColdTable`] — dense aligned `cost` hot array, cold rest.
    HotCold,
}

impl LayoutChoice {
    /// All selectable layouts, for ablation sweeps.
    pub const ALL: [LayoutChoice; 3] = [LayoutChoice::Aos, LayoutChoice::Soa, LayoutChoice::HotCold];

    /// Stable lower-case name (`aos` / `soa` / `hotcold`).
    pub fn name(self) -> &'static str {
        match self {
            LayoutChoice::Aos => "aos",
            LayoutChoice::Soa => "soa",
            LayoutChoice::HotCold => "hotcold",
        }
    }

    /// Inverse of [`name`](LayoutChoice::name); `None` for unknown names.
    pub fn parse(s: &str) -> Option<LayoutChoice> {
        match s {
            "aos" => Some(LayoutChoice::Aos),
            "soa" => Some(LayoutChoice::Soa),
            "hotcold" => Some(LayoutChoice::HotCold),
            _ => None,
        }
    }
}

impl std::fmt::Display for LayoutChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best-effort prefetch of the cache line holding `*p` into L1.
///
/// Compiles to `prefetcht0` on x86-64 and `prfm pldl1keep` elsewhere
/// on aarch64; a no-op on other architectures. Prefetch instructions
/// are architectural hints: they never fault and perform no observable
/// memory access, so issuing one is not a read in the data-race sense —
/// it is safe even for rows another thread is concurrently writing.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint with no architectural effect on
    // memory or registers; it cannot fault even on invalid addresses.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is likewise a non-faulting hint.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Guard against absurd allocations: `2^28` rows of 32 bytes is 8 GiB.
pub const MAX_TABLE_RELS: usize = 28;

/// Storage for the dynamic-programming table, indexed by [`RelSet`].
///
/// All accessors are expected to be O(1) and inline; they sit inside the
/// optimizer's `O(3^n)` split loop.
pub trait TableLayout {
    /// Allocate a table for `n` relations (`2^n` rows).
    ///
    /// # Panics
    /// Panics if `n > MAX_TABLE_RELS` (or `n > MAX_RELS`).
    fn with_rels(n: usize) -> Self;

    /// Number of relations this table was allocated for.
    fn rels(&self) -> usize;

    /// Estimated cardinality of the set's intermediate result.
    fn card(&self, s: RelSet) -> f64;
    /// Set the cardinality field.
    fn set_card(&mut self, s: RelSet, v: f64);

    /// Cost of the best plan found for the set (`+∞` if none).
    fn cost(&self, s: RelSet) -> f32;
    /// Set the cost field.
    fn set_cost(&mut self, s: RelSet, v: f32);

    /// Left-hand side of the best split (`EMPTY` for singletons).
    fn best_lhs(&self, s: RelSet) -> RelSet;
    /// Set the best-split field.
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet);

    /// Memoized fan selectivity product `Π_fan(S)` (Section 5.3).
    fn pi_fan(&self, s: RelSet) -> f64;
    /// Set the fan product field.
    fn set_pi_fan(&mut self, s: RelSet, v: f64);

    /// Memoized per-set cost-model value (see [`crate::cost::CostModel::aux`]).
    fn aux(&self, s: RelSet) -> f32;
    /// Set the cost-model memo field.
    fn set_aux(&mut self, s: RelSet, v: f32);

    /// Whether [`prefetch_cost`](TableLayout::prefetch_cost) can do
    /// anything at all on this layout/target. The split loop consults
    /// this compile-time constant before computing prefetch operands
    /// (`s - next_lhs`) and issuing hints, so layouts with a no-op
    /// `prefetch_cost` — the default, or any layout on an architecture
    /// without prefetch instructions — pay nothing per iteration.
    const PREFETCHES: bool = false;

    /// Hint that [`cost`](TableLayout::cost)`(s)` will be read shortly:
    /// the split loop's successor walk knows the *next* iteration's
    /// operands one step ahead, so the line can be in flight while the
    /// current split is judged. Purely advisory — the default is a
    /// no-op, and out-of-range sets are ignored.
    #[inline]
    fn prefetch_cost(&self, _s: RelSet) {}
}

fn check_rels(n: usize) {
    assert!(n <= MAX_RELS, "{n} relations exceed MAX_RELS = {MAX_RELS}");
    assert!(
        n <= MAX_TABLE_RELS,
        "{n} relations exceed MAX_TABLE_RELS = {MAX_TABLE_RELS} (table would need 2^{n} rows)"
    );
}

/// One row of the array-of-structs layout.
///
/// 32 bytes: the paper's 16-byte product row (`card` + `cost` + `best_lhs`)
/// plus the `Π_fan` column added in Section 5.4 and the cost-model memo.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
struct Row {
    card: f64,
    pi_fan: f64,
    cost: f32,
    best_lhs: u32,
    aux: f32,
    _pad: u32,
}

impl Default for Row {
    fn default() -> Self {
        Row { card: 0.0, pi_fan: 1.0, cost: f32::INFINITY, best_lhs: 0, aux: 0.0, _pad: 0 }
    }
}

/// Array-of-structs table layout — each row's fields are contiguous, as in
/// the paper's C implementation.
pub struct AosTable {
    n: usize,
    rows: Vec<Row>,
}

impl TableLayout for AosTable {
    // `prefetch_cost` below issues real hints only where the target has
    // prefetch instructions; elsewhere the split loop should skip the
    // operand computation entirely.
    const PREFETCHES: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

    fn with_rels(n: usize) -> Self {
        check_rels(n);
        AosTable { n, rows: vec![Row::default(); 1usize << n] }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.rows[s.index()].card
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].card = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.rows[s.index()].cost
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].cost = v;
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.rows[s.index()].best_lhs)
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.rows[s.index()].best_lhs = v.bits();
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.rows[s.index()].pi_fan
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].pi_fan = v;
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        self.rows[s.index()].aux
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].aux = v;
    }

    #[inline]
    fn prefetch_cost(&self, s: RelSet) {
        if let Some(row) = self.rows.get(s.index()) {
            prefetch_read(&row.cost);
        }
    }
}

/// Struct-of-arrays table layout — one dense array per column. The split
/// loop touches only `cost` (always) and `card`/`aux` (conditionally), so
/// separating the columns can improve cache residency for large `n`; the
/// ablation bench quantifies this.
pub struct SoaTable {
    n: usize,
    cards: Vec<f64>,
    pi_fans: Vec<f64>,
    costs: Vec<f32>,
    best_lhss: Vec<u32>,
    auxs: Vec<f32>,
}

impl TableLayout for SoaTable {
    // See `AosTable`: hints are real only on prefetch-capable targets.
    const PREFETCHES: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

    fn with_rels(n: usize) -> Self {
        check_rels(n);
        let cap = 1usize << n;
        SoaTable {
            n,
            cards: vec![0.0; cap],
            pi_fans: vec![1.0; cap],
            costs: vec![f32::INFINITY; cap],
            best_lhss: vec![0; cap],
            auxs: vec![0.0; cap],
        }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.cards[s.index()]
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.cards[s.index()] = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.costs[s.index()]
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.costs[s.index()] = v;
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.best_lhss[s.index()])
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.best_lhss[s.index()] = v.bits();
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.pi_fans[s.index()]
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.pi_fans[s.index()] = v;
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        self.auxs[s.index()]
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.auxs[s.index()] = v;
    }

    #[inline]
    fn prefetch_cost(&self, s: RelSet) {
        if let Some(c) = self.costs.get(s.index()) {
            prefetch_read(c);
        }
    }
}

/// One row of the paper-exact 16-byte layout (Section 4.1):
///
/// > each row of our dynamic programming table need occupy only 16
/// > bytes: 8 bytes for the real `card`, 4 bytes for the real `cost`,
/// > and 4 bytes for the bit-vector `best_lhs`.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
struct CompactRow {
    card: f64,
    cost: f32,
    best_lhs: u32,
}

impl Default for CompactRow {
    fn default() -> Self {
        CompactRow { card: 0.0, cost: f32::INFINITY, best_lhs: 0 }
    }
}

/// The paper's exact 16-byte-per-row table for **Cartesian product**
/// optimization: no `Π_fan` column, no cost-model memo.
///
/// Only usable where those columns are never needed — i.e. with
/// [`crate::cartesian`] under cost models with `HAS_AUX == false`.
/// `pi_fan` reads return the neutral 1.0 and writes of the neutral value
/// are accepted (singleton initialization writes 1.0); any other use
/// panics rather than silently corrupting an optimization.
pub struct CompactProductTable {
    n: usize,
    rows: Vec<CompactRow>,
}

impl TableLayout for CompactProductTable {
    // See `AosTable`: hints are real only on prefetch-capable targets.
    const PREFETCHES: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

    fn with_rels(n: usize) -> Self {
        check_rels(n);
        CompactProductTable { n, rows: vec![CompactRow::default(); 1usize << n] }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.rows[s.index()].card
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].card = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.rows[s.index()].cost
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].cost = v;
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.rows[s.index()].best_lhs)
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.rows[s.index()].best_lhs = v.bits();
    }

    #[inline]
    fn pi_fan(&self, _s: RelSet) -> f64 {
        1.0
    }

    #[inline]
    fn set_pi_fan(&mut self, _s: RelSet, v: f64) {
        assert!(v == 1.0, "CompactProductTable has no Π_fan column (products only)");
    }

    #[inline]
    fn aux(&self, _s: RelSet) -> f32 {
        0.0
    }

    #[inline]
    fn set_aux(&mut self, _s: RelSet, v: f32) {
        assert!(v == 0.0, "CompactProductTable has no aux column");
    }

    #[inline]
    fn prefetch_cost(&self, s: RelSet) {
        if let Some(row) = self.rows.get(s.index()) {
            prefetch_read(&row.cost);
        }
    }
}

/// Dense, 64-byte-aligned `f32` buffer for [`HotColdTable`]'s hot
/// `cost` column.
///
/// `Vec<f32>` only guarantees 4-byte alignment; aligning the base to a
/// cache-line boundary makes row-index arithmetic line arithmetic too
/// (16 costs per 64-byte line, no straddling), which is what lets the
/// chunked wave scheduler hand workers line-disjoint runs of the hot
/// array.
struct AlignedCosts {
    ptr: std::ptr::NonNull<f32>,
    len: usize,
}

/// Alignment of the hot cost buffer: one x86/aarch64 cache line.
const COST_ALIGN: usize = 64;

impl AlignedCosts {
    /// Allocate `len` costs, all initialized to `+∞` (the table's "no
    /// plan found" sentinel).
    fn new_infinite(len: usize) -> AlignedCosts {
        assert!(len > 0 && len <= isize::MAX as usize / 4);
        let layout = std::alloc::Layout::from_size_align(len * 4, COST_ALIGN)
            .expect("cost buffer layout");
        // SAFETY: `layout` has nonzero size; allocation failure aborts
        // via `handle_alloc_error`; every element is initialized below
        // before the buffer is readable through safe accessors.
        let ptr = unsafe {
            let p = std::alloc::alloc(layout) as *mut f32;
            let Some(nn) = std::ptr::NonNull::new(p) else {
                std::alloc::handle_alloc_error(layout);
            };
            for i in 0..len {
                nn.as_ptr().add(i).write(f32::INFINITY);
            }
            nn
        };
        AlignedCosts { ptr, len }
    }

    #[inline]
    fn get(&self, i: usize) -> f32 {
        assert!(i < self.len);
        // SAFETY: in-bounds index into an initialized, owned buffer.
        unsafe { *self.ptr.as_ptr().add(i) }
    }

    #[inline]
    fn set(&mut self, i: usize, v: f32) {
        assert!(i < self.len);
        // SAFETY: in-bounds index into an owned buffer, under `&mut`.
        unsafe { *self.ptr.as_ptr().add(i) = v }
    }

    #[inline]
    fn as_mut_ptr(&mut self) -> *mut f32 {
        self.ptr.as_ptr()
    }
}

impl Drop for AlignedCosts {
    fn drop(&mut self) {
        // SAFETY: same layout as the allocation in `new_infinite`.
        unsafe {
            let layout =
                std::alloc::Layout::from_size_align_unchecked(self.len * 4, COST_ALIGN);
            std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, layout);
        }
    }
}

// SAFETY: `AlignedCosts` uniquely owns its heap buffer of plain `f32`s
// (no interior mutability, no shared state), exactly like `Vec<f32>`.
unsafe impl Send for AlignedCosts {}
// SAFETY: `&AlignedCosts` exposes only reads of plain data.
unsafe impl Sync for AlignedCosts {}

/// Hot/cold split table layout.
///
/// The nested-`if` pruning cascade in `find_best_split` resolves the
/// overwhelming majority of splits on the first one or two tests —
/// `lhs_cost < best`, then `lhs_cost + rhs_cost < best` — which need
/// only the 4-byte `cost` field of each operand row. Under [`AosTable`]
/// every such probe drags a full 32-byte row through the cache (half a
/// line); under [`SoaTable`] the cost lane is dense but shares the
/// allocator's whims with four sibling columns. `HotColdTable` gives the
/// `cost` column its own dense, 64-byte-aligned buffer — 16 probes per
/// cache line — and exiles `card`/`Π_fan`/`aux`/`best_lhs` to cold
/// arrays touched only on the rare `κ''` evaluation and the per-row
/// write path. Field semantics are identical to the other layouts, so
/// tables are cost-bit-identical across all of them.
pub struct HotColdTable {
    n: usize,
    /// Hot: the pruning cascade reads only this.
    costs: AlignedCosts,
    /// Cold: read only when a split survives to the `κ''` test
    /// (`card`, `aux`) or after the row is final (`best_lhs`, `pi_fan`).
    cards: Vec<f64>,
    pi_fans: Vec<f64>,
    best_lhss: Vec<u32>,
    auxs: Vec<f32>,
}

impl TableLayout for HotColdTable {
    // See `AosTable`: hints are real only on prefetch-capable targets.
    const PREFETCHES: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

    fn with_rels(n: usize) -> Self {
        check_rels(n);
        let cap = 1usize << n;
        HotColdTable {
            n,
            costs: AlignedCosts::new_infinite(cap),
            cards: vec![0.0; cap],
            pi_fans: vec![1.0; cap],
            best_lhss: vec![0; cap],
            auxs: vec![0.0; cap],
        }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.cards[s.index()]
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.cards[s.index()] = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.costs.get(s.index())
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.costs.set(s.index(), v);
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.best_lhss[s.index()])
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.best_lhss[s.index()] = v.bits();
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.pi_fans[s.index()]
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.pi_fans[s.index()] = v;
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        self.auxs[s.index()]
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.auxs[s.index()] = v;
    }

    #[inline]
    fn prefetch_cost(&self, s: RelSet) {
        if s.index() < self.costs.len {
            // SAFETY: in-bounds pointer arithmetic; the address is only
            // used as a prefetch hint, never dereferenced.
            prefetch_read(unsafe { self.costs.ptr.as_ptr().add(s.index()) });
        }
    }
}

/// Raw per-row access to a layout's buffers, for the rank-wave parallel
/// driver. Implemented by each concrete layout.
///
/// Worker threads must all access the shared table, but materializing a
/// `&mut L` (or even `&L`) to the *whole* table while another thread
/// holds one is undefined behavior: an exclusive reference asserts
/// alias-freedom over every byte it covers — not just the bytes actually
/// touched — so "the written rows are disjoint" is no defense under
/// Rust's aliasing rules (Stacked/Tree Borrows). The parallel view
/// therefore never forms a reference into the table at all:
/// [`raw_parts`](WaveTableLayout::raw_parts) captures the buffer base
/// pointers once, under the caller's still-live exclusive borrow, and
/// every accessor below performs a single in-bounds *element* read or
/// write through those raw pointers.
///
/// # Safety
///
/// The implementor contract:
///
/// * `raw_parts` must return pointers into `self`'s own heap buffers,
///   valid for element access at every in-bounds row index for as long
///   as the exclusive borrow it was called under lives.
/// * Every accessor must be a raw-pointer element access; it must not
///   create a reference to the table or to a whole buffer. (A reference
///   to the single addressed element would also be sound — disjoint rows
///   never alias — but plain pointer reads/writes are used throughout.)
/// * Accessors must preserve the exact semantics of the corresponding
///   [`TableLayout`] methods (including panics on unsupported columns),
///   so serial and parallel drivers stay bit-identical.
pub unsafe trait WaveTableLayout: TableLayout {
    /// Copyable bundle of raw buffer base pointers plus the table's `n`.
    type Raw: Copy;

    /// Capture the raw buffer pointers under an exclusive borrow.
    fn raw_parts(&mut self) -> Self::Raw;

    /// Relation count recorded in `raw` (plain data, always safe).
    fn raw_rels(raw: Self::Raw) -> usize;

    /// Read the `card` field of row `s`.
    ///
    /// # Safety
    /// For this and every accessor below: `raw` must come from
    /// [`raw_parts`](WaveTableLayout::raw_parts) on a table whose
    /// exclusive borrow is still live, `s` must be in bounds for that
    /// table, and the access must not overlap in time with an access to
    /// the same row from another thread of which at least one is a write
    /// (the rank-wave discipline — see [`SyncTable`]).
    unsafe fn raw_card(raw: Self::Raw, s: RelSet) -> f64;
    /// Write the `card` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_set_card(raw: Self::Raw, s: RelSet, v: f64);
    /// Read the `cost` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_cost(raw: Self::Raw, s: RelSet) -> f32;
    /// Write the `cost` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_set_cost(raw: Self::Raw, s: RelSet, v: f32);
    /// Read the `best_lhs` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_best_lhs(raw: Self::Raw, s: RelSet) -> RelSet;
    /// Write the `best_lhs` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_set_best_lhs(raw: Self::Raw, s: RelSet, v: RelSet);
    /// Read the `Π_fan` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_pi_fan(raw: Self::Raw, s: RelSet) -> f64;
    /// Write the `Π_fan` field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_set_pi_fan(raw: Self::Raw, s: RelSet, v: f64);
    /// Read the cost-model memo field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_aux(raw: Self::Raw, s: RelSet) -> f32;
    /// Write the cost-model memo field of row `s`.
    /// # Safety
    /// See [`WaveTableLayout::raw_card`].
    unsafe fn raw_set_aux(raw: Self::Raw, s: RelSet, v: f32);

    /// Advisory prefetch of the `cost` field of row `s` (see
    /// [`TableLayout::prefetch_cost`]). Prefetches are hints, not memory
    /// accesses, so this needs no race-freedom clause; the default does
    /// nothing.
    ///
    /// # Safety
    /// `raw` must come from [`raw_parts`](WaveTableLayout::raw_parts) on
    /// a table whose exclusive borrow is still live, and `s` must be in
    /// bounds for that table (the pointer arithmetic must stay inside
    /// the buffer).
    #[inline]
    unsafe fn raw_prefetch_cost(_raw: Self::Raw, _s: RelSet) {}
}

/// Raw parts of an [`AosTable`]: the row-array base pointer.
#[derive(Copy, Clone)]
pub struct AosRaw {
    n: usize,
    rows: *mut Row,
}

// SAFETY: the pointer is only dereferenced under the `WaveTableLayout`
// accessor contract (live borrow, in-bounds row, race-free), which is
// thread-agnostic; `Row` is plain `Copy` data.
unsafe impl Send for AosRaw {}

// SAFETY: `raw_parts` snapshots the `Vec`'s buffer pointer under `&mut
// self`; the buffer is never reallocated while that borrow lives, and
// every accessor is a single `ptr::add` + field read/write — no
// reference to the table or the buffer is ever formed.
unsafe impl WaveTableLayout for AosTable {
    type Raw = AosRaw;

    fn raw_parts(&mut self) -> AosRaw {
        AosRaw { n: self.n, rows: self.rows.as_mut_ptr() }
    }

    #[inline]
    fn raw_rels(raw: AosRaw) -> usize {
        raw.n
    }

    #[inline]
    unsafe fn raw_card(raw: AosRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_card` caller contract.
        unsafe { (*raw.rows.add(s.index())).card }
    }

    #[inline]
    unsafe fn raw_set_card(raw: AosRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_card` caller contract.
        unsafe { (*raw.rows.add(s.index())).card = v }
    }

    #[inline]
    unsafe fn raw_cost(raw: AosRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_cost` caller contract.
        unsafe { (*raw.rows.add(s.index())).cost }
    }

    #[inline]
    unsafe fn raw_set_cost(raw: AosRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_cost` caller contract.
        unsafe { (*raw.rows.add(s.index())).cost = v }
    }

    #[inline]
    unsafe fn raw_best_lhs(raw: AosRaw, s: RelSet) -> RelSet {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_best_lhs` caller contract.
        RelSet::from_bits(unsafe { (*raw.rows.add(s.index())).best_lhs })
    }

    #[inline]
    unsafe fn raw_set_best_lhs(raw: AosRaw, s: RelSet, v: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_best_lhs` caller contract.
        unsafe { (*raw.rows.add(s.index())).best_lhs = v.bits() }
    }

    #[inline]
    unsafe fn raw_pi_fan(raw: AosRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_pi_fan` caller contract.
        unsafe { (*raw.rows.add(s.index())).pi_fan }
    }

    #[inline]
    unsafe fn raw_set_pi_fan(raw: AosRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_pi_fan` caller contract.
        unsafe { (*raw.rows.add(s.index())).pi_fan = v }
    }

    #[inline]
    unsafe fn raw_aux(raw: AosRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_aux` caller contract.
        unsafe { (*raw.rows.add(s.index())).aux }
    }

    #[inline]
    unsafe fn raw_set_aux(raw: AosRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_aux` caller contract.
        unsafe { (*raw.rows.add(s.index())).aux = v }
    }

    #[inline]
    unsafe fn raw_prefetch_cost(raw: AosRaw, s: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: in-bounds pointer arithmetic per the `raw_prefetch_cost`
        // contract; the address is only used as a prefetch hint.
        unsafe { prefetch_read(std::ptr::addr_of!((*raw.rows.add(s.index())).cost)) }
    }
}

/// Raw parts of a [`SoaTable`]: one base pointer per column.
#[derive(Copy, Clone)]
pub struct SoaRaw {
    n: usize,
    cards: *mut f64,
    pi_fans: *mut f64,
    costs: *mut f32,
    best_lhss: *mut u32,
    auxs: *mut f32,
}

// SAFETY: as for `AosRaw` — dereferenced only under the accessor
// contract; all columns are plain `Copy` data.
unsafe impl Send for SoaRaw {}

// SAFETY: as for `AosTable` — pointer snapshots under `&mut self`,
// per-element access only, no references formed.
unsafe impl WaveTableLayout for SoaTable {
    type Raw = SoaRaw;

    fn raw_parts(&mut self) -> SoaRaw {
        SoaRaw {
            n: self.n,
            cards: self.cards.as_mut_ptr(),
            pi_fans: self.pi_fans.as_mut_ptr(),
            costs: self.costs.as_mut_ptr(),
            best_lhss: self.best_lhss.as_mut_ptr(),
            auxs: self.auxs.as_mut_ptr(),
        }
    }

    #[inline]
    fn raw_rels(raw: SoaRaw) -> usize {
        raw.n
    }

    #[inline]
    unsafe fn raw_card(raw: SoaRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_card` caller contract.
        unsafe { *raw.cards.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_card(raw: SoaRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_card` caller contract.
        unsafe { *raw.cards.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_cost(raw: SoaRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_cost` caller contract.
        unsafe { *raw.costs.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_cost(raw: SoaRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_cost` caller contract.
        unsafe { *raw.costs.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_best_lhs(raw: SoaRaw, s: RelSet) -> RelSet {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_best_lhs` caller contract.
        RelSet::from_bits(unsafe { *raw.best_lhss.add(s.index()) })
    }

    #[inline]
    unsafe fn raw_set_best_lhs(raw: SoaRaw, s: RelSet, v: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_best_lhs` caller contract.
        unsafe { *raw.best_lhss.add(s.index()) = v.bits() }
    }

    #[inline]
    unsafe fn raw_pi_fan(raw: SoaRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_pi_fan` caller contract.
        unsafe { *raw.pi_fans.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_pi_fan(raw: SoaRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_pi_fan` caller contract.
        unsafe { *raw.pi_fans.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_aux(raw: SoaRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_aux` caller contract.
        unsafe { *raw.auxs.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_aux(raw: SoaRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_aux` caller contract.
        unsafe { *raw.auxs.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_prefetch_cost(raw: SoaRaw, s: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: in-bounds pointer arithmetic per the `raw_prefetch_cost`
        // contract; the address is only used as a prefetch hint.
        unsafe { prefetch_read(raw.costs.add(s.index())) }
    }
}

/// Raw parts of a [`CompactProductTable`]: the 16-byte-row base pointer.
#[derive(Copy, Clone)]
pub struct CompactRaw {
    n: usize,
    rows: *mut CompactRow,
}

// SAFETY: as for `AosRaw`.
unsafe impl Send for CompactRaw {}

// SAFETY: as for `AosTable`; the missing `Π_fan`/`aux` columns keep the
// `TableLayout` impl's exact semantics (neutral reads, panic on
// non-neutral writes).
unsafe impl WaveTableLayout for CompactProductTable {
    type Raw = CompactRaw;

    fn raw_parts(&mut self) -> CompactRaw {
        CompactRaw { n: self.n, rows: self.rows.as_mut_ptr() }
    }

    #[inline]
    fn raw_rels(raw: CompactRaw) -> usize {
        raw.n
    }

    #[inline]
    unsafe fn raw_card(raw: CompactRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_card` caller contract.
        unsafe { (*raw.rows.add(s.index())).card }
    }

    #[inline]
    unsafe fn raw_set_card(raw: CompactRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_card` caller contract.
        unsafe { (*raw.rows.add(s.index())).card = v }
    }

    #[inline]
    unsafe fn raw_cost(raw: CompactRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_cost` caller contract.
        unsafe { (*raw.rows.add(s.index())).cost }
    }

    #[inline]
    unsafe fn raw_set_cost(raw: CompactRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_cost` caller contract.
        unsafe { (*raw.rows.add(s.index())).cost = v }
    }

    #[inline]
    unsafe fn raw_best_lhs(raw: CompactRaw, s: RelSet) -> RelSet {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_best_lhs` caller contract.
        RelSet::from_bits(unsafe { (*raw.rows.add(s.index())).best_lhs })
    }

    #[inline]
    unsafe fn raw_set_best_lhs(raw: CompactRaw, s: RelSet, v: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_best_lhs` caller contract.
        unsafe { (*raw.rows.add(s.index())).best_lhs = v.bits() }
    }

    #[inline]
    unsafe fn raw_pi_fan(_raw: CompactRaw, _s: RelSet) -> f64 {
        1.0
    }

    #[inline]
    unsafe fn raw_set_pi_fan(_raw: CompactRaw, _s: RelSet, v: f64) {
        assert!(v == 1.0, "CompactProductTable has no Π_fan column (products only)");
    }

    #[inline]
    unsafe fn raw_aux(_raw: CompactRaw, _s: RelSet) -> f32 {
        0.0
    }

    #[inline]
    unsafe fn raw_set_aux(_raw: CompactRaw, _s: RelSet, v: f32) {
        assert!(v == 0.0, "CompactProductTable has no aux column");
    }

    #[inline]
    unsafe fn raw_prefetch_cost(raw: CompactRaw, s: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: in-bounds pointer arithmetic per the `raw_prefetch_cost`
        // contract; the address is only used as a prefetch hint.
        unsafe { prefetch_read(std::ptr::addr_of!((*raw.rows.add(s.index())).cost)) }
    }
}

/// Raw parts of a [`HotColdTable`]: the hot cost base pointer plus one
/// base pointer per cold column.
#[derive(Copy, Clone)]
pub struct HotColdRaw {
    n: usize,
    costs: *mut f32,
    cards: *mut f64,
    pi_fans: *mut f64,
    best_lhss: *mut u32,
    auxs: *mut f32,
}

// SAFETY: as for `AosRaw` — dereferenced only under the accessor
// contract; all columns are plain `Copy` data.
unsafe impl Send for HotColdRaw {}

// SAFETY: as for `AosTable` — pointer snapshots under `&mut self`
// (neither the aligned cost buffer nor the cold `Vec`s reallocate while
// that borrow lives), per-element access only, no references formed.
unsafe impl WaveTableLayout for HotColdTable {
    type Raw = HotColdRaw;

    fn raw_parts(&mut self) -> HotColdRaw {
        HotColdRaw {
            n: self.n,
            costs: self.costs.as_mut_ptr(),
            cards: self.cards.as_mut_ptr(),
            pi_fans: self.pi_fans.as_mut_ptr(),
            best_lhss: self.best_lhss.as_mut_ptr(),
            auxs: self.auxs.as_mut_ptr(),
        }
    }

    #[inline]
    fn raw_rels(raw: HotColdRaw) -> usize {
        raw.n
    }

    #[inline]
    unsafe fn raw_card(raw: HotColdRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_card` caller contract.
        unsafe { *raw.cards.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_card(raw: HotColdRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_card` caller contract.
        unsafe { *raw.cards.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_cost(raw: HotColdRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_cost` caller contract.
        unsafe { *raw.costs.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_cost(raw: HotColdRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_cost` caller contract.
        unsafe { *raw.costs.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_best_lhs(raw: HotColdRaw, s: RelSet) -> RelSet {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_best_lhs` caller contract.
        RelSet::from_bits(unsafe { *raw.best_lhss.add(s.index()) })
    }

    #[inline]
    unsafe fn raw_set_best_lhs(raw: HotColdRaw, s: RelSet, v: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_best_lhs` caller contract.
        unsafe { *raw.best_lhss.add(s.index()) = v.bits() }
    }

    #[inline]
    unsafe fn raw_pi_fan(raw: HotColdRaw, s: RelSet) -> f64 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_pi_fan` caller contract.
        unsafe { *raw.pi_fans.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_pi_fan(raw: HotColdRaw, s: RelSet, v: f64) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_pi_fan` caller contract.
        unsafe { *raw.pi_fans.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_aux(raw: HotColdRaw, s: RelSet) -> f32 {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_aux` caller contract.
        unsafe { *raw.auxs.add(s.index()) }
    }

    #[inline]
    unsafe fn raw_set_aux(raw: HotColdRaw, s: RelSet, v: f32) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: the `raw_set_aux` caller contract.
        unsafe { *raw.auxs.add(s.index()) = v }
    }

    #[inline]
    unsafe fn raw_prefetch_cost(raw: HotColdRaw, s: RelSet) {
        debug_assert!(s.index() < (1usize << raw.n));
        // SAFETY: in-bounds pointer arithmetic per the `raw_prefetch_cost`
        // contract; the address is only used as a prefetch hint.
        unsafe { prefetch_read(raw.costs.add(s.index())) }
    }
}

/// Shared-table handle for the rank-wave parallel driver: lets several
/// worker threads hold mutable views of one table at the same time.
///
/// # Why this is sound
///
/// Two hazards must be ruled out: **data races** and **reference
/// aliasing**.
///
/// *Data races.* The rank-wave driver processes subsets in waves by
/// cardinality (popcount). Every table access made while filling the row
/// for a set `S` with `|S| = k` falls into one of two classes:
///
/// * **writes** to the row of `S` itself (`set_card`/`set_cost`/
///   `set_best_lhs`/`set_pi_fan`/`set_aux`), and
/// * **reads** of rows of *strict subsets* of `S`, all of which have
///   popcount `< k` (operand costs/cards in `find_best_split`, the
///   fan-recurrence lookups in `compute_properties`).
///
/// Within one wave each row is assigned to exactly one worker, so all
/// concurrent writes target pairwise-disjoint rows; all concurrent reads
/// target rows of earlier waves, which no thread writes anymore. A
/// barrier between waves establishes the happens-before edge from the
/// wave-`k` writes to the wave-`k+1` reads. Hence no memory location is
/// ever accessed concurrently by a writer and anyone else: the program
/// is data-race free even though the borrow checker cannot see it.
///
/// *Reference aliasing.* Race freedom is necessary but not sufficient:
/// materializing a `&mut L` to the whole table on two threads — even to
/// write disjoint rows — would be undefined behavior by itself, because
/// exclusive references assert alias-freedom over all bytes they cover.
/// So the parallel path never forms a reference into the table at all:
/// [`SyncTable::from_mut`] captures raw buffer base pointers via
/// [`WaveTableLayout::raw_parts`] while it holds the table `&mut` (and
/// its `PhantomData` borrow keeps that exclusive borrow alive for the
/// handle's whole lifetime, so nothing else can touch the table), and
/// every [`SyncTableView`] accessor is a per-element raw-pointer read or
/// write. Raw pointers carry no aliasing claims, so with the race
/// freedom above each access is a plain, uncontended memory operation —
/// sound under Stacked/Tree Borrows, not merely under the data-race
/// rules.
pub struct SyncTable<'t, L: WaveTableLayout> {
    raw: L::Raw,
    /// Shadow epoch/owner words validating every view access against the
    /// wave discipline (`--cfg blitz_check` builds only). Boxed so the
    /// views' pointer to it survives moves of the handle itself.
    #[cfg(blitz_check)]
    shadow: Box<crate::check::ShadowState>,
    /// Keeps the source table exclusively borrowed while views exist.
    _borrow: PhantomData<&'t mut L>,
}

// SAFETY: sharing a `&SyncTable` across threads only exposes `view()`,
// whose contract forbids conflicting concurrent accesses; the underlying
// row data is plain data owned by the (`Send`) borrowed table.
unsafe impl<L: WaveTableLayout + Send> Sync for SyncTable<'_, L> {}

impl<'t, L: WaveTableLayout> SyncTable<'t, L> {
    /// Wrap an exclusively borrowed table for the duration of a wave
    /// computation, capturing its raw buffer pointers.
    pub fn from_mut(table: &'t mut L) -> SyncTable<'t, L> {
        #[cfg(blitz_check)]
        let shadow = Box::new(crate::check::ShadowState::new(table.rels()));
        SyncTable {
            raw: table.raw_parts(),
            #[cfg(blitz_check)]
            shadow,
            _borrow: PhantomData,
        }
    }

    /// Create one worker's mutable view of the shared table.
    ///
    /// # Safety
    ///
    /// Callers must uphold the rank-wave discipline documented on
    /// [`SyncTable`]: while any two views are live on different threads,
    /// each table row is written by at most one of them, and rows read by
    /// one view are never written by another without an intervening
    /// synchronization point (barrier/join).
    ///
    /// Under `--cfg blitz_check` this discipline is additionally
    /// *enforced*: each view gets a worker id, and once the driver calls
    /// [`SyncTableView::begin_wave`], every access is validated against
    /// the shared shadow table — violations panic instead of silently
    /// racing.
    pub unsafe fn view(&self) -> SyncTableView<L> {
        SyncTableView {
            raw: self.raw,
            #[cfg(all(debug_assertions, not(blitz_check)))]
            guard: crate::check::WaveGuard::unconstrained(),
            #[cfg(blitz_check)]
            guard: crate::check::WaveGuard::unconstrained(&self.shadow),
        }
    }
}

/// One worker's view into a [`SyncTable`]; implements [`TableLayout`] by
/// forwarding every accessor to the layout's [`WaveTableLayout`] raw
/// element accessors, so the generic `find_best_split`/
/// `compute_properties` code runs on it unchanged — without ever forming
/// a reference to the shared table.
///
/// Cannot be allocated directly: [`TableLayout::with_rels`] panics.
pub struct SyncTableView<L: WaveTableLayout> {
    raw: L::Raw,
    /// Wave/chunk bookkeeping validating accesses in checked builds
    /// (plain `debug_assertions`: write-side popcount/chunk assertions;
    /// `--cfg blitz_check`: the full shadow epoch/owner protocol).
    #[cfg(any(blitz_check, debug_assertions))]
    guard: crate::check::WaveGuard,
}

impl<L: WaveTableLayout> SyncTableView<L> {
    /// Tell the view which wave it is about to process, and (when the
    /// worker owns only part of it) which colex rank range `[lo, hi)` of
    /// that wave this worker owns. The wave drivers call this at the top
    /// of every wave; in ordinary release builds it compiles to nothing,
    /// while checked builds use it to validate every subsequent access
    /// against the rank-wave discipline.
    #[inline]
    pub fn begin_wave(&mut self, k: usize, chunk: Option<(u64, u64)>) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.begin_wave(k, chunk);
        #[cfg(not(any(blitz_check, debug_assertions)))]
        let _ = (k, chunk);
    }
}

// SAFETY: the view is a bundle of raw pointers; moving it to another
// thread is safe because all *accesses* through it are covered by the
// `SyncTable::view` contract (no conflicting concurrent accesses), and
// `L: Send` permits the underlying data to be manipulated from another
// thread.
unsafe impl<L: WaveTableLayout + Send> Send for SyncTableView<L> {}

impl<L: WaveTableLayout> TableLayout for SyncTableView<L> {
    // Prefetch capability is a property of the underlying layout.
    const PREFETCHES: bool = L::PREFETCHES;

    fn with_rels(_n: usize) -> Self {
        unreachable!("SyncTableView is a borrowed view; allocate the underlying layout instead")
    }

    // The safety argument for every forwarded call below: `raw` was
    // captured by a `SyncTable` whose exclusive borrow of the table
    // outlives this view (`SyncTable::view`'s contract), the drivers
    // derive every `s` from the table's own `n` so the row is in bounds,
    // and the view contract rules out concurrent conflicting accesses to
    // that row. Checked builds verify the access against the wave guard
    // *before* touching memory, so a discipline violation panics instead
    // of performing the racy access.
    #[inline]
    fn rels(&self) -> usize {
        L::raw_rels(self.raw)
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_card(self.raw, s) }
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_set_card(self.raw, s, v) }
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_cost(self.raw, s) }
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_set_cost(self.raw, s, v) }
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_best_lhs(self.raw, s) }
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_set_best_lhs(self.raw, s, v) }
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_pi_fan(self.raw, s) }
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_set_pi_fan(self.raw, s, v) }
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_aux(self.raw, s) }
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { L::raw_set_aux(self.raw, s, v) }
    }

    #[inline]
    fn prefetch_cost(&self, s: RelSet) {
        // Not guard-checked: prefetches are architectural hints, not
        // memory accesses (see `prefetch_read`), and the split loop
        // legitimately prefetches rows ahead of the guard's wave window.
        // SAFETY: live borrow and in-bounds row (see above); prefetch
        // needs no race-freedom clause.
        unsafe { L::raw_prefetch_cost(self.raw, s) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<L: TableLayout>() {
        let mut t = L::with_rels(4);
        assert_eq!(t.rels(), 4);
        let s = RelSet::from_bits(0b1011);
        t.set_card(s, 600.0);
        t.set_cost(s, 42.5);
        t.set_best_lhs(s, RelSet::from_bits(0b0011));
        t.set_pi_fan(s, 0.125);
        t.set_aux(s, 7.0);
        assert_eq!(t.card(s), 600.0);
        assert_eq!(t.cost(s), 42.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0011));
        assert_eq!(t.pi_fan(s), 0.125);
        assert_eq!(t.aux(s), 7.0);
        // Other rows untouched.
        let other = RelSet::from_bits(0b0111);
        assert_eq!(t.card(other), 0.0);
        assert!(t.cost(other).is_infinite());
        assert_eq!(t.pi_fan(other), 1.0);
    }

    #[test]
    fn aos_roundtrip() {
        roundtrip::<AosTable>();
    }

    #[test]
    fn soa_roundtrip() {
        roundtrip::<SoaTable>();
    }

    #[test]
    fn hotcold_roundtrip() {
        roundtrip::<HotColdTable>();
    }

    #[test]
    fn hotcold_cost_buffer_is_cache_line_aligned() {
        for n in [1usize, 4, 8] {
            let t = HotColdTable::with_rels(n);
            assert_eq!(t.costs.ptr.as_ptr() as usize % COST_ALIGN, 0, "n={n}");
            assert_eq!(t.costs.len, 1 << n);
        }
    }

    #[test]
    fn hotcold_defaults_match_other_layouts() {
        let t = HotColdTable::with_rels(3);
        for bits in 1u32..8 {
            let s = RelSet::from_bits(bits);
            assert!(t.cost(s).is_infinite());
            assert_eq!(t.card(s), 0.0);
            assert_eq!(t.pi_fan(s), 1.0);
            assert_eq!(t.aux(s), 0.0);
            assert_eq!(t.best_lhs(s), RelSet::EMPTY);
        }
    }

    #[test]
    fn hotcold_sync_view_forwards() {
        let mut t = HotColdTable::with_rels(4);
        {
            let shared = SyncTable::from_mut(&mut t);
            // SAFETY: single-threaded use trivially satisfies the wave
            // discipline.
            let mut view = unsafe { shared.view() };
            let s = RelSet::from_bits(0b1010);
            view.set_card(s, 44.0);
            view.set_cost(s, 3.25);
            view.set_pi_fan(s, 0.5);
            view.set_aux(s, 1.5);
            view.set_best_lhs(s, RelSet::from_bits(0b0010));
            view.prefetch_cost(s); // hint only; must be harmless
            assert_eq!(view.cost(s), 3.25);
        }
        let s = RelSet::from_bits(0b1010);
        assert_eq!(t.card(s), 44.0);
        assert_eq!(t.cost(s), 3.25);
        assert_eq!(t.pi_fan(s), 0.5);
        assert_eq!(t.aux(s), 1.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0010));
    }

    #[test]
    fn prefetch_cost_tolerates_any_set() {
        // Prefetch is advisory: in-bounds sets prefetch, out-of-range
        // sets (possible on the safe `TableLayout` surface) are ignored.
        let t = AosTable::with_rels(3);
        t.prefetch_cost(RelSet::from_bits(0b101));
        t.prefetch_cost(RelSet::from_bits(u32::MAX));
        let t = HotColdTable::with_rels(3);
        t.prefetch_cost(RelSet::from_bits(0b101));
        t.prefetch_cost(RelSet::from_bits(u32::MAX));
    }

    #[test]
    fn layout_choice_names_roundtrip() {
        for choice in LayoutChoice::ALL {
            assert_eq!(LayoutChoice::parse(choice.name()), Some(choice));
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(LayoutChoice::parse("compact"), None);
        assert_eq!(LayoutChoice::default(), LayoutChoice::Aos);
    }

    #[test]
    fn default_cost_is_infinite() {
        let t = AosTable::with_rels(3);
        for bits in 1u32..8 {
            assert!(t.cost(RelSet::from_bits(bits)).is_infinite());
        }
    }

    #[test]
    #[should_panic]
    fn too_many_rels_panics() {
        let _ = AosTable::with_rels(MAX_TABLE_RELS + 1);
    }

    #[test]
    fn row_is_32_bytes() {
        // The paper's product-only row is 16 bytes; ours adds the Π_fan
        // column (8) and the cost-model memo (4+pad). Keep it compact.
        assert_eq!(std::mem::size_of::<Row>(), 32);
    }

    #[test]
    fn compact_row_is_exactly_16_bytes() {
        // Section 4.1's headline number.
        assert_eq!(std::mem::size_of::<CompactRow>(), 16);
    }

    #[test]
    fn compact_table_roundtrips_product_fields() {
        let mut t = CompactProductTable::with_rels(4);
        let s = RelSet::from_bits(0b1011);
        t.set_card(s, 600.0);
        t.set_cost(s, 42.5);
        t.set_best_lhs(s, RelSet::from_bits(0b0011));
        t.set_pi_fan(s, 1.0); // neutral write accepted
        t.set_aux(s, 0.0);
        assert_eq!(t.card(s), 600.0);
        assert_eq!(t.cost(s), 42.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0011));
        assert_eq!(t.pi_fan(s), 1.0);
    }

    #[test]
    fn sync_view_forwards_to_backing_table() {
        let mut t = AosTable::with_rels(4);
        {
            let shared = SyncTable::from_mut(&mut t);
            // SAFETY: single-threaded use trivially satisfies the wave
            // discipline (no concurrent views at all).
            let mut view = unsafe { shared.view() };
            assert_eq!(view.rels(), 4);
            let s = RelSet::from_bits(0b0101);
            view.set_card(s, 3.5);
            view.set_cost(s, 9.0);
            view.set_best_lhs(s, RelSet::from_bits(0b0001));
            assert_eq!(view.card(s), 3.5);
        }
        let s = RelSet::from_bits(0b0101);
        assert_eq!(t.card(s), 3.5);
        assert_eq!(t.cost(s), 9.0);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0001));
    }

    #[test]
    fn disjoint_row_writes_from_two_threads() {
        let mut t = AosTable::with_rels(6);
        {
            let shared = SyncTable::from_mut(&mut t);
            std::thread::scope(|scope| {
                for half in 0..2u32 {
                    // SAFETY: the two views write disjoint rows (split by
                    // the low bit of the set index) and read nothing.
                    let mut view = unsafe { shared.view() };
                    scope.spawn(move || {
                        for bits in 1u32..64 {
                            if bits & 1 == half {
                                view.set_cost(RelSet::from_bits(bits), bits as f32);
                            }
                        }
                    });
                }
            });
        }
        for bits in 1u32..64 {
            assert_eq!(t.cost(RelSet::from_bits(bits)), bits as f32);
        }
    }

    #[test]
    fn soa_and_compact_views_forward() {
        let mut t = SoaTable::with_rels(4);
        {
            let shared = SyncTable::from_mut(&mut t);
            // SAFETY: single-threaded use trivially satisfies the wave
            // discipline.
            let mut view = unsafe { shared.view() };
            let s = RelSet::from_bits(0b0110);
            view.set_card(s, 12.0);
            view.set_pi_fan(s, 0.25);
            view.set_aux(s, 2.0);
            assert_eq!(view.pi_fan(s), 0.25);
        }
        let s = RelSet::from_bits(0b0110);
        assert_eq!(t.card(s), 12.0);
        assert_eq!(t.aux(s), 2.0);

        let mut c = CompactProductTable::with_rels(4);
        {
            let shared = SyncTable::from_mut(&mut c);
            // SAFETY: single-threaded use.
            let mut view = unsafe { shared.view() };
            let s = RelSet::from_bits(0b0011);
            view.set_cost(s, 5.0);
            view.set_pi_fan(s, 1.0); // neutral write accepted
            assert_eq!(view.pi_fan(s), 1.0);
        }
        assert_eq!(c.cost(RelSet::from_bits(0b0011)), 5.0);
    }

    /// The wave pattern proper: both threads *read* rows of an earlier,
    /// already-final wave while writing disjoint rows of the current one.
    #[test]
    fn concurrent_prior_wave_reads_with_disjoint_writes() {
        let mut t = AosTable::with_rels(6);
        for rel in 0..6 {
            let s = RelSet::singleton(rel);
            t.set_cost(s, rel as f32);
            t.set_card(s, 1.0);
        }
        {
            let shared = SyncTable::from_mut(&mut t);
            std::thread::scope(|scope| {
                for half in 0..2usize {
                    // SAFETY: writes target disjoint pair rows (split by
                    // the parity of the lower relation index); reads
                    // target singleton rows, which no thread writes.
                    let mut view = unsafe { shared.view() };
                    scope.spawn(move || {
                        for i in 0..6usize {
                            for j in (i + 1)..6usize {
                                if i % 2 == half {
                                    let s = RelSet::singleton(i) | RelSet::singleton(j);
                                    let sum = view.cost(RelSet::singleton(i))
                                        + view.cost(RelSet::singleton(j));
                                    view.set_cost(s, sum);
                                }
                            }
                        }
                    });
                }
            });
        }
        for i in 0..6usize {
            for j in (i + 1)..6usize {
                let s = RelSet::singleton(i) | RelSet::singleton(j);
                assert_eq!(t.cost(s), (i + j) as f32);
            }
        }
    }

    #[test]
    #[should_panic]
    fn compact_table_rejects_fan_writes() {
        let mut t = CompactProductTable::with_rels(3);
        t.set_pi_fan(RelSet::from_bits(0b11), 0.5);
    }
}
