//! The per-run captured-trace cache.
//!
//! An experiment matrix re-simulates each workload under many `(config,
//! interval, seed, scheme)` points, but the committed dynamic stream
//! depends only on the program — so the engine interprets each program
//! **once** ([`tea_isa::CapturedTrace`]) and every other cell replays
//! the shared trace through [`tea_sim::core::Core::try_with_trace`].
//!
//! Coordination is build-once under races: each program keys (by an
//! FNV-1a fingerprint of its content, not its workload name — fault
//! injection swaps programs under unchanged names) an
//! `Arc<OnceLock<…>>` slot, and `OnceLock::get_or_init` guarantees
//! exactly one winner interprets while concurrent cells of the same
//! workload block and then share the winner's trace. Programs whose
//! capture overflows the instruction ceiling (diverging or enormous
//! workloads) park a `None` in their slot so every cell falls back to
//! live interpretation without re-attempting the capture.
//!
//! The cache publishes `trace_cache.*` metrics. The counters are
//! defined to be schedule-independent so serial and parallel runs
//! snapshot identically: a *hit* is a request satisfied by a trace some
//! other request built, a *miss* is a request that found no built trace
//! (whether it then built one or the program is uncacheable), and
//! exactly one build/uncacheable event fires per program per run. The
//! `trace_cache.resident_bytes` gauge rises as traces are captured and
//! falls back when the cache drops at the end of its run. (Two
//! opt-in features relax the once-per-program guarantee: with a byte
//! *budget* an evicted program re-builds on its next checkout, and
//! under *chaos* a quarantined program stops replaying. Both are off
//! by default, so the schedule-independence the observability tests
//! pin is untouched.)
//!
//! **Bounding and corruption.** [`TraceCache::set_budget`] caps the
//! bytes the cache accounts for: after each capture, unreferenced
//! traces (`Arc` strong count 1 — no cell holds a checkout) are
//! evicted in ascending fingerprint order until the account fits.
//! [`TraceCache::quarantine`] permanently retires a trace whose bytes
//! failed integrity checks mid-replay, parking an uncacheable marker
//! so every later cell of the program interprets live instead of
//! re-decoding bad bytes. Both paths subtract the retired bytes from
//! the gauge *and* from this cache's recorded contribution, so the
//! `Drop` subtraction cannot double-count them.
//!
//! **Poison tolerance.** Both internal maps are touched only in brief
//! critical sections that insert or read complete values — no
//! invariant spans a panic point inside a lock — so a panicking cell
//! (isolated by the engine's `catch_unwind`) leaves the maps valid.
//! Every lock therefore *recovers* from poisoning instead of
//! propagating it; one dead cell must not wedge every later checkout
//! of the run.
//!
//! The cache also shares finished [`GoldenReference`]s across timing
//! passes. The golden reference observes only the timing model — never
//! the sampling seed or interval — so every pass of one `(program,
//! config)` pair produces the bit-identical reference (the engine
//! already feeds all cells of one pass from a single reference), and
//! all but the first can skip the observer's per-cycle attribution work
//! entirely. Unlike traces, a golden reference is a *by-product* of a
//! full simulation, so the coordination is a non-blocking claim: the
//! first pass to ask gets a [`GoldenTicket`] and publishes its
//! reference after its run succeeds; concurrent passes that lose the
//! claim race compute their own reference locally rather than block on
//! a whole simulation; and a claimant that fails (panic, timeout,
//! fault) releases the claim on drop so a later pass can publish. The golden cache deliberately
//! emits **no** metrics: claim outcomes are scheduling-dependent, and
//! counting them would break the serial/parallel metric-snapshot
//! equality the `trace_cache.*` counters guarantee.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use tea_core::golden::GoldenReference;
use tea_isa::capture::{CapturedTrace, DEFAULT_CAPTURE_LIMIT};
use tea_isa::program::Program;
use tea_obs::Value;
use tea_sim::SimConfig;

use crate::chaos::ChaosInjector;
use crate::metrics;

/// Locks `m`, recovering the guarded map from a poisoned mutex.
///
/// Sound because every critical section in this module only reads, or
/// inserts/removes *complete* values — the maps satisfy their
/// invariants at every instruction a panic could interrupt — so the
/// data behind a poisoned lock is as valid as behind a clean one.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tracing target of cache-emitted records.
const CACHE_TARGET: &str = "tea_exp::trace_cache";

/// One program's slot: unset until some request resolves it, then
/// either the shared trace or `None` for an uncacheable program.
type Slot = Arc<OnceLock<Option<Arc<CapturedTrace>>>>;

/// One `(program, config)` pair's golden-reference slot.
#[derive(Debug, Default)]
struct GoldenSlot {
    /// Whether some in-flight cell holds the compute claim.
    claimed: AtomicBool,
    /// The published reference, once a claimant's run succeeds.
    value: OnceLock<Arc<GoldenReference>>,
}

/// The outcome of [`TraceCache::golden_checkout`].
pub enum GoldenCheckout {
    /// A finished reference published by an earlier cell of the same
    /// `(program, config)` pair; attach no golden observer.
    Shared(Arc<GoldenReference>),
    /// This cell computes its own reference. With a ticket, it holds
    /// the publish claim and should call [`GoldenTicket::publish`]
    /// after its run succeeds; without one (it lost the claim race, or
    /// no cache is attached), it computes locally and publishes
    /// nothing.
    Compute(Option<GoldenTicket>),
}

/// The publish claim on one golden-reference slot. Dropping the ticket
/// without publishing (the claimant panicked, timed out, or faulted)
/// releases the claim so a later cell of the same pair can take it.
pub struct GoldenTicket {
    slot: Arc<GoldenSlot>,
    published: bool,
}

impl GoldenTicket {
    /// Publishes the claimant's finished reference for every later
    /// cell of the same `(program, config)` pair to share.
    pub fn publish(mut self, golden: Arc<GoldenReference>) {
        let _ = self.slot.value.set(golden);
        self.published = true;
    }
}

impl Drop for GoldenTicket {
    fn drop(&mut self) {
        if !self.published {
            self.slot.claimed.store(false, Ordering::Release);
        }
    }
}

/// A build-once cache of captured instruction traces and finished
/// golden references, keyed by program (and config) content. One cache
/// serves one engine run; dropping it releases every trace (and
/// returns the `trace_cache.resident_bytes` gauge to its prior level).
#[derive(Debug, Default)]
pub struct TraceCache {
    limit: u64,
    /// Byte ceiling on the cache's accounted resident set; `None`
    /// (the default) never evicts.
    budget: Option<u64>,
    /// Fault injector for the capture seams; `None` outside chaos
    /// runs.
    chaos: Option<Arc<ChaosInjector>>,
    slots: Mutex<HashMap<u64, Slot>>,
    golden: Mutex<HashMap<(u64, u64), Arc<GoldenSlot>>>,
    /// Exactly the bytes this cache has added to the global
    /// `trace_cache.resident_bytes` gauge. `Drop` subtracts this
    /// amount — not a recomputed sum over the slots — so the gauge
    /// books balance by construction: it can never go negative, stays
    /// correct if a captured trace outlives the cache through a shared
    /// `Arc` (the cache releases its *accounting*, not the memory),
    /// and tracks encoded sizes automatically since it mirrors what
    /// [`TraceCache::capture`] measured when it published the trace.
    gauge_contribution: AtomicU64,
}

impl TraceCache {
    /// An empty cache with the [`DEFAULT_CAPTURE_LIMIT`] ceiling.
    #[must_use]
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_CAPTURE_LIMIT)
    }

    /// An empty cache that refuses to capture programs committing more
    /// than `limit` instructions (they fall back to live
    /// interpretation).
    #[must_use]
    pub fn with_limit(limit: u64) -> Self {
        TraceCache {
            limit,
            budget: None,
            chaos: None,
            slots: Mutex::new(HashMap::new()),
            golden: Mutex::new(HashMap::new()),
            gauge_contribution: AtomicU64::new(0),
        }
    }

    /// Caps the cache's accounted resident set at `bytes`. After every
    /// capture, traces no cell currently holds are evicted — in
    /// ascending fingerprint order, so the eviction sequence is a
    /// deterministic function of which traces are unreferenced — until
    /// the account fits. An evicted program re-captures on its next
    /// checkout. The trace just built for the requesting cell is never
    /// evicted (the requester already holds it), so a budget smaller
    /// than one trace degrades to "keep only what's in use", never to
    /// thrashing within a cell.
    pub fn set_budget(&mut self, bytes: u64) {
        self.budget = Some(bytes);
    }

    /// Wires a chaos injector into the capture seams (forced capture
    /// failure, byte corruption of fresh captures).
    pub fn set_chaos(&mut self, chaos: Arc<ChaosInjector>) {
        self.chaos = Some(chaos);
    }

    /// The shared trace for `program`, capturing it on first request.
    ///
    /// Returns `None` when the program is uncacheable (its capture
    /// overflowed the instruction ceiling); the caller must interpret
    /// live. Concurrent requests for one program block until the single
    /// capture finishes, then share it.
    #[must_use]
    pub fn checkout(&self, program: &Program) -> Option<Arc<CapturedTrace>> {
        self.checkout_keyed(program_fingerprint(program), program)
    }

    /// [`TraceCache::checkout`] with the program's fingerprint already
    /// in hand, so a cell that talks to both the trace and the golden
    /// cache hashes its program once.
    pub(crate) fn checkout_keyed(&self, key: u64, program: &Program) -> Option<Arc<CapturedTrace>> {
        let m = metrics();
        m.counter("trace_cache.requests").inc();
        let slot = {
            let mut slots = lock_recover(&self.slots);
            Arc::clone(slots.entry(key).or_default())
        };
        // `get_or_init` runs the closure on exactly one request per
        // program; racing requests block here and share the outcome.
        let mut built = false;
        let entry = slot.get_or_init(|| {
            built = true;
            self.capture(program, key)
        });
        if built || entry.is_none() {
            m.counter("trace_cache.misses").inc();
        } else {
            m.counter("trace_cache.hits").inc();
        }
        let out = entry.clone();
        // Enforce the budget only after cloning: the fresh trace is
        // then referenced by the requester and cannot evict itself.
        if built && out.is_some() {
            self.enforce_budget();
        }
        out
    }

    /// The one-per-program capture body behind the slot's `OnceLock`.
    fn capture(&self, program: &Program, key: u64) -> Option<Arc<CapturedTrace>> {
        let m = metrics();
        if self.chaos.as_ref().is_some_and(|c| c.fail_capture(key)) {
            m.counter("trace_cache.uncacheable").inc();
            tea_obs::warn(
                CACHE_TARGET,
                "chaos: capture forced to fail; cells fall back to live interpretation",
                &[("program", Value::from(key))],
            );
            return None;
        }
        match CapturedTrace::capture(program, self.limit) {
            Some(trace) => {
                let trace = match self
                    .chaos
                    .as_ref()
                    .and_then(|c| c.corrupt_trace(key, trace.encoded_len()))
                {
                    Some((offset, mask)) => {
                        tea_obs::warn(
                            CACHE_TARGET,
                            "chaos: flipping a byte in the captured trace",
                            &[
                                ("program", Value::from(key)),
                                ("offset", Value::from(offset)),
                                ("mask", Value::from(u64::from(mask))),
                            ],
                        );
                        trace.with_flipped_byte(offset, mask)
                    }
                    None => trace,
                };
                // Publish-time validation of the offset table: a trace
                // whose block index is already inconsistent must never
                // reach a replaying cell.
                if let Err(e) = trace.validate() {
                    m.counter("trace_cache.uncacheable").inc();
                    tea_obs::warn(
                        CACHE_TARGET,
                        "captured trace failed validation; cells fall back to live interpretation",
                        &[
                            ("program", Value::from(key)),
                            ("error", Value::from(e.to_string())),
                        ],
                    );
                    return None;
                }
                m.counter("trace_cache.builds").inc();
                let resident = trace.resident_bytes() as u64;
                self.gauge_contribution
                    .fetch_add(resident, Ordering::Relaxed);
                m.gauge("trace_cache.resident_bytes").add(resident as i64);
                tea_obs::debug(
                    CACHE_TARGET,
                    "trace captured",
                    &[
                        ("program", Value::from(key)),
                        ("instructions", Value::from(trace.len())),
                        ("resident_bytes", Value::from(trace.resident_bytes())),
                    ],
                );
                Some(Arc::new(trace))
            }
            None => {
                m.counter("trace_cache.uncacheable").inc();
                tea_obs::warn(
                    CACHE_TARGET,
                    "trace capture overflowed; cells fall back to live interpretation",
                    &[
                        ("program", Value::from(key)),
                        ("limit", Value::from(self.limit)),
                    ],
                );
                None
            }
        }
    }

    /// Retires the cached trace whose bytes failed integrity checks,
    /// parking an uncacheable marker in its place so every later
    /// checkout of the program interprets live. Re-capturing would be
    /// pointless optimism: the decode failure means the *published*
    /// bytes rotted after capture, and the engine has already paid one
    /// wasted replay finding out.
    ///
    /// Idempotent and exactly-once: concurrent quarantines of one
    /// program serialize on the slot map, the first retires the trace
    /// (gauge subtraction, `trace_cache.quarantined` increment), the
    /// rest find the marker and do nothing.
    pub fn quarantine(&self, program: &Program) {
        self.quarantine_keyed(program_fingerprint(program));
    }

    /// [`TraceCache::quarantine`] with the fingerprint already in hand.
    pub(crate) fn quarantine_keyed(&self, key: u64) {
        let m = metrics();
        let mut slots = lock_recover(&self.slots);
        let resident = {
            let Some(slot) = slots.get(&key) else { return };
            let Some(Some(trace)) = slot.get() else {
                return;
            };
            trace.resident_bytes() as u64
        };
        let parked: Slot = Arc::default();
        let _ = parked.set(None);
        slots.insert(key, parked);
        drop(slots);
        // Subtract from the gauge *and* the cache's recorded
        // contribution, so Drop cannot subtract these bytes a second
        // time.
        self.gauge_contribution
            .fetch_sub(resident, Ordering::Relaxed);
        m.gauge("trace_cache.resident_bytes")
            .add(-(resident as i64));
        m.counter("trace_cache.quarantined").inc();
        tea_obs::warn(
            CACHE_TARGET,
            "trace quarantined after integrity failure; cells fall back to live interpretation",
            &[
                ("program", Value::from(key)),
                ("resident_bytes", Value::from(resident)),
            ],
        );
    }

    /// Evicts unreferenced captures, in ascending fingerprint order,
    /// until the cache's accounted bytes fit the configured budget.
    /// Called after each build; a no-op without a budget.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        if self.gauge_contribution.load(Ordering::Relaxed) <= budget {
            return;
        }
        let m = metrics();
        let mut slots = lock_recover(&self.slots);
        let mut keys: Vec<u64> = slots.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if self.gauge_contribution.load(Ordering::Relaxed) <= budget {
                break;
            }
            let resident = {
                let Some(slot) = slots.get(&key) else {
                    continue;
                };
                let Some(Some(trace)) = slot.get() else {
                    continue;
                };
                // Evictable only while no cell holds a checkout: the
                // one strong count is the map's own Arc inside the
                // OnceLock. (A racing checkout that already cloned the
                // *slot* but not yet the trace keeps working off the
                // detached slot — it merely uses bytes the account no
                // longer tracks.)
                if Arc::strong_count(trace) != 1 {
                    continue;
                }
                trace.resident_bytes() as u64
            };
            slots.remove(&key);
            self.gauge_contribution
                .fetch_sub(resident, Ordering::Relaxed);
            m.gauge("trace_cache.resident_bytes")
                .add(-(resident as i64));
            m.counter("trace_cache.evictions").inc();
            tea_obs::debug(
                CACHE_TARGET,
                "trace evicted under byte budget",
                &[
                    ("program", Value::from(key)),
                    ("resident_bytes", Value::from(resident)),
                    ("budget", Value::from(budget)),
                ],
            );
        }
    }

    /// Joins the golden-reference sharing scheme for one cell of
    /// `(program, config)`.
    ///
    /// Returns [`GoldenCheckout::Shared`] when an earlier cell of the
    /// same pair already published its finished reference,
    /// [`GoldenCheckout::Compute`] with a [`GoldenTicket`] when this
    /// cell wins the claim (publish after the run succeeds), and
    /// [`GoldenCheckout::Compute`] without a ticket when another cell
    /// is mid-computation — the caller computes locally rather than
    /// block on a whole simulation.
    #[must_use]
    pub fn golden_checkout(&self, program: &Program, config: &SimConfig) -> GoldenCheckout {
        self.golden_checkout_keyed(program_fingerprint(program), config)
    }

    /// [`TraceCache::golden_checkout`] with the program's fingerprint
    /// already in hand.
    pub(crate) fn golden_checkout_keyed(
        &self,
        program_key: u64,
        config: &SimConfig,
    ) -> GoldenCheckout {
        let key = (program_key, config_fingerprint(config));
        let slot = {
            let mut golden = lock_recover(&self.golden);
            Arc::clone(golden.entry(key).or_default())
        };
        if let Some(v) = slot.value.get() {
            return GoldenCheckout::Shared(Arc::clone(v));
        }
        if slot
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            GoldenCheckout::Compute(Some(GoldenTicket {
                slot,
                published: false,
            }))
        } else {
            GoldenCheckout::Compute(None)
        }
    }

    /// Heap bytes currently held by cached traces.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let slots = lock_recover(&self.slots);
        slots
            .values()
            .filter_map(|s| s.get())
            .flatten()
            .map(|t| t.resident_bytes())
            .sum()
    }
}

impl Drop for TraceCache {
    fn drop(&mut self) {
        // Subtract exactly what this cache added — never a recomputed
        // sum, which could disagree with the additions (and drive the
        // gauge negative) if the slot map were disturbed or a trace's
        // size accounting changed between capture and drop. Shared
        // `Arc`s keeping traces alive past this point are fine: the
        // gauge tracks cache-accounted bytes, and this cache's account
        // closes here. Evictions and quarantines already subtracted
        // their bytes from both the gauge and this contribution, so
        // they are not (and must not be) subtracted again.
        let contributed = *self.gauge_contribution.get_mut();
        if contributed > 0 {
            metrics()
                .gauge("trace_cache.resident_bytes")
                .add(-(contributed as i64));
        }
    }
}

/// A streaming FNV-1a-64 state: formatted fragments fold straight into
/// the hash instead of accumulating in an intermediate `String` (the
/// memory image of a workload runs to tens of thousands of words, and
/// the fingerprint is on the per-cell path).
struct FnvStream(u64);

impl FnvStream {
    fn new() -> Self {
        FnvStream(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a fingerprint of a program's *content* (layout base,
/// instructions, initialized memory) — everything that determines its
/// committed dynamic stream, and nothing that doesn't (names, function
/// symbols).
#[must_use]
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FnvStream::new();
    h.update(&program.base().to_le_bytes());
    let _ = write!(h, "{:?}", program.insts());
    // The memory image is the bulk of a program; hash it numerically
    // rather than through the formatter.
    for &(addr, word) in program.init_words() {
        h.update(&addr.to_le_bytes());
        h.update(&word.to_le_bytes());
    }
    h.0
}

/// FNV-1a fingerprint of a full timing configuration — the other half
/// of the golden-reference key. Two cells share a reference only when
/// both their program and every timing parameter match; the sampling
/// interval and seed are deliberately absent (the golden reference
/// never samples).
#[must_use]
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    let mut h = FnvStream::new();
    let _ = write!(h, "{config:?}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_workloads::faulty::{self, FaultMode};
    use tea_workloads::{lbm, xz, Size};

    #[test]
    fn checkout_builds_once_and_shares() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let a = cache.checkout(&p).expect("lbm halts");
        let b = cache.checkout(&p).expect("lbm halts");
        assert!(Arc::ptr_eq(&a, &b), "second checkout shares the capture");
        assert_eq!(cache.resident_bytes(), a.resident_bytes());
    }

    #[test]
    fn distinct_programs_get_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.checkout(&lbm::program(Size::Test)).unwrap();
        let b = cache.checkout(&xz::program(Size::Test)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(
            program_fingerprint(&lbm::program(Size::Test)),
            program_fingerprint(&xz::program(Size::Test)),
        );
        assert_eq!(
            cache.resident_bytes(),
            a.resident_bytes() + b.resident_bytes()
        );
    }

    #[test]
    fn fingerprint_tracks_program_content_not_name() {
        // Fault injection swaps a workload's program under an unchanged
        // name; the cache must key on content.
        let healthy = lbm::program(Size::Test);
        let diverging = faulty::program(Size::Test, FaultMode::Diverge);
        assert_ne!(
            program_fingerprint(&healthy),
            program_fingerprint(&diverging)
        );
        assert_eq!(program_fingerprint(&healthy), program_fingerprint(&healthy));
    }

    #[test]
    fn diverging_program_is_uncacheable_and_capture_is_not_reattempted() {
        let cache = TraceCache::with_limit(10_000);
        let p = faulty::program(Size::Test, FaultMode::Diverge);
        assert!(cache.checkout(&p).is_none());
        // The overflow outcome is parked in the slot: a second checkout
        // must not spend another 10k interpreted instructions to
        // rediscover it (observable via the build/uncacheable metrics,
        // but cheapest to pin via the resident footprint staying zero).
        assert!(cache.checkout(&p).is_none());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn dropping_the_cache_while_a_capture_is_held_balances_the_gauge() {
        // Regression: `Drop` used to recompute the resident sum from the
        // slots instead of subtracting what `capture` actually added.
        // The two must stay in lock-step even when a checked-out
        // `Arc<CapturedTrace>` outlives the cache — the cache releases
        // its *accounting*, not the memory — and the gauge must land
        // exactly back on its pre-cache level, never below it.
        //
        // The gauge is process-global and other tests in this binary
        // build caches concurrently, so a correct implementation can
        // still see transient interference between two reads; retry a
        // few times. A wrong subtraction fails every attempt.
        let gauge = metrics().gauge("trace_cache.resident_bytes");
        let mut last = (0i64, 0i64, 0i64);
        for _ in 0..8 {
            let before = gauge.get();
            let cache = TraceCache::new();
            let held = cache
                .checkout(&lbm::program(Size::Test))
                .expect("lbm halts");
            let resident = held.resident_bytes() as i64;
            assert!(resident > 0);
            // The gauge accounts encoded bytes, not the flat layout.
            assert!((resident as usize) < held.uncompressed_bytes());
            let after_capture = gauge.get();
            drop(cache);
            let after_drop = gauge.get();
            assert!(!held.is_empty(), "the Arc keeps the trace usable");
            if after_capture == before + resident && after_drop == before {
                return;
            }
            last = (before, after_capture, after_drop);
        }
        panic!("gauge never balanced across a cache lifetime: {last:?}");
    }

    #[test]
    fn budget_evicts_only_unreferenced_captures_in_key_order() {
        // A 1-byte budget makes every capture over-budget, so each
        // build tries to evict everything evictable.
        let mut cache = TraceCache::new();
        cache.set_budget(1);
        let p1 = lbm::program(Size::Test);
        let p2 = xz::program(Size::Test);

        let held = cache.checkout(&p1).expect("lbm halts");
        // The requester's own checkout is referenced: never evicted.
        assert_eq!(cache.resident_bytes(), held.resident_bytes());

        drop(held);
        // p1 is now unreferenced; building p2 evicts it. p2 itself is
        // referenced by this checkout and survives.
        let held2 = cache.checkout(&p2).expect("xz halts");
        assert_eq!(cache.resident_bytes(), held2.resident_bytes());

        // The evicted program is rebuilt on demand, not wedged.
        drop(held2);
        assert!(cache.checkout(&p1).is_some());
    }

    /// Satellite regression (PR 7): budget evictions subtract their
    /// bytes from the cache's recorded gauge contribution, so the
    /// `Drop` subtraction cannot double-count an evicted trace —
    /// evict-then-drop must land the gauge exactly back on its
    /// pre-cache level, extending the PR-6 balanced-gauge test.
    #[test]
    fn evict_then_drop_cannot_double_count_the_gauge() {
        let gauge = metrics().gauge("trace_cache.resident_bytes");
        let mut last = (0i64, 0i64);
        for _ in 0..8 {
            let before = gauge.get();
            let mut cache = TraceCache::new();
            cache.set_budget(1);
            drop(cache.checkout(&lbm::program(Size::Test)));
            // Building xz evicts the unreferenced lbm trace.
            let held = cache.checkout(&xz::program(Size::Test)).expect("xz halts");
            drop(cache);
            let after_drop = gauge.get();
            drop(held);
            if after_drop == before {
                return;
            }
            last = (before, after_drop);
        }
        panic!("gauge drifted across evict-then-drop: {last:?}");
    }

    #[test]
    fn quarantine_parks_the_program_as_uncacheable() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let held = cache.checkout(&p).expect("lbm halts");
        cache.quarantine(&p);
        // Later checkouts go live; the bytes are no longer accounted.
        assert!(cache.checkout(&p).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        // Idempotent: a second quarantine (e.g. a racing sibling cell)
        // finds the marker and does nothing.
        cache.quarantine(&p);
        assert!(cache.checkout(&p).is_none());
        // The cell that triggered the quarantine still holds a usable
        // Arc for as long as it wants it.
        assert!(!held.is_empty());
    }

    /// Satellite regression (PR 7): a cell that panics between golden
    /// claim and publish must release its ticket via `Drop`, or every
    /// later seed of the same `(program, config)` pair computes
    /// locally forever.
    #[test]
    fn claimant_panicking_before_publish_releases_the_claim() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ticket = match cache.golden_checkout(&p, &cfg) {
                GoldenCheckout::Compute(Some(t)) => t,
                _ => unreachable!("first checkout wins the claim"),
            };
            std::panic::panic_any("injected: cell dies between claim and publish");
        }));
        assert!(panicked.is_err());
        // A later cell of the same pair can claim and publish.
        match cache.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t.publish(Arc::new(GoldenReference::new())),
            _ => panic!("released claim must be reclaimable"),
        }
        assert!(matches!(
            cache.golden_checkout(&p, &cfg),
            GoldenCheckout::Shared(_)
        ));
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging_later_checkouts() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _slots = cache.slots.lock().unwrap();
                let _golden = cache.golden.lock().unwrap();
                std::panic::panic_any("injected: panic while holding the cache locks");
            });
            assert!(h.join().is_err());
        });
        assert!(cache.slots.lock().is_err(), "slots lock must be poisoned");
        assert!(cache.golden.lock().is_err(), "golden lock must be poisoned");
        // Checkouts recover: the maps are valid at every panic point.
        assert!(cache.checkout(&p).is_some());
        assert!(matches!(
            cache.golden_checkout(&p, &SimConfig::default()),
            GoldenCheckout::Compute(Some(_))
        ));
        assert!(cache.resident_bytes() > 0);
        cache.quarantine(&p);
        assert!(cache.checkout(&p).is_none());
    }

    #[test]
    fn chaos_corruption_publishes_a_trace_that_fails_decode() {
        // Find a seed that corrupts (and does not uncache) lbm, then
        // verify the published trace fails integrity checks — the seam
        // the engine's live fallback consumes.
        let p = lbm::program(Size::Test);
        let key = program_fingerprint(&p);
        let pristine = CapturedTrace::capture_default(&p).expect("lbm halts");
        let seed = (1..500u64)
            .find(|&s| {
                let c = ChaosInjector::new(s);
                !c.fail_capture(key) && c.corrupt_trace(key, pristine.encoded_len()).is_some()
            })
            .expect("some small seed corrupts lbm");
        let mut cache = TraceCache::new();
        cache.set_chaos(Arc::new(ChaosInjector::new(seed)));
        let trace = cache.checkout(&p).expect("corrupted, not uncacheable");
        let mut failed = false;
        for block in 0..trace.num_blocks() {
            if trace.decode_block_into(&p, block, &mut Vec::new()).is_err() {
                failed = true;
            }
        }
        assert!(failed, "corrupted trace must fail decode somewhere");
    }

    #[test]
    fn streaming_fnv_matches_the_reference_implementation() {
        // Published FNV-1a 64-bit test vector; the streaming state must
        // agree with `journal::fnv1a64` so fingerprints stay stable.
        let mut h = FnvStream::new();
        h.update(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        assert_eq!(FnvStream::new().0, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn golden_checkout_claims_once_then_shares_the_published_reference() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let ticket = match cache.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first checkout wins the claim"),
        };
        // While the claimant computes, racing cells compute locally
        // instead of blocking on a whole simulation.
        assert!(matches!(
            cache.golden_checkout(&p, &cfg),
            GoldenCheckout::Compute(None)
        ));
        ticket.publish(Arc::new(GoldenReference::new()));
        match cache.golden_checkout(&p, &cfg) {
            GoldenCheckout::Shared(shared) => assert_eq!(shared.total_cycles(), 0),
            _ => panic!("published reference is shared"),
        }
    }

    #[test]
    fn dropped_ticket_releases_the_claim_for_a_later_cell() {
        // A claimant that fails (panic, timeout, fault) never calls
        // publish; its ticket drop must hand the claim to a later cell
        // or the pair would compute locally forever.
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let ticket = match cache.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first checkout wins the claim"),
        };
        drop(ticket);
        assert!(matches!(
            cache.golden_checkout(&p, &cfg),
            GoldenCheckout::Compute(Some(_))
        ));
    }

    #[test]
    fn golden_key_spans_program_and_config() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let mut wide = SimConfig::default();
        wide.rob_entries *= 2;
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&wide));
        // Distinct configs get distinct slots: both claims succeed.
        let t1 = match cache.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first pair claims"),
        };
        let t2 = match cache.golden_checkout(&p, &wide) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("second pair claims independently"),
        };
        drop((t1, t2));
    }

    #[test]
    fn concurrent_checkouts_share_one_capture() {
        let cache = TraceCache::new();
        let p = lbm::program(Size::Test);
        let traces: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.checkout(&p).expect("lbm halts")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t), "all threads share one trace");
        }
        assert_eq!(cache.resident_bytes(), traces[0].resident_bytes());
    }
}
