//! Statically dispatched observer sets.
//!
//! Every profiling scheme the workspace runs against the simulator is a
//! known concrete type in this crate; only ad-hoc tooling (chaos
//! injection, tests) brings its own. [`AnyObserver`] closes that set in
//! one enum — golden / TEA / NCI / tagging (IBS, SPE, RIS, TEA-DT) /
//! TIP / PMC / the bench composite — with a `Box<dyn Observer>` escape
//! hatch, and [`ObserverSet`] holds any number of them behind a single
//! [`Observer`] implementation that
//! [`Core::run_with`](tea_sim::Core::run_with) drives like any other
//! observer. Each notification costs one match per member instead of a
//! virtual call; end to end, the two deliveries measured at parity
//! (`docs/INTERNALS.md` §8).

use tea_sim::trace::{CycleView, Observer, RetiredInst};

use crate::golden::GoldenReference;
use crate::nci::NciProfiler;
use crate::pics::Pics;
use crate::pmc::PmcProfiler;
use crate::sampling::SampleTimer;
use crate::schemes::Scheme;
use crate::tagging::TaggingProfiler;
use crate::tea::TeaProfiler;
use crate::tip::TipProfiler;

/// One observer of a known scheme, dispatched by match instead of
/// vtable. The [`AnyObserver::Dyn`] variant carries anything else at
/// the old virtual-call cost.
// The size skew is the bench composite (six profilers inline); boxing
// it would put a pointer chase back on the hottest dispatch edge, and
// a run holds only a handful of `AnyObserver`s, so the footprint is
// irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum AnyObserver {
    /// The exact per-cycle attribution ground truth.
    Golden(GoldenReference),
    /// Time-proportional sampling (the paper's scheme).
    Tea(TeaProfiler),
    /// Next-committing-instruction sampling (PEBS-style).
    Nci(NciProfiler),
    /// Front-end tagging: IBS, SPE, RIS or TEA-DT.
    Tagging(TaggingProfiler),
    /// Time-proportional instruction profiling (Gottschall et al. '21).
    Tip(TipProfiler),
    /// A conventional performance-counter overflow profiler.
    Pmc(PmcProfiler),
    /// The throughput bench's composite profiled set.
    Bench(ProfiledObservers),
    /// Escape hatch for observers outside the known set (chaos
    /// injection, tests); pays the classic virtual dispatch.
    Dyn(Box<dyn Observer>),
}

macro_rules! each {
    ($self:ident, $o:ident => $e:expr) => {
        match $self {
            AnyObserver::Golden($o) => $e,
            AnyObserver::Tea($o) => $e,
            AnyObserver::Nci($o) => $e,
            AnyObserver::Tagging($o) => $e,
            AnyObserver::Tip($o) => $e,
            AnyObserver::Pmc($o) => $e,
            AnyObserver::Bench($o) => $e,
            AnyObserver::Dyn($o) => $e,
        }
    };
}

impl AnyObserver {
    /// The profiler for one of the paper's comparison schemes, sampling
    /// on `timer`.
    #[must_use]
    pub fn for_scheme(scheme: Scheme, timer: SampleTimer) -> Self {
        match scheme {
            Scheme::Tea => AnyObserver::Tea(TeaProfiler::new(timer)),
            Scheme::NciTea => AnyObserver::Nci(NciProfiler::new(timer)),
            Scheme::Ibs | Scheme::Spe | Scheme::Ris | Scheme::TeaDispatchTagged => {
                AnyObserver::Tagging(TaggingProfiler::new(scheme, timer))
            }
        }
    }

    /// Samples taken, for the sampling profilers (`None` for variants
    /// without a sample counter).
    #[must_use]
    pub fn samples(&self) -> Option<u64> {
        match self {
            AnyObserver::Tea(o) => Some(o.samples()),
            AnyObserver::Nci(o) => Some(o.samples()),
            AnyObserver::Tagging(o) => Some(o.samples()),
            AnyObserver::Tip(o) => Some(o.samples()),
            AnyObserver::Bench(o) => Some(o.samples()),
            _ => None,
        }
    }

    /// Samples taken but never attributed by finish (`None` for
    /// variants without delayed attribution).
    #[must_use]
    pub fn pending_samples(&self) -> Option<usize> {
        match self {
            AnyObserver::Tea(o) => Some(o.pending_samples()),
            AnyObserver::Nci(o) => Some(o.pending_samples()),
            AnyObserver::Tagging(o) => Some(o.pending_samples()),
            AnyObserver::Tip(o) => Some(o.pending_samples()),
            _ => None,
        }
    }

    /// Consumes the observer into its estimated PICS, for the variants
    /// that produce one.
    #[must_use]
    pub fn into_pics(self) -> Option<Pics> {
        match self {
            AnyObserver::Golden(o) => Some(o.into_pics()),
            AnyObserver::Tea(o) => Some(o.into_pics()),
            AnyObserver::Nci(o) => Some(o.into_pics()),
            AnyObserver::Tagging(o) => Some(o.into_pics()),
            _ => None,
        }
    }
}

impl Observer for AnyObserver {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        each!(self, o => o.on_cycle(view));
    }
    fn on_retire(&mut self, retired: &RetiredInst) {
        each!(self, o => o.on_retire(retired));
    }
    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        // Forward the whole group so each member's batched override
        // (and its hoisted per-batch probes) stays active.
        each!(self, o => o.on_commit_batch(batch));
    }
    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        // Forward the folded span so each member's O(1) stall fold (not
        // the default per-cycle replay) handles it.
        each!(self, o => o.on_stall_run(view, n));
    }
    fn on_squash(&mut self, from_seq: u64) {
        each!(self, o => o.on_squash(from_seq));
    }
    fn on_finish(&mut self, total_cycles: u64) {
        each!(self, o => o.on_finish(total_cycles));
    }
}

/// An ordered set of [`AnyObserver`]s behind one [`Observer`]: the
/// run-loop notification fans out in a plain loop over enum matches,
/// with no virtual calls for the known schemes.
///
/// Build the set, remember the index each `push` returns, run the core
/// with it, then [`ObserverSet::into_items`] to take the observers back
/// for result extraction.
#[derive(Default)]
pub struct ObserverSet {
    items: Vec<AnyObserver>,
}

impl ObserverSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        ObserverSet { items: Vec::new() }
    }

    /// Appends `obs`, returning its index for later retrieval.
    pub fn push(&mut self, obs: AnyObserver) -> usize {
        self.items.push(obs);
        self.items.len() - 1
    }

    /// Number of observers in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The observers, in push order.
    #[must_use]
    pub fn items(&self) -> &[AnyObserver] {
        &self.items
    }

    /// Consumes the set into its observers, in push order.
    #[must_use]
    pub fn into_items(self) -> Vec<AnyObserver> {
        self.items
    }
}

impl Observer for ObserverSet {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        for o in &mut self.items {
            o.on_cycle(view);
        }
    }
    fn on_retire(&mut self, retired: &RetiredInst) {
        for o in &mut self.items {
            o.on_retire(retired);
        }
    }
    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        for o in &mut self.items {
            o.on_commit_batch(batch);
        }
    }
    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        for o in &mut self.items {
            o.on_stall_run(view, n);
        }
    }
    fn on_squash(&mut self, from_seq: u64) {
        for o in &mut self.items {
            o.on_squash(from_seq);
        }
    }
    fn on_finish(&mut self, total_cycles: u64) {
        for o in &mut self.items {
            o.on_finish(total_cycles);
        }
    }
}

/// The standard profiled observer set of the throughput bench: golden
/// reference plus the five sampling schemes of the paper's comparison
/// (one jittered timer sequence, so all schemes fire in the same
/// cycles). Lives here — not in `tea-bench` — so the composite is a
/// named [`AnyObserver`] variant and `tea-cli bench` measures the same
/// statically dispatched path an experiment run uses.
pub struct ProfiledObservers {
    golden: GoldenReference,
    tea: TeaProfiler,
    nci: NciProfiler,
    ibs: TaggingProfiler,
    spe: TaggingProfiler,
    ris: TaggingProfiler,
}

impl ProfiledObservers {
    /// Golden + TEA + NCI + IBS + SPE + RIS, all on the same jittered
    /// `interval`/`seed` timer sequence.
    #[must_use]
    pub fn new(interval: u64, seed: u64) -> Self {
        let timer = || SampleTimer::with_jitter(interval, interval / 8, seed);
        ProfiledObservers {
            golden: GoldenReference::new(),
            tea: TeaProfiler::new(timer()),
            nci: NciProfiler::new(timer()),
            ibs: TaggingProfiler::ibs(timer()),
            spe: TaggingProfiler::spe(timer()),
            ris: TaggingProfiler::ris(timer()),
        }
    }

    /// Total samples across the five sampling schemes.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.tea.samples()
            + self.nci.samples()
            + self.ibs.samples()
            + self.spe.samples()
            + self.ris.samples()
    }
}

/// The set is itself one observer: a real profiling tool composes its
/// analyses statically, so the fan-out below inlines into whatever
/// delivery path drives it.
impl Observer for ProfiledObservers {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        self.golden.on_cycle(view);
        self.tea.on_cycle(view);
        self.nci.on_cycle(view);
        self.ibs.on_cycle(view);
        self.spe.on_cycle(view);
        self.ris.on_cycle(view);
    }

    fn on_retire(&mut self, retired: &RetiredInst) {
        self.golden.on_retire(retired);
        self.tea.on_retire(retired);
        self.nci.on_retire(retired);
        self.ibs.on_retire(retired);
        self.spe.on_retire(retired);
        self.ris.on_retire(retired);
    }

    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        // Forward the whole commit group so each member's batched
        // override (and its hoisted per-batch probes) stays active.
        self.golden.on_commit_batch(batch);
        self.tea.on_commit_batch(batch);
        self.nci.on_commit_batch(batch);
        self.ibs.on_commit_batch(batch);
        self.spe.on_commit_batch(batch);
        self.ris.on_commit_batch(batch);
    }

    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        // Forward the folded span so each member's O(1) stall fold (not
        // the default per-cycle replay) handles it.
        self.golden.on_stall_run(view, n);
        self.tea.on_stall_run(view, n);
        self.nci.on_stall_run(view, n);
        self.ibs.on_stall_run(view, n);
        self.spe.on_stall_run(view, n);
        self.ris.on_stall_run(view, n);
    }

    fn on_squash(&mut self, from_seq: u64) {
        self.golden.on_squash(from_seq);
        self.tea.on_squash(from_seq);
        self.nci.on_squash(from_seq);
        self.ibs.on_squash(from_seq);
        self.spe.on_squash(from_seq);
        self.ris.on_squash(from_seq);
    }

    fn on_finish(&mut self, total_cycles: u64) {
        self.golden.on_finish(total_cycles);
        self.tea.on_finish(total_cycles);
        self.nci.on_finish(total_cycles);
        self.ibs.on_finish(total_cycles);
        self.spe.on_finish(total_cycles);
        self.ris.on_finish(total_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use tea_isa::asm::Asm;
    use tea_isa::Reg;
    use tea_sim::core::Core;
    use tea_sim::SimConfig;

    fn program() -> tea_isa::program::Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 400);
        a.li(Reg::A0, 0x8000);
        a.bind(top);
        a.sd(Reg::T0, Reg::A0, 0);
        a.ld(Reg::T2, Reg::A0, 0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    /// The devirtualized path (`run_with` + `ObserverSet`) must produce
    /// the exact observer states the dyn-slice path produces.
    #[test]
    fn observer_set_matches_dyn_slice_delivery() {
        let p = program();
        let timer = || SampleTimer::with_jitter(128, 16, 7);

        let mut dyn_tea = TeaProfiler::new(timer());
        let mut dyn_golden = GoldenReference::new();
        let dyn_stats =
            Core::new(&p, SimConfig::default()).run(&mut [&mut dyn_golden, &mut dyn_tea]);

        let mut set = ObserverSet::new();
        let g_at = set.push(AnyObserver::Golden(GoldenReference::new()));
        let t_at = set.push(AnyObserver::Tea(TeaProfiler::new(timer())));
        let set_stats = Core::new(&p, SimConfig::default()).run_with(&mut set);

        assert_eq!(dyn_stats, set_stats);
        let mut items: Vec<Option<AnyObserver>> = set.into_items().into_iter().map(Some).collect();
        let golden = match items[g_at].take() {
            Some(AnyObserver::Golden(g)) => g,
            _ => panic!("golden observer lost its slot"),
        };
        let tea = match items[t_at].take() {
            Some(AnyObserver::Tea(t)) => t,
            _ => panic!("tea observer lost its slot"),
        };
        assert_eq!(tea.samples(), dyn_tea.samples());
        let (set_pics, dyn_pics) = (golden.into_pics(), dyn_golden.into_pics());
        assert_eq!(set_pics.total(), dyn_pics.total());
        assert_eq!(set_pics.top_instructions(8), dyn_pics.top_instructions(8));
    }

    /// The `Dyn` escape hatch, which the chaos observer rides, delivers
    /// every notification kind: the boxed observer counts through
    /// shared handles that outlive the set.
    #[test]
    fn dyn_escape_hatch_sees_the_run() {
        struct Counter {
            cycles: Rc<Cell<u64>>,
            retired: Rc<Cell<u64>>,
            finished: Rc<Cell<bool>>,
        }
        impl Observer for Counter {
            fn on_cycle(&mut self, _v: &CycleView<'_>) {
                self.cycles.set(self.cycles.get() + 1);
            }
            fn on_retire(&mut self, _r: &RetiredInst) {
                self.retired.set(self.retired.get() + 1);
            }
            fn on_stall_run(&mut self, _v: &CycleView<'_>, n: u64) {
                self.cycles.set(self.cycles.get() + n);
            }
            fn on_finish(&mut self, _t: u64) {
                self.finished.set(true);
            }
        }
        let (cycles, retired, finished) = (Rc::default(), Rc::default(), Rc::default());
        let mut set = ObserverSet::new();
        set.push(AnyObserver::Dyn(Box::new(Counter {
            cycles: Rc::clone(&cycles),
            retired: Rc::clone(&retired),
            finished: Rc::clone(&finished),
        })));
        let p = program();
        let stats = Core::new(&p, SimConfig::default()).run_with(&mut set);
        assert!(stats.retired > 0);
        assert_eq!(cycles.get(), stats.cycles, "on_cycle + stall-run cycles");
        assert_eq!(retired.get(), stats.retired, "retirements");
        assert!(finished.get(), "on_finish reaches the boxed observer");
    }
}
