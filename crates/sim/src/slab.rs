//! The generation-checked slot pool behind the core's pipeline state.
//!
//! Every in-flight instruction lives in one [`Slot`] of a [`Slab`]
//! allocated once at core construction; [`SlotRef`]s carry the slot
//! index plus a generation stamp so references into squashed
//! instructions go stale instead of aliasing the slot's next tenant.

use tea_isa::interp::DynInst;
use tea_isa::Inst;

use crate::psv::Psv;

/// A generation-stamped reference to a [`Slab`] slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotRef {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Which issue queue an instruction dispatches into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IqKind {
    Int,
    Mem,
    Fp,
}

/// Per-instruction in-flight state.
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) gen: u32,
    pub(crate) live: bool,
    pub(crate) d: DynInst,
    pub(crate) psv: Psv,
    pub(crate) unknown_deps: u8,
    pub(crate) ready_lb: u64,
    pub(crate) waiters: Vec<SlotRef>,
    pub(crate) issued: bool,
    pub(crate) complete: Option<u64>,
    pub(crate) in_iq: Option<IqKind>,
    pub(crate) mispredicted: bool,
    pub(crate) resolved: bool,
    pub(crate) dispatch_cycle: u64,
    pub(crate) issue_cycle: u64,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            gen: 0,
            live: false,
            d: DynInst {
                seq: 0,
                pc: 0,
                index: 0,
                inst: Inst::Nop,
                mem_addr: None,
                branch: None,
            },
            psv: Psv::empty(),
            unknown_deps: 0,
            ready_lb: 0,
            waiters: Vec::new(),
            issued: false,
            complete: None,
            in_iq: None,
            mispredicted: false,
            resolved: false,
            dispatch_cycle: 0,
            issue_cycle: 0,
        }
    }
}

/// Fixed-size slot pool with free-list reuse and generation stamping.
///
/// Allocation pops a free index and bumps the slot generation; kill
/// bumps it again, so any [`SlotRef`] minted before the kill fails
/// [`Slab::valid`] and never observes the reused slot.
#[derive(Debug)]
pub(crate) struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Slab {
    /// A slab of `count` vacant slots.
    pub(crate) fn new(count: usize) -> Self {
        Slab {
            slots: vec![Slot::vacant(); count],
            free: (0..count as u32).rev().collect(),
        }
    }

    /// Total slot count (live or not).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether `r` still refers to the live instruction it was minted
    /// for.
    pub(crate) fn valid(&self, r: SlotRef) -> bool {
        let s = &self.slots[r.idx as usize];
        s.live && s.gen == r.gen
    }

    /// Claims a free slot for `d`, resetting all per-instruction state
    /// (the waiter list keeps its capacity).
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted — the pool is sized past the sum
    /// of every buffer that can hold a reference, so exhaustion is a
    /// bookkeeping bug.
    pub(crate) fn alloc(&mut self, d: DynInst) -> SlotRef {
        let idx = self.free.pop().expect("slot pool exhausted");
        let s = &mut self.slots[idx as usize];
        s.gen = s.gen.wrapping_add(1);
        s.live = true;
        s.d = d;
        s.psv = Psv::empty();
        s.unknown_deps = 0;
        s.ready_lb = 0;
        s.waiters.clear();
        s.issued = false;
        s.complete = None;
        s.in_iq = None;
        s.mispredicted = false;
        s.resolved = false;
        s.dispatch_cycle = 0;
        s.issue_cycle = 0;
        SlotRef { idx, gen: s.gen }
    }

    /// Retires or squashes the slot at `idx`: bumps the generation
    /// (staling outstanding references) and returns the slot to the
    /// free list. Returns the issue queue the instruction was waiting
    /// in, if any, so the caller can release its queue slot.
    pub(crate) fn kill(&mut self, idx: u32) -> Option<IqKind> {
        let s = &mut self.slots[idx as usize];
        debug_assert!(s.live);
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        let was_queued = s.in_iq.take();
        self.free.push(idx);
        was_queued
    }
}

impl std::ops::Index<u32> for Slab {
    type Output = Slot;
    #[inline]
    fn index(&self, idx: u32) -> &Slot {
        &self.slots[idx as usize]
    }
}

impl std::ops::IndexMut<u32> for Slab {
    #[inline]
    fn index_mut(&mut self, idx: u32) -> &mut Slot {
        &mut self.slots[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_generation_stales_old_refs() {
        let mut slab = Slab::new(2);
        let d = DynInst {
            seq: 1,
            pc: 0x100,
            index: 0,
            inst: Inst::Nop,
            mem_addr: None,
            branch: None,
        };
        let a = slab.alloc(d);
        assert!(slab.valid(a));
        assert_eq!(slab.kill(a.idx), None);
        assert!(!slab.valid(a));
        let b = slab.alloc(d);
        assert_eq!(b.idx, a.idx, "free list reuses the slot");
        assert!(!slab.valid(a), "old ref stays stale after reuse");
        assert!(slab.valid(b));
    }

    #[test]
    fn slab_kill_reports_issue_queue_membership() {
        let mut slab = Slab::new(1);
        let d = DynInst {
            seq: 7,
            pc: 0,
            index: 0,
            inst: Inst::Nop,
            mem_addr: None,
            branch: None,
        };
        let r = slab.alloc(d);
        slab[r.idx].in_iq = Some(IqKind::Mem);
        assert_eq!(slab.kill(r.idx), Some(IqKind::Mem));
    }
}
