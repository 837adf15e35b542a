//! Per-worker buffer pool seeded from the static memory planner.
//!
//! The pool replays a [`BufferPlan`]'s slot actions in *executed* order
//! against the byte size of each tensor the kernels actually produced: every
//! planner slot is reserved at its planned size exactly when the plan
//! allocates it, and every action is checked — the slot exists, the output
//! fits it, allocations arrive in slot order, and the end state holds every
//! slot of the plan at the plan's peak. No memory is allocated here (the
//! kernels return their own tensors), so the high-water mark is the plan's
//! peak *confirmed against execution*, not an independent measurement; the
//! tests hold it against `tofu-sim`'s separately computed
//! `per_device_memory`.

use tofu_graph::{BufferPlan, SlotAction};

use crate::error::RuntimeError;
use crate::Result;

/// Slot-by-slot byte ledger of one worker's transient tensors.
#[derive(Debug)]
pub(crate) struct BufferPool<'a> {
    worker: usize,
    /// The plan's byte size of every slot, in allocation order.
    sizes: &'a [u64],
    /// Slots reserved so far: a prefix of `sizes`.
    reserved: usize,
    /// Bytes of the reserved slots. No slot is ever released, so this is
    /// also the high-water mark.
    bytes: u64,
}

impl<'a> BufferPool<'a> {
    /// An empty pool owned by `worker`, sized by `plan`; slots are reserved
    /// as the plan's actions are applied.
    pub(crate) fn new(worker: usize, plan: &'a BufferPlan) -> BufferPool<'a> {
        BufferPool { worker, sizes: &plan.slot_bytes, reserved: 0, bytes: 0 }
    }

    fn err(&self, detail: String) -> RuntimeError {
        RuntimeError::Pool { worker: self.worker, detail }
    }

    /// Applies the placement action of one schedule position. `need` is the
    /// byte size of the node's output tensor.
    pub(crate) fn apply(&mut self, action: SlotAction, need: u64) -> Result<()> {
        let slot = action.slot();
        if let SlotAction::Alloc { .. } = action {
            if slot != self.reserved || slot >= self.sizes.len() {
                return Err(self.err(format!(
                    "plan allocates slot {slot} but pool holds {} of {}",
                    self.reserved,
                    self.sizes.len()
                )));
            }
            self.reserved += 1;
            self.bytes += self.sizes[slot];
        } else if slot >= self.reserved {
            return Err(self.err(format!("plan references unallocated slot {slot}")));
        }
        let have = self.sizes[slot];
        if have < need {
            return Err(self.err(format!("slot {slot} holds {have} B but {need} B are needed")));
        }
        Ok(())
    }

    /// Bytes of the slots reserved so far, which is also their high-water
    /// mark.
    pub(crate) fn reserved_bytes(&self) -> u64 {
        self.bytes
    }

    /// Checks the fully-applied pool against its seeding plan: every slot
    /// reserved, at the plan's peak.
    pub(crate) fn verify_against(&self, plan: &BufferPlan) -> Result<()> {
        if self.reserved != plan.slot_bytes.len() {
            return Err(self.err(format!(
                "pool reserved {} of the plan's {} slots",
                self.reserved,
                plan.slot_bytes.len()
            )));
        }
        if self.bytes != plan.mem.peak_transient_bytes {
            return Err(self.err(format!(
                "pool peak {} B but the plan predicted {} B",
                self.bytes, plan.mem.peak_transient_bytes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::MemPlan;

    fn plan(slot_bytes: Vec<u64>) -> BufferPlan {
        let peak_transient_bytes = slot_bytes.iter().sum();
        let mem = MemPlan {
            peak_transient_bytes,
            live_peak_bytes: peak_transient_bytes,
            persistent_bytes: 0,
        };
        BufferPlan { mem, slot_bytes, actions: vec![], persistent: vec![] }
    }

    #[test]
    fn replays_alloc_in_place_reuse() {
        let bp = plan(vec![100, 80]);
        let mut p = BufferPool::new(0, &bp);
        p.apply(SlotAction::Alloc { slot: 0 }, 100).unwrap();
        // A slot is reserved at its planned size, whatever its first tensor.
        p.apply(SlotAction::Alloc { slot: 1 }, 50).unwrap();
        assert_eq!(p.reserved_bytes(), 180);
        p.apply(SlotAction::InPlace { slot: 0 }, 100).unwrap();
        p.apply(SlotAction::Reuse { slot: 1 }, 80).unwrap();
        assert_eq!(p.reserved_bytes(), 180);
        p.verify_against(&bp).unwrap();
    }

    #[test]
    fn rejects_inconsistent_plans() {
        let bp = plan(vec![10, 10]);
        let mut p = BufferPool::new(0, &bp);
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 1).is_err());
        assert!(p.apply(SlotAction::Alloc { slot: 1 }, 1).is_err());
        p.apply(SlotAction::Alloc { slot: 0 }, 10).unwrap();
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 11).is_err());
        assert!(p.apply(SlotAction::Reuse { slot: 1 }, 1).is_err());
        // One slot short of the plan.
        assert!(p.verify_against(&bp).is_err());
        p.apply(SlotAction::Alloc { slot: 1 }, 10).unwrap();
        assert!(p.apply(SlotAction::Alloc { slot: 2 }, 1).is_err());
        p.verify_against(&bp).unwrap();
    }
}
