//! Per-worker buffer pool seeded from the static memory planner.
//!
//! The pool replays a [`BufferPlan`]'s slot actions in *executed* order
//! against the byte size of each tensor the kernels actually produced: every
//! planner slot is one byte count that appears (or grows) exactly when the
//! plan says so, and every action is checked — the slot exists, an in-place
//! takeover or a reuse fits, allocations arrive in slot order, and the end
//! state equals the plan's arenas and peak. No memory is allocated here (the
//! kernels return their own tensors), so the high-water mark is the plan's
//! peak *confirmed against execution*, not an independent measurement; the
//! tests hold it against `tofu-sim`'s separately computed
//! `per_device_memory`.

use tofu_graph::{BufferPlan, SlotAction};

use crate::error::RuntimeError;
use crate::Result;

/// Slot-by-slot byte ledger of one worker's transient tensors.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    worker: usize,
    /// Byte size of every planner slot, in allocation order.
    slots: Vec<u64>,
    current: u64,
    peak: u64,
}

impl BufferPool {
    /// An empty pool owned by `worker`; slots appear as the plan's actions
    /// are applied.
    pub(crate) fn new(worker: usize) -> BufferPool {
        BufferPool { worker, ..BufferPool::default() }
    }

    fn err(&self, detail: String) -> RuntimeError {
        RuntimeError::Pool { worker: self.worker, detail }
    }

    /// Applies the placement action of one schedule position. `need` is the
    /// byte size of the node's output tensor.
    pub(crate) fn apply(&mut self, action: SlotAction, need: u64) -> Result<()> {
        match action {
            SlotAction::InPlace { slot } => {
                let have = self.slot_len(slot)?;
                if have < need {
                    return Err(self.err(format!(
                        "in-place takeover of slot {slot} ({have} B) needs {need} B"
                    )));
                }
            }
            SlotAction::Reuse { slot, grown_by } => {
                let have = self.slot_len(slot)? + grown_by;
                if grown_by > 0 {
                    self.slots[slot] = have;
                    self.current += grown_by;
                    self.peak = self.peak.max(self.current);
                }
                if have < need {
                    return Err(self.err(format!(
                        "slot {slot} holds {have} B after growth but {need} B are needed"
                    )));
                }
            }
            SlotAction::Alloc { slot } => {
                if slot != self.slots.len() {
                    return Err(self.err(format!(
                        "plan allocates slot {slot} but pool holds {}",
                        self.slots.len()
                    )));
                }
                self.slots.push(need);
                self.current += need;
                self.peak = self.peak.max(self.current);
            }
        }
        Ok(())
    }

    fn slot_len(&self, slot: usize) -> Result<u64> {
        self.slots
            .get(slot)
            .copied()
            .ok_or_else(|| self.err(format!("plan references unallocated slot {slot}")))
    }

    /// High-water mark of resident slot bytes.
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Currently resident slot bytes.
    pub(crate) fn current_bytes(&self) -> u64 {
        self.current
    }

    /// Checks the fully-applied pool against its seeding plan: same slots,
    /// same sizes, same peak.
    pub(crate) fn verify_against(&self, plan: &BufferPlan) -> Result<()> {
        if self.slots != plan.slot_bytes {
            return Err(self.err("pool slots diverged from the plan".into()));
        }
        if self.peak != plan.mem.peak_transient_bytes {
            return Err(self.err(format!(
                "pool peak {} B but the plan predicted {} B",
                self.peak, plan.mem.peak_transient_bytes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_alloc_reuse_grow() {
        let mut p = BufferPool::new(0);
        p.apply(SlotAction::Alloc { slot: 0 }, 100).unwrap();
        p.apply(SlotAction::Alloc { slot: 1 }, 50).unwrap();
        p.apply(SlotAction::InPlace { slot: 0 }, 100).unwrap();
        p.apply(SlotAction::Reuse { slot: 1, grown_by: 30 }, 80).unwrap();
        assert_eq!(p.peak_bytes(), 180);
        assert_eq!(p.current_bytes(), 180);
        assert_eq!(p.slots.len(), 2);
    }

    #[test]
    fn rejects_inconsistent_plans() {
        let mut p = BufferPool::new(0);
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 1).is_err());
        assert!(p.apply(SlotAction::Alloc { slot: 3 }, 1).is_err());
        p.apply(SlotAction::Alloc { slot: 0 }, 10).unwrap();
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 11).is_err());
    }
}
