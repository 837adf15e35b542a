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
//!
//! An optional byte **budget** models a device memory cap: any `apply` that
//! finds (or leaves) the pool above the budget fails with a typed over-budget
//! pool error. The fault injector clamps the budget below the current
//! occupancy to force this path deterministically.

use tofu_graph::{BufferPlan, SlotAction};

use crate::error::RuntimeError;
use crate::Result;

/// Slot-by-slot byte ledger of one worker's transient tensors.
#[derive(Debug, Default)]
pub struct BufferPool {
    worker: usize,
    /// Byte size of every planner slot, in allocation order.
    slots: Vec<u64>,
    current: u64,
    peak: u64,
    budget: Option<u64>,
}

impl BufferPool {
    /// An empty pool owned by `worker`; slots appear as the plan's actions
    /// are applied.
    pub fn new(worker: usize) -> BufferPool {
        BufferPool { worker, ..BufferPool::default() }
    }

    /// Caps resident slot bytes; `None` removes the cap.
    pub fn set_budget(&mut self, bytes: Option<u64>) {
        self.budget = bytes;
    }

    /// The configured byte cap, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn err(&self, detail: String) -> RuntimeError {
        RuntimeError::Pool { worker: self.worker, detail }
    }

    fn check_budget(&self) -> Result<()> {
        if let Some(b) = self.budget {
            if self.current > b {
                return Err(self.err(format!(
                    "over budget: {} B resident exceeds the {} B cap",
                    self.current, b
                )));
            }
        }
        Ok(())
    }

    /// Applies the placement action of one schedule position. `need` is the
    /// byte size of the node's output tensor.
    pub fn apply(&mut self, action: SlotAction, need: u64) -> Result<()> {
        self.check_budget()?;
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
        self.check_budget()
    }

    fn slot_len(&self, slot: usize) -> Result<u64> {
        self.slots
            .get(slot)
            .copied()
            .ok_or_else(|| self.err(format!("plan references unallocated slot {slot}")))
    }

    /// High-water mark of resident slot bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Currently resident slot bytes.
    pub fn current_bytes(&self) -> u64 {
        self.current
    }

    /// Number of planner slots allocated so far.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Checks the fully-applied pool against its seeding plan: same slots,
    /// same sizes, same peak.
    pub fn verify_against(&self, plan: &BufferPlan) -> Result<()> {
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
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn rejects_inconsistent_plans() {
        let mut p = BufferPool::new(0);
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 1).is_err());
        assert!(p.apply(SlotAction::Alloc { slot: 3 }, 1).is_err());
        p.apply(SlotAction::Alloc { slot: 0 }, 10).unwrap();
        assert!(p.apply(SlotAction::InPlace { slot: 0 }, 11).is_err());
    }

    #[test]
    fn budget_trips_typed_over_budget_error() {
        let mut p = BufferPool::new(7);
        p.set_budget(Some(120));
        p.apply(SlotAction::Alloc { slot: 0 }, 100).unwrap();
        let err = p.apply(SlotAction::Alloc { slot: 1 }, 50).unwrap_err();
        match err {
            RuntimeError::Pool { worker, detail } => {
                assert_eq!(worker, 7);
                assert!(detail.contains("over budget"), "got: {detail}");
            }
            other => panic!("expected Pool error, got {other}"),
        }
        // Clamping below current occupancy fails the very next apply, even a
        // growth-free one — the fault injector relies on this.
        let mut q = BufferPool::new(1);
        q.apply(SlotAction::Alloc { slot: 0 }, 100).unwrap();
        q.set_budget(Some(99));
        assert!(q.apply(SlotAction::InPlace { slot: 0 }, 100).is_err());
    }
}
