//! Per-worker buffer pool seeded from the static memory planner.
//!
//! The pool is the ledger of one arena per worker: it replays a
//! [`BufferPlan`]'s placements in *executed* order against the byte size of
//! each tensor the kernels actually produced, and checks every one — the
//! output, at its planned offset, ends inside the plan's arena — and the end
//! state: the high-water mark, the largest `offset + bytes` applied, is the
//! plan's peak. No memory is allocated here (the kernels return their own
//! tensors), so the high-water mark is the plan's peak *confirmed against
//! execution*, not an independent measurement; the tests hold it against
//! `tofu-sim`'s separately computed `per_device_memory`.

use tofu_graph::{BufferPlan, Placement};

use crate::error::RuntimeError;
use crate::Result;

/// Byte ledger of one worker's arena of transient tensors.
#[derive(Debug)]
pub(crate) struct BufferPool {
    worker: usize,
    /// The plan's arena size: no placement may end past it.
    arena: u64,
    /// The largest `offset + bytes` applied so far.
    high: u64,
}

impl BufferPool {
    /// An empty pool owned by `worker`, over `plan`'s arena.
    pub(crate) fn new(worker: usize, plan: &BufferPlan) -> BufferPool {
        BufferPool { worker, arena: plan.mem.peak_transient_bytes, high: 0 }
    }

    fn err(&self, detail: String) -> RuntimeError {
        RuntimeError::Pool { worker: self.worker, detail }
    }

    /// Applies the placement of one schedule position. `need` is the byte
    /// size of the node's output tensor.
    pub(crate) fn apply(&mut self, placement: Placement, need: u64) -> Result<()> {
        let end = placement.offset + need;
        if end > self.arena {
            let (at, arena) = (placement.offset, self.arena);
            return Err(self.err(format!("{need} B at offset {at} end past the {arena} B arena")));
        }
        self.high = self.high.max(end);
        Ok(())
    }

    /// The arena's high-water mark: the largest `offset + bytes` applied.
    pub(crate) fn high_water_bytes(&self) -> u64 {
        self.high
    }

    /// Checks the fully-applied pool against its seeding plan: the
    /// high-water mark is the plan's peak.
    pub(crate) fn verify_against(&self, plan: &BufferPlan) -> Result<()> {
        if self.high != plan.mem.peak_transient_bytes {
            let (high, want) = (self.high, plan.mem.peak_transient_bytes);
            return Err(self.err(format!("pool peak {high} B but the plan predicted {want} B")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::MemPlan;

    fn at(offset: u64, in_place: bool) -> Placement {
        Placement { offset, in_place }
    }

    /// A 3 KiB arena: two 1 KiB outputs side by side, a third in place on
    /// the first, and a 2 KiB one from offset 1 KiB; with each output's
    /// bytes.
    fn planned() -> (BufferPlan, Vec<u64>) {
        let placements = vec![at(0, false), at(1024, false), at(0, true), at(1024, false)];
        let mem = MemPlan { peak_transient_bytes: 3072, live_peak_bytes: 3072, persistent_bytes: 0 };
        (BufferPlan { mem, placements, persistent: vec![] }, vec![1024, 1024, 1024, 2048])
    }

    /// Applies the placements of positions `from..to` to `p`.
    fn replay(p: &mut BufferPool, plan: &BufferPlan, needs: &[u64], from: usize, to: usize) {
        for (&at, &need) in plan.placements[from..to].iter().zip(&needs[from..to]) {
            p.apply(at, need).unwrap();
        }
    }

    #[test]
    fn a_full_replay_reaches_the_arena_and_a_resumed_prefix_restores_its_mark() {
        let (plan, needs) = planned();
        for (cut, mark) in [(0, 0), (1, 1024), (2, 2048), (3, 2048), (4, 3072)] {
            // A resumed worker replays the prefix before its cut, then runs.
            let mut p = BufferPool::new(0, &plan);
            replay(&mut p, &plan, &needs, 0, cut);
            assert_eq!(p.high_water_bytes(), mark, "cut {cut}");
            replay(&mut p, &plan, &needs, cut, needs.len());
            assert_eq!(p.high_water_bytes(), plan.mem.peak_transient_bytes);
            p.verify_against(&plan).unwrap();
        }
    }

    #[test]
    fn rejects_a_placement_past_the_arena_and_a_short_peak() {
        let (plan, _) = planned();
        let mut p = BufferPool::new(0, &plan);
        assert!(p.apply(at(3062, false), 11).is_err());
        assert!(p.apply(at(3072, false), 1).is_err());
        p.apply(at(3052, false), 10).unwrap();
        assert!(p.verify_against(&plan).is_err(), "short of the arena");
        p.apply(at(3062, false), 10).unwrap();
        p.verify_against(&plan).unwrap();
    }
}
