//! Deterministic fault injection.
//!
//! A [`FaultPlan`] in [`RunOptions`](crate::RunOptions) names exactly which
//! failures to inject and where: kill or panic a worker at a chosen schedule
//! position, tamper with the n-th message on a chosen link (drop, duplicate,
//! corrupt, delay), or force a buffer-pool over-budget event. Injection
//! points are schedule positions and per-link message indices — both
//! deterministic for a given sharded graph — so every run of a plan exercises
//! the identical failure path.
//!
//! Every fault fires **once** per [`FaultState`] (and `run_with_recovery`
//! shares one state across retries, so the retry observes a healthy world
//! and can validate the checkpoint-restart path). A device that is gone for
//! good is not a fault but a [`ChurnEvent::Leave`] (below), and a disk fault
//! belongs to the durable store it corrupts
//! ([`DurableOptions::disk_faults`](crate::DurableOptions)). Fault worker
//! indices name **physical** devices: when elastic recovery shrinks the
//! worker set, surviving logical workers keep querying the state under their
//! original physical ids.
//!
//! `FaultRng` is the crate's small deterministic generator (SplitMix64):
//! [`ChurnPlan::seeded`] derives a churn script from it and
//! the supervisor's retry backoff its jitter, so both replay from a seed.
//!
//! # Fleet churn
//!
//! A [`ChurnPlan`] scripts fleet-*membership* events on top of the fault
//! plan: a [`ChurnEvent::Leave`] makes a device die for good at a chosen
//! schedule position (the trigger for an elastic shrink), and a
//! [`ChurnEvent::Join`] announces that a device (re)joins and asks the
//! elastic ladder to grow back onto it at a chosen checkpoint barrier.
//! Events are processed **strictly in plan order**: exactly one event is
//! *armed* at a time, a `Leave` kills its device at every attempt that
//! reaches the site while armed and is retired when elastic recovery removes
//! the device, and the next event arms only then. Injection sites are
//! schedule positions and barrier ids — both deterministic for a given
//! graph — so one seed yields one replayable fleet history: the same
//! leave/rejoin/leave sequence, the same widths, the same bit-exact output,
//! every run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// What to do to one targeted cross-worker message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// Swallow the message (the wire loses it).
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Flip a payload bit after the checksum is computed.
    Corrupt,
    /// Hold the message back for the given time before sending.
    Delay(Duration),
}

/// One injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Worker `worker` dies silently just before executing schedule
    /// position `pos` (clamped to its last position).
    Kill {
        /// Victim worker.
        worker: usize,
        /// Local schedule position at which it dies.
        pos: usize,
    },
    /// Worker `worker` panics just before executing schedule position `pos`.
    Panic {
        /// Victim worker.
        worker: usize,
        /// Local schedule position at which it panics.
        pos: usize,
    },
    /// Tamper with the `index`-th message (0-based, in send order, startup
    /// sends included) that `src` pushes to `dst`.
    Message {
        /// Sending worker.
        src: usize,
        /// Receiving worker.
        dst: usize,
        /// 0-based message index on the `src → dst` link.
        index: u64,
        /// What to do to it.
        action: MessageFault,
    },
    /// Worker `worker`'s buffer pool runs out of device memory just before
    /// schedule position `pos`: the run fails with a typed over-budget pool
    /// error.
    PoolOverBudget {
        /// Victim worker.
        worker: usize,
        /// Local schedule position at which the pool overflows.
        pos: usize,
    },
}

/// The full set of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults to inject, each firing once; order is irrelevant.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no injection).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan::default().with(fault)
    }

    /// Adds a fault, builder style.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }
}

/// One scripted fleet-membership event. Devices are **physical** ids (the
/// same namespace fault plans target); schedule positions and checkpoint
/// ids are deterministic for a given graph, so a plan replays identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Device `device` leaves the fleet for good: while this event is armed
    /// it kills the device just before local schedule position `pos`
    /// (clamped like any step fault) at every attempt that gets there, and
    /// elastic recovery retires the event when it removes the device from
    /// the topology.
    Leave {
        /// Physical device that leaves.
        device: usize,
        /// Local schedule position at which it dies.
        pos: usize,
    },
    /// Device `device` (re)joins the fleet: once armed, the elastic ladder
    /// yields the run at a checkpoint barrier at or after `at_ckpt`,
    /// reshards onto the enlarged device set, and resumes at the grown
    /// width.
    Join {
        /// Physical device that joins; may be a brand-new id.
        device: usize,
        /// Earliest (1-based) checkpoint barrier the grow may happen at.
        at_ckpt: usize,
    },
}

/// An ordered script of fleet-membership events (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Events, in the order they must happen.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan (no churn).
    pub fn none() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// Appends a leave event, builder style.
    pub fn with_leave(mut self, device: usize, pos: usize) -> ChurnPlan {
        self.events.push(ChurnEvent::Leave { device, pos });
        self
    }

    /// Appends a join event, builder style.
    pub fn with_join(mut self, device: usize, at_ckpt: usize) -> ChurnPlan {
        self.events.push(ChurnEvent::Join { device, at_ckpt });
        self
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when any event is a join (joins need plan-independent
    /// checkpoints to grow at).
    pub(crate) fn has_joins(&self) -> bool {
        self.events.iter().any(|e| matches!(e, ChurnEvent::Join { .. }))
    }

    /// A seeded random churn script over an initial fleet of
    /// `fleet` devices (`0..fleet`): `events` leave/join events whose
    /// membership is always valid (leaves target present devices and keep at
    /// least two present; joins bring back absent ones). Equal arguments
    /// yield the identical plan — the determinism the chaos harness replays.
    pub fn seeded(seed: u64, events: usize, fleet: usize, max_pos: usize, max_ckpt: usize) -> ChurnPlan {
        let mut rng = FaultRng::new(seed);
        let mut present: Vec<bool> = vec![true; fleet];
        let mut plan = ChurnPlan::none();
        for _ in 0..events {
            let here: Vec<usize> = (0..fleet).filter(|&d| present[d]).collect();
            let gone: Vec<usize> = (0..fleet).filter(|&d| !present[d]).collect();
            let can_leave = here.len() > 2;
            let can_join = !gone.is_empty();
            if !can_leave && !can_join {
                break;
            }
            let leave = can_leave && (!can_join || rng.below(2) == 0);
            if leave {
                let d = here[rng.below(here.len() as u64) as usize];
                present[d] = false;
                plan = plan.with_leave(d, rng.below(max_pos.max(1) as u64) as usize);
            } else {
                let d = gone[rng.below(gone.len() as u64) as usize];
                present[d] = true;
                plan = plan.with_join(d, 1 + rng.below(max_ckpt.max(1) as u64) as usize);
            }
        }
        plan
    }

    /// Checks the script against an initial fleet of `initial_workers`
    /// devices: every leave must target a present device and every join an
    /// absent one, in plan order.
    pub fn validate(&self, initial_workers: usize) -> std::result::Result<(), String> {
        let mut present: Vec<usize> = (0..initial_workers).collect();
        for (i, e) in self.events.iter().enumerate() {
            match *e {
                ChurnEvent::Leave { device, .. } => {
                    let Some(at) = present.iter().position(|&d| d == device) else {
                        return Err(format!(
                            "churn event {i}: device {device} leaves but is not in the fleet"
                        ));
                    };
                    present.remove(at);
                }
                ChurnEvent::Join { device, at_ckpt } => {
                    if at_ckpt == 0 {
                        return Err(format!(
                            "churn event {i}: join checkpoint ids are 1-based; 0 is invalid"
                        ));
                    }
                    if present.contains(&device) {
                        return Err(format!(
                            "churn event {i}: device {device} joins but is already in the fleet"
                        ));
                    }
                    present.push(device);
                }
            }
        }
        Ok(())
    }
}

/// Deterministic SplitMix64 stream for deriving fault sites from a seed.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A stream seeded by `seed`; equal seeds yield equal streams.
    pub(crate) fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed ^ 0x9e3779b97f4a7c15 }
    }

    /// Next raw 64-bit word.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value below `n` (`n` must be positive).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "FaultRng::below(0)");
        self.next_u64() % n
    }
}

/// A step fault that fired at a worker's schedule position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepFault {
    Kill,
    Panic,
    PoolOverBudget,
}

/// Shared injection state of a plan. One `FaultState` spans every attempt of
/// a supervised run (every retry, every width), so each fault is observed by
/// exactly one attempt per process while an armed churn leave keeps killing
/// its device for as long as the device stays in the topology.
#[derive(Debug)]
pub(crate) struct FaultState {
    faults: Vec<(Fault, AtomicBool)>,
    /// Scripted membership events, processed strictly in order: index of
    /// the currently *armed* event. An armed `Leave` kills its device at
    /// every attempt; the elastic driver retires it (and arms the next
    /// event) when the device actually leaves the topology.
    churn: Vec<ChurnEvent>,
    armed: AtomicUsize,
    /// Whether any message fault exists in the plan at all. Computed once so
    /// the send hot path can skip the per-message fault-table scan entirely
    /// on fault-free runs.
    has_message: bool,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> FaultState {
        FaultState::with_churn(plan, &ChurnPlan::none())
    }

    pub(crate) fn with_churn(plan: &FaultPlan, churn: &ChurnPlan) -> FaultState {
        FaultState {
            faults: plan.faults.iter().map(|f| (f.clone(), AtomicBool::new(false))).collect(),
            churn: churn.events.clone(),
            armed: AtomicUsize::new(0),
            has_message: plan.faults.iter().any(|f| matches!(f, Fault::Message { .. })),
        }
    }

    /// True when the plan contains at least one message fault (armed or
    /// already fired) — senders consult this before scanning the table.
    pub(crate) fn has_message_faults(&self) -> bool {
        self.has_message
    }

    /// The currently armed churn event, if the script has any left.
    pub(crate) fn armed_event(&self) -> Option<ChurnEvent> {
        self.churn.get(self.armed.load(Ordering::Acquire)).copied()
    }

    /// `(device, at_ckpt)` when the armed event is a join.
    pub(crate) fn pending_join(&self) -> Option<(usize, usize)> {
        match self.armed_event() {
            Some(ChurnEvent::Join { device, at_ckpt }) => Some((device, at_ckpt)),
            _ => None,
        }
    }

    /// Retires the armed churn event; the next one (if any) arms.
    pub(crate) fn advance_churn(&self) {
        self.armed.fetch_add(1, Ordering::AcqRel);
    }

    /// A whole-process crash: which faults already fired is
    /// process memory and is forgotten, so they fire again in the restarted
    /// process. The churn cursor is the world and stays where it is. Called
    /// between attempts, when no worker is consulting the state.
    pub(crate) fn forget_fired(&self) {
        for (_, fired) in &self.faults {
            fired.store(false, Ordering::Release);
        }
    }

    /// Whether fault `i` fires now: only on the first call.
    fn fire(&self, i: usize) -> bool {
        !self.faults[i].1.swap(true, Ordering::AcqRel)
    }

    /// The step faults (kill/panic/pool) firing for physical device `worker`
    /// just before its local schedule position `pos`. `last` is the worker's
    /// final position, used to clamp out-of-range injection sites so "late"
    /// faults on short schedules still fire; `start` is the position the
    /// attempt resumed from, so a fault or leave planted *before* the
    /// resume cut still kills the attempt at its first step instead of
    /// silently becoming unreachable.
    pub(crate) fn step_faults(
        &self,
        worker: usize,
        pos: usize,
        last: usize,
        start: usize,
    ) -> Vec<StepFault> {
        let mut out = Vec::new();
        for (i, (f, _)) in self.faults.iter().enumerate() {
            let (w, p, kind) = match f {
                Fault::Kill { worker, pos } => (*worker, *pos, StepFault::Kill),
                Fault::Panic { worker, pos } => (*worker, *pos, StepFault::Panic),
                Fault::PoolOverBudget { worker, pos } => {
                    (*worker, *pos, StepFault::PoolOverBudget)
                }
                Fault::Message { .. } => continue,
            };
            if w == worker && p.min(last).max(start) == pos && self.fire(i) {
                out.push(kind);
            }
        }
        // An armed churn leave kills its device on every attempt that
        // reaches the site until the elastic driver removes the device and
        // retires the event.
        if let Some(ChurnEvent::Leave { device, pos: p }) = self.armed_event() {
            if device == worker && p.min(last).max(start) == pos {
                out.push(StepFault::Kill);
            }
        }
        out
    }

    /// The message fault (if any) targeting the `index`-th message that
    /// physical device `src` pushes to physical device `dst`.
    pub(crate) fn message_action(
        &self,
        src: usize,
        dst: usize,
        index: u64,
    ) -> Option<MessageFault> {
        for (i, (f, _)) in self.faults.iter().enumerate() {
            if let Fault::Message { src: s, dst: d, index: n, action } = f {
                if *s == src && *d == dst && *n == index && self.fire(i) {
                    return Some(*action);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_faults_fire_once() {
        let st = FaultState::new(&FaultPlan::single(Fault::Kill { worker: 1, pos: 3 }));
        assert!(st.step_faults(0, 3, 10, 0).is_empty(), "wrong worker");
        assert!(st.step_faults(1, 2, 10, 0).is_empty(), "wrong position");
        assert_eq!(st.step_faults(1, 3, 10, 0), vec![StepFault::Kill]);
        assert!(st.step_faults(1, 3, 10, 0).is_empty(), "transient faults are one-shot");
    }

    #[test]
    fn out_of_range_position_clamps_to_last() {
        let st = FaultState::new(&FaultPlan::single(Fault::Panic { worker: 0, pos: 99 }));
        assert!(st.step_faults(0, 4, 5, 0).is_empty());
        assert_eq!(st.step_faults(0, 5, 5, 0), vec![StepFault::Panic]);
    }

    #[test]
    fn message_action_matches_link_and_index() {
        let st = FaultState::new(&FaultPlan::single(Fault::Message {
            src: 0,
            dst: 2,
            index: 1,
            action: MessageFault::Drop,
        }));
        assert_eq!(st.message_action(0, 2, 0), None);
        assert_eq!(st.message_action(1, 2, 1), None);
        assert_eq!(st.message_action(0, 2, 1), Some(MessageFault::Drop));
        assert_eq!(st.message_action(0, 2, 1), None, "message faults are one-shot");
    }

    #[test]
    fn churn_events_process_strictly_in_order() {
        let plan = ChurnPlan::none().with_leave(1, 3).with_join(1, 2).with_leave(2, 5);
        let st = FaultState::with_churn(&FaultPlan::none(), &plan);
        // The armed leave re-fires at every attempt...
        assert_eq!(st.step_faults(1, 3, 10, 0), vec![StepFault::Kill]);
        assert_eq!(st.step_faults(1, 3, 10, 0), vec![StepFault::Kill]);
        // ...and masks every later event: the join is not pending yet, and
        // the second leave does not fire.
        assert_eq!(st.pending_join(), None);
        assert!(st.step_faults(2, 5, 10, 0).is_empty());
        st.advance_churn();
        assert!(st.step_faults(1, 3, 10, 0).is_empty(), "retired leave no longer fires");
        assert_eq!(st.pending_join(), Some((1, 2)));
        st.advance_churn();
        assert_eq!(st.pending_join(), None);
        assert_eq!(st.step_faults(2, 5, 10, 0), vec![StepFault::Kill], "third event armed");
        st.advance_churn();
        assert_eq!(st.armed_event(), None, "script exhausted");
    }

    #[test]
    fn churn_leave_clamps_like_step_faults() {
        let plan = ChurnPlan::none().with_leave(0, 99);
        let st = FaultState::with_churn(&FaultPlan::none(), &plan);
        assert!(st.step_faults(0, 4, 5, 0).is_empty());
        assert_eq!(st.step_faults(0, 5, 5, 0), vec![StepFault::Kill]);
        // Resumed past the site: fires at the resume position instead.
        assert_eq!(st.step_faults(0, 7, 5, 7), vec![StepFault::Kill]);
    }

    #[test]
    fn seeded_churn_is_deterministic_and_valid() {
        let a = ChurnPlan::seeded(11, 6, 8, 40, 4);
        assert_eq!(a, ChurnPlan::seeded(11, 6, 8, 40, 4), "equal seeds yield equal plans");
        assert_ne!(a, ChurnPlan::seeded(12, 6, 8, 40, 4), "the plan depends on the seed");
        assert_eq!(a.events.len(), 6);
        a.validate(8).expect("seeded plans are membership-valid");
        for seed in 0..32 {
            ChurnPlan::seeded(seed, 10, 4, 20, 3).validate(4).expect("valid at any seed");
        }
    }

    #[test]
    fn churn_validate_rejects_bad_membership() {
        assert!(ChurnPlan::none().with_leave(4, 0).validate(4).is_err(), "leave of absent device");
        assert!(ChurnPlan::none().with_join(1, 2).validate(4).is_err(), "join of present device");
        assert!(ChurnPlan::none().with_join(4, 0).validate(4).is_err(), "0 is not a checkpoint id");
        let ok = ChurnPlan::none().with_leave(1, 3).with_join(1, 1).with_join(4, 2);
        ok.validate(4).expect("leave-then-rejoin plus a new device is valid");
        assert!(ok.has_joins());
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(FaultRng::new(1).below(10) < 10);
    }
}
