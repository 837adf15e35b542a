//! Unified observability for the Tofu stack: lightweight spans,
//! monotonically-timestamped events and named counters, with a Chrome-trace
//! JSON exporter ([`chrome`]) so a measured runtime trace, a simulated
//! timeline and the partition search's statistics overlay in one
//! `chrome://tracing` / Perfetto view.
//!
//! The crate is **zero-dependency** (std only) and cheap to leave disabled:
//! every instrumentation site in the workspace holds an
//! `Option<`[`Collector`]`>` and a disabled collector is simply `None` — the
//! per-event cost of a disabled site is one discriminant check, no clock
//! read, no allocation, no lock.
//!
//! # Event schema
//!
//! Every [`Event`] lives on a [`Track`] — a `(pid, tid)` pair in
//! Chrome-trace terms. Processes group the three layers:
//!
//! - `pid 100 + d` — **runtime** device `d` (measured, wall-clock µs);
//! - `pid 200 + d` — **sim** device `d` (predicted, simulated µs);
//! - `pid 1` — the **partition search** (DP statistics);
//! - `pid 2` — **runtime control** (attempts, recovery, aborts).
//!
//! Within a track three phases exist: [`Phase::Complete`] spans (an op, a
//! transfer, a recv-wait), [`Phase::Instant`] markers (checkpoint, abort)
//! and [`Phase::Counter`] samples (pool bytes, link bytes, DP frontier).
//! The runtime and the simulator emit the *same* span names for the same
//! sharded graph — op spans are named by node name — so the two process
//! groups line up row for row.
//!
//! # Example
//!
//! ```
//! use tofu_obs::{Collector, Track};
//!
//! let obs = Collector::new();
//! let t0 = obs.now_us();
//! // ... work ...
//! obs.complete(Track::runtime(0), "op", "fc0", t0, obs.now_us());
//! obs.counter(Track::runtime(0), "pool bytes", obs.now_us(), 4096.0);
//! obs.add_total("dp/states_explored", 12.0);
//! let json = tofu_obs::chrome::chrome_trace_json(&obs.events());
//! assert!(json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process id of the partition-search track.
pub const PID_SEARCH: u32 = 1;
/// Process id of the runtime-control track (attempts, aborts, recovery).
pub const PID_CONTROL: u32 = 2;
/// Process id of the plan-service track (request spans, queue counters).
pub const PID_SERVE: u32 = 3;
/// Base process id of the measured runtime devices (`pid = base + device`).
pub const PID_RUNTIME_BASE: u32 = 100;
/// Base process id of the simulated devices (`pid = base + device`).
pub const PID_SIM_BASE: u32 = 200;

/// Where an event lives: one Chrome-trace `(pid, tid)` lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Chrome-trace process id (one per device and process group).
    pub pid: u32,
    /// Chrome-trace thread id within the process (0 = main lane).
    pub tid: u32,
}

impl Track {
    /// The measured-runtime lane of a device.
    pub fn runtime(device: usize) -> Track {
        Track { pid: PID_RUNTIME_BASE + device as u32, tid: 0 }
    }

    /// The simulated lane of a device.
    pub fn sim(device: usize) -> Track {
        Track { pid: PID_SIM_BASE + device as u32, tid: 0 }
    }

    /// The simulated link lane of a device (transfers it sends).
    pub fn sim_link(device: usize) -> Track {
        Track { pid: PID_SIM_BASE + device as u32, tid: 1 }
    }

    /// The partition-search lane.
    pub fn search() -> Track {
        Track { pid: PID_SEARCH, tid: 0 }
    }

    /// The runtime-control lane (run attempts, aborts, recovery).
    pub fn control() -> Track {
        Track { pid: PID_CONTROL, tid: 0 }
    }

    /// The plan-service lane (per-request spans, admission/queue counters).
    pub fn serve() -> Track {
        Track { pid: PID_SERVE, tid: 0 }
    }

    /// The device a runtime/sim track belongs to, if any.
    pub fn device(&self) -> Option<usize> {
        if self.pid >= PID_SIM_BASE {
            Some((self.pid - PID_SIM_BASE) as usize)
        } else if self.pid >= PID_RUNTIME_BASE {
            Some((self.pid - PID_RUNTIME_BASE) as usize)
        } else {
            None
        }
    }
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer payload (ids, byte counts).
    U64(u64),
    /// Floating payload.
    F64(f64),
    /// String payload.
    Str(String),
}

/// What kind of mark an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// A span with a duration (Chrome `ph: "X"`).
    Complete {
        /// Span length in microseconds.
        dur_us: f64,
    },
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant,
    /// A sampled counter value (Chrome `ph: "C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One trace event. Timestamps are microseconds: wall-clock micros since the
/// collector's epoch for measured tracks, simulated micros since iteration
/// start for sim tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span/marker/counter name. Op spans use the graph node's name so the
    /// runtime and sim lanes align.
    pub name: String,
    /// Category (`op`, `wait`, `comm`, `pool`, `abort`, `ckpt`, `search`).
    pub cat: &'static str,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// The lane this event lives on.
    pub track: Track,
    /// Complete / instant / counter.
    pub phase: Phase,
    /// Optional structured arguments.
    pub args: Vec<(&'static str, Arg)>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Mutex<Vec<Event>>,
    totals: Mutex<BTreeMap<String, f64>>,
}

/// A shared, thread-safe event sink. Clones are handles to the same sink.
///
/// Hot paths should not lock per event: batch into a local `Vec<Event>` (see
/// [`SpanBuffer`]) and [`Collector::record_all`] once per worker.
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Inner>,
    epoch: Instant,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh, enabled collector; its epoch (timestamp zero) is now.
    pub fn new() -> Collector {
        Collector { inner: Arc::new(Inner::default()), epoch: Instant::now() }
    }

    /// Microseconds elapsed since the collector's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records one event.
    pub fn record(&self, event: Event) {
        self.inner.events.lock().expect("obs lock").push(event);
    }

    /// Records a batch of events with one lock acquisition.
    pub fn record_all(&self, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.inner.events.lock().expect("obs lock").extend(events);
    }

    /// Records a complete span `[start_us, end_us)`.
    pub fn complete(&self, track: Track, cat: &'static str, name: &str, start_us: f64, end_us: f64) {
        self.record(Event {
            name: name.to_string(),
            cat,
            ts_us: start_us,
            track,
            phase: Phase::Complete { dur_us: (end_us - start_us).max(0.0) },
            args: Vec::new(),
        });
    }

    /// Records an instant marker.
    pub fn instant(&self, track: Track, cat: &'static str, name: &str) {
        let ts = self.now_us();
        self.record(Event {
            name: name.to_string(),
            cat,
            ts_us: ts,
            track,
            phase: Phase::Instant,
            args: Vec::new(),
        });
    }

    /// Records a counter sample.
    pub fn counter(&self, track: Track, name: &str, ts_us: f64, value: f64) {
        self.record(Event {
            name: name.to_string(),
            cat: "counter",
            ts_us,
            track,
            phase: Phase::Counter { value },
            args: Vec::new(),
        });
    }

    /// Adds `delta` to the named running total (created at zero). Totals are
    /// aggregate statistics with no timeline — states explored, strategies
    /// enumerated — read back with [`Collector::totals`].
    pub fn add_total(&self, name: &str, delta: f64) {
        *self.inner.totals.lock().expect("obs lock").entry(name.to_string()).or_insert(0.0) +=
            delta;
    }

    /// Sets the named total to `value` (for gauges like frontier maxima).
    pub fn max_total(&self, name: &str, value: f64) {
        let mut totals = self.inner.totals.lock().expect("obs lock");
        let e = totals.entry(name.to_string()).or_insert(value);
        if value > *e {
            *e = value;
        }
    }

    /// Snapshot of every recorded event, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().expect("obs lock").clone()
    }

    /// Snapshot of the named running totals.
    pub fn totals(&self) -> BTreeMap<String, f64> {
        self.inner.totals.lock().expect("obs lock").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().expect("obs lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A local buffer bound to one track of this collector; flush it once at
    /// the end of the worker's run.
    pub fn buffer(&self, track: Track) -> SpanBuffer {
        SpanBuffer { collector: self.clone(), track, events: Vec::new() }
    }
}

/// A per-thread event buffer: events accumulate lock-free and are handed to
/// the collector in one batch by [`SpanBuffer::flush`] (also on drop).
#[derive(Debug)]
pub struct SpanBuffer {
    collector: Collector,
    /// Default lane for events pushed through the convenience methods.
    pub track: Track,
    events: Vec<Event>,
}

impl SpanBuffer {
    /// Microseconds since the owning collector's epoch.
    pub fn now_us(&self) -> f64 {
        self.collector.now_us()
    }

    /// Buffers a complete span.
    pub fn complete(&mut self, cat: &'static str, name: &str, start_us: f64, end_us: f64) {
        self.push(Event {
            name: name.to_string(),
            cat,
            ts_us: start_us,
            track: self.track,
            phase: Phase::Complete { dur_us: (end_us - start_us).max(0.0) },
            args: Vec::new(),
        });
    }

    /// Buffers an instant marker at the current time.
    pub fn instant(&mut self, cat: &'static str, name: &str) {
        let ts = self.now_us();
        self.push(Event {
            name: name.to_string(),
            cat,
            ts_us: ts,
            track: self.track,
            phase: Phase::Instant,
            args: Vec::new(),
        });
    }

    /// Buffers a counter sample.
    pub fn counter(&mut self, name: &str, ts_us: f64, value: f64) {
        self.push(Event {
            name: name.to_string(),
            cat: "counter",
            ts_us,
            track: self.track,
            phase: Phase::Counter { value },
            args: Vec::new(),
        });
    }

    /// Buffers a fully-specified event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of buffered (unflushed) events.
    pub fn pending(&self) -> usize {
        self.events.len()
    }

    /// Hands the buffered events to the collector.
    pub fn flush(&mut self) {
        self.collector.record_all(std::mem::take(&mut self.events));
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let c = Collector::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn records_and_snapshots() {
        let c = Collector::new();
        c.complete(Track::runtime(0), "op", "fc0", 1.0, 5.0);
        c.instant(Track::control(), "abort", "abort observed");
        c.counter(Track::runtime(0), "pool bytes", 2.0, 1024.0);
        assert_eq!(c.len(), 3);
        let ev = c.events();
        assert_eq!(ev[0].phase, Phase::Complete { dur_us: 4.0 });
        assert_eq!(ev[2].phase, Phase::Counter { value: 1024.0 });
        assert!(!c.is_empty());
    }

    #[test]
    fn totals_accumulate_and_max() {
        let c = Collector::new();
        c.add_total("dp/states_explored", 5.0);
        c.add_total("dp/states_explored", 7.0);
        c.max_total("dp/frontier_width_max", 3.0);
        c.max_total("dp/frontier_width_max", 2.0);
        let t = c.totals();
        assert_eq!(t["dp/states_explored"], 12.0);
        assert_eq!(t["dp/frontier_width_max"], 3.0);
    }

    #[test]
    fn clones_share_the_sink() {
        let c = Collector::new();
        let d = c.clone();
        d.instant(Track::search(), "search", "step");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn buffer_flushes_once() {
        let c = Collector::new();
        {
            let mut b = c.buffer(Track::runtime(1));
            b.complete("op", "relu", 0.0, 1.0);
            b.counter("pool bytes", 1.0, 64.0);
            assert_eq!(b.pending(), 2);
            assert_eq!(c.len(), 0, "nothing reaches the sink before flush");
        }
        assert_eq!(c.len(), 2, "drop flushes");
    }

    #[test]
    fn tracks_map_to_devices() {
        assert_eq!(Track::runtime(3).device(), Some(3));
        assert_eq!(Track::sim(5).device(), Some(5));
        assert_eq!(Track::search().device(), None);
        assert_ne!(Track::runtime(0).pid, Track::sim(0).pid);
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let c = Collector::new();
        c.complete(Track::sim(0), "op", "x", 5.0, 3.0);
        assert_eq!(c.events()[0].phase, Phase::Complete { dur_us: 0.0 });
    }
}
