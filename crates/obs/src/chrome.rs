//! Chrome-trace-event JSON export.
//!
//! Produces the `{"traceEvents": [...]}` format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) (open the file
//! with *Open trace file*). Each [`Track`](crate::Track) becomes one
//! `(pid, tid)` lane; metadata events name the processes ("runtime device 0
//! (measured)", "sim device 0 (predicted)", "partition search", "runtime
//! control") and sort them so measured and predicted device lanes sit next
//! to each other.

use crate::json::Json;
use crate::{Arg, Event, Phase, PID_CONTROL, PID_RUNTIME_BASE, PID_SEARCH, PID_SERVE, PID_SIM_BASE};
use std::collections::BTreeSet;

/// Human-readable process name for a pid under the workspace pid scheme.
pub(crate) fn process_name(pid: u32) -> String {
    if pid == PID_SEARCH {
        "partition search".to_string()
    } else if pid == PID_CONTROL {
        "runtime control".to_string()
    } else if pid == PID_SERVE {
        "plan service".to_string()
    } else if pid >= PID_SIM_BASE {
        format!("sim device {} (predicted)", pid - PID_SIM_BASE)
    } else if pid >= PID_RUNTIME_BASE {
        format!("runtime device {} (measured)", pid - PID_RUNTIME_BASE)
    } else {
        format!("process {pid}")
    }
}

/// Sort key that interleaves measured and predicted lanes per device:
/// search, control, then device 0 runtime, device 0 sim, device 1 runtime...
fn process_sort_index(pid: u32) -> u64 {
    if pid == PID_SEARCH {
        0
    } else if pid == PID_CONTROL {
        1
    } else if pid == PID_SERVE {
        2
    } else if pid >= PID_SIM_BASE {
        10 + 2 * (pid - PID_SIM_BASE) as u64 + 1
    } else {
        10 + 2 * (pid - PID_RUNTIME_BASE) as u64
    }
}

fn arg_json(arg: &Arg) -> Json {
    match arg {
        Arg::U64(v) => Json::Num(*v as f64),
        Arg::F64(v) => Json::Num(*v),
        Arg::Str(s) => Json::Str(s.clone()),
    }
}

fn event_json(e: &Event) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("name", e.name.as_str().into()),
        ("cat", e.cat.into()),
        ("pid", Json::Num(e.track.pid as f64)),
        ("tid", Json::Num(e.track.tid as f64)),
        ("ts", Json::Num(e.ts_us)),
    ];
    match e.phase {
        Phase::Complete { dur_us } => {
            pairs.push(("ph", "X".into()));
            pairs.push(("dur", Json::Num(dur_us)));
        }
        Phase::Instant => {
            pairs.push(("ph", "i".into()));
            pairs.push(("s", "t".into())); // thread-scoped marker
        }
        Phase::Counter { value } => {
            pairs.push(("ph", "C".into()));
            pairs.push(("args", Json::obj(vec![("value", Json::Num(value))])));
        }
    }
    if !e.args.is_empty() {
        let args = Json::Obj(e.args.iter().map(|(k, v)| (k.to_string(), arg_json(v))).collect());
        // Counters already carry their value under "args"; merge extras in.
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == "args") {
            if let (Json::Obj(dst), Json::Obj(src)) = (&mut slot.1, args) {
                dst.extend(src);
            }
        } else {
            pairs.push(("args", args));
        }
    }
    Json::obj(pairs)
}

fn metadata(pid: u32, name: &str, value: Json) -> Json {
    Json::obj(vec![
        ("name", name.into()),
        ("ph", "M".into()),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(0.0)),
        ("args", Json::Obj(vec![(
            if name == "process_name" { "name" } else { "sort_index" }.to_string(),
            value,
        )])),
    ])
}

/// Renders events as a Chrome trace document ([`Json`] value).
pub fn chrome_trace(events: &[Event]) -> Json {
    let pids: BTreeSet<u32> = events.iter().map(|e| e.track.pid).collect();
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 2 * pids.len());
    for pid in &pids {
        out.push(metadata(*pid, "process_name", process_name(*pid).into()));
        out.push(metadata(*pid, "process_sort_index", Json::Num(process_sort_index(*pid) as f64)));
    }
    out.extend(events.iter().map(event_json));
    Json::obj(vec![("displayTimeUnit", "ms".into()), ("traceEvents", Json::Arr(out))])
}

/// Renders events as a Chrome trace JSON string, ready to write to disk.
pub fn chrome_trace_json(events: &[Event]) -> String {
    chrome_trace(events).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Track};

    #[test]
    fn emits_metadata_per_pid() {
        let c = Collector::new();
        c.complete(Track::runtime(0), "op", "fc0", 0.0, 10.0);
        c.complete(Track::sim(0), "op", "fc0", 0.0, 9.0);
        c.instant(Track::control(), "ckpt", "checkpoint");
        let doc = chrome_trace(&c.events());
        let evs = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // 3 pids × 2 metadata + 3 events
        assert_eq!(evs.len(), 9);
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"runtime device 0 (measured)"));
        assert!(names.contains(&"sim device 0 (predicted)"));
        assert!(names.contains(&"runtime control"));
    }

    #[test]
    fn phases_map_to_chrome_ph() {
        let c = Collector::new();
        c.complete(Track::runtime(1), "op", "relu", 2.0, 6.0);
        c.instant(Track::runtime(1), "abort", "abort observed");
        c.counter(Track::runtime(1), "pool bytes", 3.0, 512.0);
        let doc = chrome_trace(&c.events());
        let evs = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let by_ph = |ph: &str| {
            evs.iter()
                .find(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .unwrap_or_else(|| panic!("no ph {ph}"))
        };
        let x = by_ph("X");
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(4.0));
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(2.0));
        let i = by_ph("i");
        assert_eq!(i.get("s").and_then(Json::as_str), Some("t"));
        let cnt = by_ph("C");
        assert_eq!(
            cnt.get("args").and_then(|a| a.get("value")).and_then(Json::as_f64),
            Some(512.0)
        );
    }

    #[test]
    fn output_parses_back() {
        let c = Collector::new();
        for d in 0..3 {
            c.complete(Track::runtime(d), "op", &format!("op{d}"), d as f64, d as f64 + 1.0);
        }
        let text = chrome_trace_json(&c.events());
        let doc = crate::json::parse(&text).expect("self-parse");
        assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        assert!(doc.get("traceEvents").and_then(Json::as_array).unwrap().len() >= 3);
    }

    #[test]
    fn sort_interleaves_measured_and_predicted() {
        assert!(process_sort_index(PID_SEARCH) < process_sort_index(PID_RUNTIME_BASE));
        assert_eq!(process_sort_index(PID_RUNTIME_BASE) + 1, process_sort_index(PID_SIM_BASE));
        assert!(process_sort_index(PID_SIM_BASE) < process_sort_index(PID_RUNTIME_BASE + 1));
    }
}
