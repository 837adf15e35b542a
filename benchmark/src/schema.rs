//! The metric names and units the benchmark prints, in print order.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics: every workload reports all five in an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("comm_bytes", "B"),
    ("peak_device_bytes", "B"),
    ("predicted_step_sim_ns", "sim_ns"),
];

/// Per-layer metrics: every workload reports all of them in a traced run,
/// measured on the workload's own graph at the workload's own width.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("models.build_s", "s"),
    ("models.nodes", "count"),
    ("core.strategies_s", "s"),
    ("core.strategies_enumerated", "count"),
    ("core.coarsen_s", "s"),
    ("core.coarsen_groups", "count"),
    ("core.partition_s", "s"),
    ("core.dp_states_explored", "count"),
    ("core.dp_prune_dominated", "count"),
    ("core.partition_warm_s", "s"),
    ("core.plan_comm_bytes", "B"),
    ("core.generate_s", "s"),
    ("core.sharded_nodes", "count"),
    ("core.comm_edges", "count"),
    ("core.scatter_s", "s"),
    ("core.fingerprint_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.memory_s", "s"),
    ("sim.comm_bytes", "B"),
    ("sim.compute_only_sim_ns", "sim_ns"),
    ("graph.plan_buffers_s", "s"),
    ("serve.encode_request_s", "s"),
    ("serve.request_bytes", "B"),
    ("serve.decode_request_s", "s"),
    ("serve.encode_response_s", "s"),
    ("serve.response_bytes", "B"),
    ("serve.decode_response_s", "s"),
    ("serve.ping_s", "s"),
    ("serve.solve_s", "s"),
    ("serve.hit_residual_s", "s"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.joined", "count"),
    ("serve.rejected", "count"),
    ("e2e.op_p50_s", "s"),
    ("e2e.op_p90_s", "s"),
    ("e2e.ops_per_s", "1/s"),
    ("e2e.trace_overhead_share", "share"),
    ("e2e.unattributed_share", "share"),
    ("host.calib_s", "s"),
    ("host.calib_drift", "share"),
];

/// Rows only the step workloads print: the single-device executor, the
/// threaded runtime, and the runtime used differently (one extra run each).
/// They are in the printed ledger but not in `BENCHMARK.json`, whose list
/// every workload must fill: the other three workloads never run a step,
/// and stepping WResNet once at w=8 costs 9 s on this host.
pub const STEP_ONLY: [(&str, &str); 17] = [
    ("graph.exec_single_s", "s"),
    ("runtime.step_s", "s"),
    ("runtime.busy_s", "s"),
    ("runtime.recv_wait_s", "s"),
    ("runtime.idle_share", "share"),
    ("runtime.ops_executed", "count"),
    ("runtime.us_per_op", "us"),
    ("runtime.messages", "count"),
    ("runtime.comm_bytes", "B"),
    ("runtime.transport_copy_bytes", "B"),
    ("runtime.pool_peak_bytes", "B"),
    ("runtime.step_full_s", "s"),
    ("runtime.step_w1_s", "s"),
    ("runtime.step_ckpt_s", "s"),
    ("runtime.recover_s", "s"),
    ("durable.write_s", "s"),
    ("durable.recover_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SPECS;
    use tofu_obs::json::{parse, Json};

    fn well_formed_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_printed_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&STEP_ONLY)
            .copied()
            .chain(SPECS.iter().map(|s| (s.name, "count")))
            .collect();
        for (name, unit) in &all {
            assert!(well_formed_name(name), "bad name {name:?}");
            assert!(well_formed_unit(unit), "bad unit {unit:?} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn set_up_time_is_an_end_to_end_metric_in_seconds() {
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();
        let owned = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
            rows.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
    }
}
