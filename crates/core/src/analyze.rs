//! Offline trace analysis: JSONL loading and latency-anatomy rendering.
//!
//! The inverse of `pascal_telemetry::events_to_jsonl` plus the renderers
//! behind `pascal-cli analyze`: a serialized trace is parsed back into
//! typed [`TraceEvent`]s (with the same in-tree recursive-descent JSON
//! parser the sweep reports use), replayed through
//! [`pascal_telemetry::reconstruct`], and rendered as machine-readable
//! JSON/CSV or a human waterfall. Everything here is a pure function of
//! the trace text — deterministic output for a deterministic trace, no
//! engine state, no filesystem.

use std::collections::HashMap;

use pascal_sim::SimTime;
use pascal_telemetry::anatomy::{
    aggregate, worst_requests, AnatomyOutcome, AnatomyReport, Blame, RequestAnatomy,
    BLAME_COMPONENT_NAMES,
};
use pascal_telemetry::{EscapeTier, TraceEvent, TraceEventKind};

use crate::sweep::{json_f64, JsonValue};

/// Schema version of the `analyze` JSON output.
pub const ANATOMY_SCHEMA_VERSION: u64 = 1;

fn tier_from_key(key: &str, line: usize) -> Result<EscapeTier, String> {
    match key {
        "intra" => Ok(EscapeTier::Intra),
        "cross_shard" => Ok(EscapeTier::CrossShard),
        "cross_region" => Ok(EscapeTier::CrossRegion),
        other => Err(format!(
            "trace line {line}: unknown migration tier '{other}'"
        )),
    }
}

fn field_u64(obj: &JsonValue, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("trace line {line}: missing integer field '{key}'"))
}

fn field_u32(obj: &JsonValue, key: &str, line: usize) -> Result<u32, String> {
    u32::try_from(field_u64(obj, key, line)?)
        .map_err(|_| format!("trace line {line}: field '{key}' out of u32 range"))
}

fn field_str<'a>(obj: &'a JsonValue, key: &str, line: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("trace line {line}: missing string field '{key}'"))
}

fn field_bool(obj: &JsonValue, key: &str, line: usize) -> Result<bool, String> {
    match obj.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("trace line {line}: missing bool field '{key}'")),
    }
}

fn field_tier(obj: &JsonValue, line: usize) -> Result<EscapeTier, String> {
    tier_from_key(field_str(obj, "tier", line)?, line)
}

/// Parses a JSONL trace (the `events_to_jsonl` format) back into typed
/// events. Blank lines are skipped, so concatenated captures load cleanly.
///
/// # Errors
///
/// Returns a message naming the first malformed line, including a line
/// that puts a request earlier than one of its previous events.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    // Each open request's latest event time. An arrival opens a request
    // afresh and its last event closes it, as in `reconstruct`, so
    // captures concatenated one after another still load.
    let mut latest: HashMap<u64, SimTime> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj = JsonValue::parse(raw).map_err(|e| format!("trace line {line}: {e}"))?;
        let kind = match field_str(&obj, "event", line)? {
            "arrival" => TraceEventKind::Arrival,
            "admission_rejected" => TraceEventKind::AdmissionRejected {
                projected_kv_bytes: field_u64(&obj, "projected_kv_bytes", line)?,
                budget_bytes: field_u64(&obj, "budget_bytes", line)?,
            },
            "admission_spilled" => TraceEventKind::AdmissionSpilled {
                to_region: field_u32(&obj, "to_region", line)?,
            },
            "speculative_demotion" => TraceEventKind::SpeculativeDemotion,
            "demoted" => TraceEventKind::Demoted,
            "prefill_start" => TraceEventKind::PrefillStart {
                queued_ns: field_u64(&obj, "queued_ns", line)?,
            },
            "phase_transition" => TraceEventKind::PhaseTransition,
            "first_answer_token" => TraceEventKind::FirstAnswerToken,
            "preempted" => TraceEventKind::Preempted,
            "offload_done" => TraceEventKind::OffloadDone,
            "reload_done" => TraceEventKind::ReloadDone,
            "migration_considered" => TraceEventKind::MigrationConsidered {
                tier: field_tier(&obj, line)?,
            },
            "migration_vetoed" => TraceEventKind::MigrationVetoed {
                tier: field_tier(&obj, line)?,
            },
            "migration_aborted" => TraceEventKind::MigrationAborted {
                tier: field_tier(&obj, line)?,
            },
            "migration_launched" => TraceEventKind::MigrationLaunched {
                tier: field_tier(&obj, line)?,
                to_shard: field_u32(&obj, "to_shard", line)?,
                to_instance: field_u32(&obj, "to_instance", line)?,
                bytes: field_u64(&obj, "bytes", line)?,
            },
            "migration_landed" => TraceEventKind::MigrationLanded {
                in_cpu: field_bool(&obj, "in_cpu", line)?,
            },
            "escape_fallback" => TraceEventKind::EscapeFallback {
                after_veto: field_bool(&obj, "after_veto", line)?,
            },
            "completed" => TraceEventKind::Completed {
                tokens: field_u64(&obj, "tokens", line)?,
            },
            "instance_down" => TraceEventKind::InstanceDown,
            "instance_draining" => TraceEventKind::InstanceDraining,
            "instance_up" => TraceEventKind::InstanceUp,
            "drain_complete" => TraceEventKind::DrainComplete,
            "request_stranded" => TraceEventKind::RequestStranded,
            "request_rebalanced" => TraceEventKind::RequestRebalanced {
                to_instance: field_u32(&obj, "to_instance", line)?,
            },
            "autoscale_up" => TraceEventKind::AutoscaleUp,
            "autoscale_down" => TraceEventKind::AutoscaleDown,
            "slo_alert_fired" => TraceEventKind::SloAlertFired {
                rule: field_u32(&obj, "rule", line)?,
                burn_milli: field_u64(&obj, "burn_milli", line)?,
            },
            "slo_alert_resolved" => TraceEventKind::SloAlertResolved {
                rule: field_u32(&obj, "rule", line)?,
            },
            other => return Err(format!("trace line {line}: unknown event '{other}'")),
        };
        let event = TraceEvent {
            at: SimTime::from_nanos(field_u64(&obj, "t_ns", line)?),
            region: field_u32(&obj, "region", line)?,
            shard: field_u32(&obj, "shard", line)?,
            instance: match obj.get("instance") {
                Some(v) => Some(
                    u32::try_from(
                        v.as_u64()
                            .ok_or_else(|| format!("trace line {line}: bad 'instance' field"))?,
                    )
                    .map_err(|_| format!("trace line {line}: 'instance' out of u32 range"))?,
                ),
                None => None,
            },
            request: match obj.get("request") {
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| format!("trace line {line}: bad 'request' field"))?,
                ),
                None => None,
            },
            kind,
        };
        // `reconstruct` replays a request's segments in time order.
        if let Some(request) = event.request {
            if matches!(event.kind, TraceEventKind::Arrival) {
                latest.insert(request, event.at);
            } else if let Some(last) = latest.get_mut(&request) {
                if event.at < *last {
                    return Err(format!(
                        "trace line {line}: request {request} at t_ns {} is earlier \
                         than its event at t_ns {}",
                        event.at.as_nanos(),
                        last.as_nanos()
                    ));
                }
                *last = event.at;
            }
            if matches!(
                event.kind,
                TraceEventKind::Completed { .. }
                    | TraceEventKind::RequestStranded
                    | TraceEventKind::AdmissionRejected { .. }
            ) {
                latest.remove(&request);
            }
        }
        events.push(event);
    }
    Ok(events)
}

fn outcome_key(outcome: AnatomyOutcome) -> &'static str {
    match outcome {
        AnatomyOutcome::Completed => "completed",
        AnatomyOutcome::Stranded => "stranded",
    }
}

fn blame_json(blame: &Blame) -> String {
    let parts: Vec<String> = BLAME_COMPONENT_NAMES
        .iter()
        .zip(blame.as_array())
        .map(|(name, ns)| format!("\"{name}_ns\": {ns}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// Renders the full anatomy as canonical JSON (stable key order, exact
/// integer nanoseconds, shortest-round-trip floats): a run summary, the
/// aggregate blame profile, and one entry per terminated request whose
/// blame components sum exactly to the measured latencies.
#[must_use]
pub fn anatomy_to_json(report: &AnatomyReport) -> String {
    let profile = aggregate(&report.requests);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {ANATOMY_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"requests\": {},\n", report.requests.len()));
    out.push_str(&format!("  \"rejected\": {},\n", report.rejected));
    out.push_str(&format!("  \"unterminated\": {},\n", report.unterminated));
    out.push_str("  \"profile\": {\n");
    out.push_str(&format!(
        "    \"mean_e2e_s\": {},\n",
        json_f64(profile.mean_e2e_s)
    ));
    out.push_str(&format!(
        "    \"p99_e2e_s\": {},\n",
        json_f64(profile.p99_e2e_s)
    ));
    out.push_str("    \"components\": [\n");
    for (i, (name, comp)) in BLAME_COMPONENT_NAMES
        .iter()
        .zip(profile.components.iter())
        .enumerate()
    {
        out.push_str(&format!(
            "      {{\"name\": \"{name}\", \"mean_share\": {}, \"p99_share\": {}, \"total_ns\": {}}}{}\n",
            json_f64(comp.mean_share),
            json_f64(comp.p99_share),
            comp.total_ns,
            if i + 1 < BLAME_COMPONENT_NAMES.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"per_request\": [\n");
    for (i, r) in report.requests.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"request\": {}, \"region\": {}, \"shard\": {}, \"outcome\": \"{}\", \
\"spilled\": {}, \"arrival_ns\": {}, \"first_answer_ns\": {}, \"end_ns\": {}, \
\"e2e_ns\": {}, \"ttft_ns\": {}, \"e2e_blame\": {}, \"ttft_blame\": {}, \
\"preemptions\": {}, \"migrations\": {}, \"demotions\": {}, \"vetoes\": {}, \
\"fallbacks\": {}, \"rebalances\": {}}}{}\n",
            r.request,
            r.region,
            r.shard,
            outcome_key(r.outcome),
            r.spilled,
            r.arrival.as_nanos(),
            opt_u64(r.first_answer.map(SimTime::as_nanos)),
            r.end.as_nanos(),
            r.e2e_ns(),
            opt_u64(r.ttft_ns()),
            blame_json(&r.e2e),
            r.ttft
                .as_ref()
                .map_or_else(|| "null".to_owned(), blame_json),
            r.preemptions,
            r.migrations,
            r.demotions,
            r.vetoes,
            r.fallbacks,
            r.rebalances,
            if i + 1 < report.requests.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders one CSV row per terminated request: identity, outcome, the
/// measured latencies and the seven E2E blame components (which sum to
/// `e2e_ns` exactly).
#[must_use]
pub fn anatomy_to_csv(report: &AnatomyReport) -> String {
    let mut out = String::from(
        "request,region,shard,outcome,spilled,arrival_ns,first_answer_ns,end_ns,e2e_ns,ttft_ns,\
queue_ns,service_ns,offload_ns,parked_ns,migration_intra_ns,migration_cross_shard_ns,\
migration_cross_region_ns,preemptions,migrations,demotions,vetoes,fallbacks,rebalances\n",
    );
    for r in &report.requests {
        let blame = r.e2e.as_array();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.request,
            r.region,
            r.shard,
            outcome_key(r.outcome),
            r.spilled,
            r.arrival.as_nanos(),
            r.first_answer
                .map(|t| t.as_nanos().to_string())
                .unwrap_or_default(),
            r.end.as_nanos(),
            r.e2e_ns(),
            r.ttft_ns().map(|v| v.to_string()).unwrap_or_default(),
            blame[0],
            blame[1],
            blame[2],
            blame[3],
            blame[4],
            blame[5],
            blame[6],
            r.preemptions,
            r.migrations,
            r.demotions,
            r.vetoes,
            r.fallbacks,
            r.rebalances,
        ));
    }
    out
}

/// One proportional bar of `share` (0..=1) over a fixed 24-cell width.
fn bar(share: f64) -> String {
    let cells = (share * 24.0).round() as usize;
    "#".repeat(cells.min(24))
}

/// Renders a human-readable waterfall: the aggregate blame table plus the
/// `top_k` worst requests by E2E latency, each with its per-component
/// breakdown drawn to scale.
#[must_use]
pub fn anatomy_waterfall(report: &AnatomyReport, top_k: usize) -> String {
    let profile = aggregate(&report.requests);
    let mut out = format!(
        "latency anatomy: {} requests ({} rejected, {} unterminated)\n",
        report.requests.len(),
        report.rejected,
        report.unterminated
    );
    out.push_str(&format!(
        "mean e2e {:.6}s, p99 e2e {:.6}s\n\n",
        profile.mean_e2e_s, profile.p99_e2e_s
    ));
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>12}\n",
        "component", "mean%", "p99%", "total_s"
    ));
    for (name, comp) in BLAME_COMPONENT_NAMES.iter().zip(profile.components.iter()) {
        out.push_str(&format!(
            "{:<24} {:>7.2}% {:>7.2}% {:>12.6}\n",
            name,
            comp.mean_share * 100.0,
            comp.p99_share * 100.0,
            comp.total_ns as f64 / 1e9
        ));
    }
    let worst = worst_requests(&report.requests, top_k);
    if !worst.is_empty() {
        out.push_str(&format!("\nworst {} requests by e2e:\n", worst.len()));
    }
    for r in worst {
        out.push_str(&render_waterfall_entry(r));
    }
    out
}

fn render_waterfall_entry(r: &RequestAnatomy) -> String {
    let total = r.e2e_ns().max(1);
    let ttft = r
        .ttft_ns()
        .map_or_else(|| "-".to_owned(), |v| format!("{:.6}s", v as f64 / 1e9));
    let mut out = format!(
        "\n#{} [{}] region {} shard {}  e2e {:.6}s  ttft {}  \
(preempt {}, migrate {}, rebalance {})\n",
        r.request,
        outcome_key(r.outcome),
        r.region,
        r.shard,
        r.e2e_ns() as f64 / 1e9,
        ttft,
        r.preemptions,
        r.migrations,
        r.rebalances,
    );
    for (name, ns) in BLAME_COMPONENT_NAMES.iter().zip(r.e2e.as_array()) {
        if ns == 0 {
            continue;
        }
        let share = ns as f64 / total as f64;
        out.push_str(&format!(
            "  {:<24} {:>12.6}s {:>7.2}% {}\n",
            name,
            ns as f64 / 1e9,
            share * 100.0,
            bar(share)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_telemetry::{events_to_jsonl, reconstruct};

    fn sample_events() -> Vec<TraceEvent> {
        let ev = |t_ns, request, kind| TraceEvent {
            at: SimTime::from_nanos(t_ns),
            region: 0,
            shard: 1,
            instance: Some(2),
            request: Some(request),
            kind,
        };
        vec![
            ev(100, 7, TraceEventKind::Arrival),
            ev(400, 7, TraceEventKind::PrefillStart { queued_ns: 300 }),
            ev(500, 7, TraceEventKind::Preempted),
            ev(550, 7, TraceEventKind::OffloadDone),
            ev(
                600,
                7,
                TraceEventKind::MigrationLaunched {
                    tier: EscapeTier::CrossRegion,
                    to_shard: 2,
                    to_instance: 9,
                    bytes: 4096,
                },
            ),
            ev(900, 7, TraceEventKind::MigrationLanded { in_cpu: false }),
            ev(950, 7, TraceEventKind::FirstAnswerToken),
            ev(1_000, 7, TraceEventKind::Completed { tokens: 3 }),
        ]
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        let back = parse_trace_jsonl(&text).expect("parses");
        assert_eq!(back, events);
        // A second capture of the same request ids starts earlier than the
        // first one ended: each arrival opens its request afresh.
        let twice = parse_trace_jsonl(&text.repeat(2)).expect("concatenated captures parse");
        assert_eq!(twice.len(), 2 * events.len());
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_trace_jsonl("{\"t_ns\":1}\nnot json\n").expect_err("bad line");
        assert!(err.contains("line 1"), "{err}");
        let err = parse_trace_jsonl("{\"t_ns\":1,\"event\":\"warp\",\"region\":0,\"shard\":0}\n")
            .expect_err("unknown event");
        assert!(err.contains("unknown event 'warp'"), "{err}");
        let err = parse_trace_jsonl(
            "{\"t_ns\":1,\"event\":\"migration_vetoed\",\"region\":0,\"shard\":0,\
\"request\":1,\"tier\":\"warp\"}\n",
        )
        .expect_err("unknown tier");
        assert!(err.contains("unknown migration tier 'warp'"), "{err}");
        // A request going back in time would underflow its open segment.
        let mut events = sample_events();
        events.swap(1, 2);
        let err = parse_trace_jsonl(&events_to_jsonl(&events)).expect_err("time travel");
        assert!(
            err.contains("trace line 3: request 7 at t_ns 400 is earlier"),
            "{err}"
        );
    }

    #[test]
    fn json_output_conserves_latency_and_reparses() {
        let report = reconstruct(&sample_events());
        let text = anatomy_to_json(&report);
        let doc = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(1));
        let per_request = doc.get("per_request").unwrap().as_array().unwrap();
        assert_eq!(per_request.len(), 1);
        let r = &per_request[0];
        let e2e_ns = r.get("e2e_ns").unwrap().as_u64().unwrap();
        let blame = r.get("e2e_blame").unwrap();
        let sum: u64 = BLAME_COMPONENT_NAMES
            .iter()
            .map(|n| blame.get(&format!("{n}_ns")).unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(sum, e2e_ns, "blame components sum to measured e2e");
        let ttft_ns = r.get("ttft_ns").unwrap().as_u64().unwrap();
        let ttft_blame = r.get("ttft_blame").unwrap();
        let ttft_sum: u64 = BLAME_COMPONENT_NAMES
            .iter()
            .map(|n| {
                ttft_blame
                    .get(&format!("{n}_ns"))
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        assert_eq!(ttft_sum, ttft_ns, "ttft blame sums to measured ttft");
    }

    #[test]
    fn csv_has_one_row_per_request_and_stable_width() {
        let report = reconstruct(&sample_events());
        let text = anatomy_to_csv(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let columns = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), columns);
        assert!(lines[1].starts_with("7,0,1,completed,false,100,"));
    }

    #[test]
    fn waterfall_names_the_worst_request() {
        let report = reconstruct(&sample_events());
        let text = anatomy_waterfall(&report, 5);
        assert!(text.contains("latency anatomy: 1 requests"));
        assert!(text.contains("#7 [completed]"));
        // Every component appears once in the aggregate table; only the
        // non-zero ones appear again in the per-request breakdown.
        assert_eq!(text.matches("migration_cross_region").count(), 2);
        assert_eq!(
            text.matches("migration_intra").count(),
            1,
            "zero segments elided from the waterfall entry"
        );
    }
}
