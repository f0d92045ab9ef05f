//! Time-series gauges: periodic per-shard and per-region state snapshots.
//!
//! The engine's state is piecewise-constant between events, so sampling at
//! fixed sim-time boundaries is exact — a row at time `t` reflects every
//! event with timestamp `<= t` and nothing later. Each tick emits one row
//! per shard plus one aggregated row per region; single-region runs still
//! tag rows with region 0 so the column schema never changes shape.

use std::io::{self, Write};

use pascal_sim::SimTime;

/// Whether a row covers one shard or aggregates a whole region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesScope {
    /// One scheduling domain.
    Shard,
    /// A region: the sum/mean over its shards.
    Region,
}

impl SeriesScope {
    /// Stable lowercase key used in the `scope` column.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SeriesScope::Shard => "shard",
            SeriesScope::Region => "region",
        }
    }
}

/// One gauge snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesRow {
    /// Sample time.
    pub t: SimTime,
    /// Shard- or region-scoped.
    pub scope: SeriesScope,
    /// Region index.
    pub region: u32,
    /// Shard (global id); `None` on region rows.
    pub shard: Option<u32>,
    /// Requests admitted but not yet scheduled onto an instance batch.
    pub queue_depth: u64,
    /// Requests alive in the scope (queued + running + preempted).
    pub active: u64,
    /// Active requests in the reasoning phase.
    pub reasoning: u64,
    /// Active requests in the answering phase.
    pub answering: u64,
    /// GPU KV bytes in use, summed over the scope's instances.
    pub kv_used_bytes: u64,
    /// GPU KV byte capacity, summed over the scope's instances.
    pub kv_capacity_bytes: u64,
    /// Admission budget headroom: limit minus current in-flight KV bytes
    /// (negative at overload). `None` with admission control disabled.
    pub admission_headroom_bytes: Option<i64>,
    /// Mean absolute error of the predictor's reasoning-length estimates
    /// over the samples observed so far. `None` without a predictor (or
    /// before its first estimate).
    pub predictor_mean_abs_error: Option<f64>,
    /// Seconds until the region's WAN port drains its queued transfers
    /// (zero when idle). `None` on shard rows and single-region runs.
    pub wan_busy_s: Option<f64>,
    /// SLO error-budget burn rate over the alert tracker's widest window
    /// (1.0 = spending the budget at exactly the sustainable pace). `None`
    /// without `--alerts`, or before the scope's first completion.
    pub slo_burn: Option<f64>,
}

/// The CSV header, in column order.
const CSV_HEADER: &str = "t_s,scope,region,shard,queue_depth,active,reasoning,answering,\
kv_used_bytes,kv_capacity_bytes,admission_headroom_bytes,predictor_mean_abs_error,wan_busy_s,\
slo_burn";

/// Shortest `f64` representation that round-trips.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Serializes rows as columnar CSV (empty cells for `None`).
#[must_use]
pub fn series_to_csv(rows: &[SeriesRow]) -> String {
    render(SeriesWriter::csv(Vec::new()), rows)
}

/// Serializes rows as a JSON array of objects (`null` for `None`), with
/// the same fields and order as the CSV columns.
#[must_use]
pub fn series_to_json(rows: &[SeriesRow]) -> String {
    render(SeriesWriter::json(Vec::new()), rows)
}

fn render(mut writer: SeriesWriter<Vec<u8>>, rows: &[SeriesRow]) -> String {
    for row in rows {
        writer.write(row);
    }
    let bytes = writer.finish().expect("writing to memory cannot fail");
    String::from_utf8(bytes).expect("rows render as UTF-8")
}

/// Writes gauge rows to `W` as they are sampled, in the CSV or JSON form
/// of [`series_to_csv`] / [`series_to_json`] — the same bytes, without
/// holding the rows: a run's memory no longer grows with its samples.
///
/// The first write error is kept and every later write skipped;
/// [`SeriesWriter::finish`] reports it.
#[derive(Debug)]
pub struct SeriesWriter<W: Write> {
    out: W,
    json: bool,
    rows: u64,
    error: Option<io::Error>,
}

impl<W: Write> SeriesWriter<W> {
    /// A CSV writer; the header goes out first.
    pub fn csv(out: W) -> Self {
        let mut writer = SeriesWriter {
            out,
            json: false,
            rows: 0,
            error: None,
        };
        writer.put(format_args!("{CSV_HEADER}\n"));
        writer
    }

    /// A JSON-array writer; the opening bracket goes out first.
    pub fn json(out: W) -> Self {
        let mut writer = SeriesWriter {
            out,
            json: true,
            rows: 0,
            error: None,
        };
        writer.put(format_args!("[\n"));
        writer
    }

    /// Rows written so far.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Appends one row.
    pub fn write(&mut self, r: &SeriesRow) {
        if self.json {
            let null = || "null".to_owned();
            let separator = if self.rows > 0 { ",\n" } else { "" };
            self.put(format_args!(
                "{separator}{{\"t_s\":{},\"scope\":\"{}\",\"region\":{},\"shard\":{},\
\"queue_depth\":{},\"active\":{},\"reasoning\":{},\"answering\":{},\"kv_used_bytes\":{},\
\"kv_capacity_bytes\":{},\"admission_headroom_bytes\":{},\"predictor_mean_abs_error\":{},\
\"wan_busy_s\":{},\"slo_burn\":{}}}",
                fmt_f64(r.t.as_secs_f64()),
                r.scope.key(),
                r.region,
                r.shard.map_or_else(null, |s| s.to_string()),
                r.queue_depth,
                r.active,
                r.reasoning,
                r.answering,
                r.kv_used_bytes,
                r.kv_capacity_bytes,
                r.admission_headroom_bytes
                    .map_or_else(null, |v| v.to_string()),
                r.predictor_mean_abs_error.map_or_else(null, fmt_f64),
                r.wan_busy_s.map_or_else(null, fmt_f64),
                r.slo_burn.map_or_else(null, fmt_f64),
            ));
        } else {
            self.put(format_args!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                fmt_f64(r.t.as_secs_f64()),
                r.scope.key(),
                r.region,
                r.shard.map(|s| s.to_string()).unwrap_or_default(),
                r.queue_depth,
                r.active,
                r.reasoning,
                r.answering,
                r.kv_used_bytes,
                r.kv_capacity_bytes,
                r.admission_headroom_bytes
                    .map(|v| v.to_string())
                    .unwrap_or_default(),
                r.predictor_mean_abs_error.map(fmt_f64).unwrap_or_default(),
                r.wan_busy_s.map(fmt_f64).unwrap_or_default(),
                r.slo_burn.map(fmt_f64).unwrap_or_default(),
            ));
        }
        self.rows += 1;
    }

    /// Closes the JSON array, flushes, and hands back the writer.
    ///
    /// # Errors
    ///
    /// The first error any write or the flush met.
    pub fn finish(mut self) -> io::Result<W> {
        if self.json {
            self.put(format_args!("\n]\n"));
        }
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn put(&mut self, text: std::fmt::Arguments<'_>) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_fmt(text) {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<SeriesRow> {
        vec![
            SeriesRow {
                t: SimTime::from_secs_f64(1.0),
                scope: SeriesScope::Shard,
                region: 0,
                shard: Some(1),
                queue_depth: 3,
                active: 8,
                reasoning: 5,
                answering: 2,
                kv_used_bytes: 1024,
                kv_capacity_bytes: 4096,
                admission_headroom_bytes: Some(-128),
                predictor_mean_abs_error: Some(12.5),
                wan_busy_s: None,
                slo_burn: Some(1.5),
            },
            SeriesRow {
                t: SimTime::from_secs_f64(1.0),
                scope: SeriesScope::Region,
                region: 0,
                shard: None,
                queue_depth: 3,
                active: 8,
                reasoning: 5,
                answering: 2,
                kv_used_bytes: 1024,
                kv_capacity_bytes: 4096,
                admission_headroom_bytes: None,
                predictor_mean_abs_error: None,
                wan_busy_s: Some(0.25),
                slo_burn: None,
            },
        ]
    }

    #[test]
    fn csv_has_header_plus_one_line_per_row() {
        let text = series_to_csv(&sample_rows());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let columns = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
        assert!(lines[1].contains("shard,0,1,3,8,5,2,1024,4096,-128,12.5,,1.5"));
        assert!(lines[2].contains("region,0,,3,8"));
    }

    #[test]
    fn json_uses_null_for_missing_gauges() {
        let text = series_to_json(&sample_rows());
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("\n]\n"));
        assert!(text.contains("\"shard\":null"));
        assert!(text.contains("\"wan_busy_s\":0.25"));
        assert!(text.contains("\"admission_headroom_bytes\":-128"));
    }

    #[test]
    fn empty_series_serialize_cleanly() {
        assert_eq!(series_to_csv(&[]).lines().count(), 1);
        assert_eq!(series_to_json(&[]), "[\n\n]\n");
    }
}
