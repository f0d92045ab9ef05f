//! Fleet elasticity: deterministic fault-injection schedules.
//!
//! A [`FleetSpec`] describes how the fleet changes over a run's lifetime:
//! instances joining and leaving, planned drains, whole-shard and
//! whole-region outages, standby capacity and a reactive autoscaler. The
//! schedule is resolved into per-instance [`InstanceTransition`]s at
//! engine construction and injected through the run's event queue, each
//! stamped with its shard like every other event, so a fleet run is
//! exactly as deterministic as a static one — byte-identical at any
//! thread count. An empty spec (the default) leaves the engine untouched.
//!
//! The on-disk format is line-oriented (`#` comments allowed):
//!
//! ```text
//! # <time_s> <kind> <id>
//! 2.0  drain       3      # planned leave of instance 3 (drain-and-migrate)
//! 4.5  shard-down  1      # whole-shard outage (fail-stop)
//! 9.0  shard-up    1      # the shard rejoins
//! standby 6               # instance 6 starts parked for the autoscaler
//! autoscale 1.0 2.0 0.75 0.35
//! ```
//!
//! Instance ids are global (`0..num_instances`); shard ids are global
//! (`region * shards_per_region + shard`); region ids are `0..regions`.

use pascal_sim::{SimDuration, SimTime};

/// The event kinds accepted by [`FleetSpec::parse`], for error messages.
const VALID_KINDS: &str =
    "valid event kinds: join, drain, fail, shard-down, shard-up, region-down, region-up";

/// An instance's availability, as tracked by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthState {
    /// In the fleet and accepting new work.
    #[default]
    Healthy,
    /// Planned leave in progress: invisible to placement, resident work
    /// migrates out or finishes in place.
    Draining,
    /// Out of the fleet. Resident work is stranded (fail-stop).
    Down,
}

/// What a fleet event does to its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetAction {
    /// The target (re)joins the fleet as [`HealthState::Healthy`].
    Join,
    /// Planned leave: the target starts draining.
    Drain,
    /// Unplanned fail-stop: the target goes [`HealthState::Down`].
    Fail,
}

/// What a fleet event applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetTarget {
    /// One instance, by global id (`0..num_instances`).
    Instance(u32),
    /// Every instance of one shard, by global shard id.
    Shard(u32),
    /// Every instance of every shard in one region.
    Region(u32),
}

/// One scheduled change to the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetEvent {
    /// When the change happens.
    pub at: SimTime,
    /// What happens.
    pub action: FleetAction,
    /// What it happens to.
    pub target: FleetTarget,
}

/// The reactive autoscaler's policy knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoscalePolicy {
    /// How often the scaler re-evaluates predicted utilization.
    pub interval: SimDuration,
    /// Provisioning delay: a scale-up decision becomes capacity only this
    /// long after the decision (the paper's scale-up lead time axis).
    pub lead: SimDuration,
    /// Predicted-utilization threshold above which a standby instance is
    /// activated.
    pub up_utilization: f64,
    /// Predicted-utilization threshold below which a scaler-managed
    /// instance is drained back to standby.
    pub down_utilization: f64,
}

/// A full fleet schedule: timed events, standby capacity, autoscaler.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetSpec {
    /// Timed transitions, in file order (ties keep file order).
    pub events: Vec<FleetEvent>,
    /// Instances (global ids) that start parked: [`HealthState::Down`] at
    /// time zero, excluded from capacity until the autoscaler (or a timed
    /// `join`) activates them.
    pub standby: Vec<u32>,
    /// The reactive autoscaler, if enabled.
    pub autoscale: Option<AutoscalePolicy>,
}

/// One resolved per-instance change, ready to schedule on a shard queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceTransition {
    /// When it fires.
    pub at: SimTime,
    /// The owning shard (global id).
    pub shard: u32,
    /// The instance within the shard (local index).
    pub instance: u32,
    /// The state the instance moves to.
    pub to: HealthState,
}

impl FleetSpec {
    /// True when the spec changes nothing — the engine skips all fleet
    /// machinery and stays byte-identical to a static run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.standby.is_empty() && self.autoscale.is_none()
    }

    /// Parses the line-oriented fleet-event format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line; unknown-kind errors
    /// list every valid kind.
    pub fn parse(text: &str) -> Result<FleetSpec, String> {
        let mut spec = FleetSpec::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let n = i + 1;
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[0] {
                "standby" => {
                    if fields.len() != 2 {
                        return Err(format!(
                            "fleet events line {n}: standby takes one instance id"
                        ));
                    }
                    spec.standby.push(parse_id(fields[1], n, "instance")?);
                }
                "autoscale" => {
                    if fields.len() != 5 {
                        return Err(format!(
                            "fleet events line {n}: autoscale takes <interval_s> <lead_s> <up_util> <down_util>"
                        ));
                    }
                    if spec.autoscale.is_some() {
                        return Err(format!(
                            "fleet events line {n}: duplicate autoscale directive"
                        ));
                    }
                    let interval = parse_f64(fields[1], n, "interval")?;
                    let lead = parse_f64(fields[2], n, "lead")?;
                    let up = parse_f64(fields[3], n, "up threshold")?;
                    let down = parse_f64(fields[4], n, "down threshold")?;
                    // A positive interval that rounds to 0 ns would re-arm
                    // the tick at the same instant forever.
                    if interval <= 0.0 || SimDuration::from_secs_f64(interval) == SimDuration::ZERO
                    {
                        return Err(format!(
                            "fleet events line {n}: autoscale interval must be positive \
                             (at least 1 ns), got {interval}"
                        ));
                    }
                    if lead < 0.0 {
                        return Err(format!(
                            "fleet events line {n}: autoscale lead must be non-negative"
                        ));
                    }
                    if !(0.0 < down && down < up) {
                        return Err(format!(
                            "fleet events line {n}: autoscale thresholds need 0 < down < up"
                        ));
                    }
                    spec.autoscale = Some(AutoscalePolicy {
                        interval: SimDuration::from_secs_f64(interval),
                        lead: SimDuration::from_secs_f64(lead),
                        up_utilization: up,
                        down_utilization: down,
                    });
                }
                _ => {
                    if fields.len() != 3 {
                        return Err(format!(
                            "fleet events line {n}: expected '<time_s> <kind> <id>' ({VALID_KINDS})"
                        ));
                    }
                    let at = parse_f64(fields[0], n, "time")?;
                    if at < 0.0 {
                        return Err(format!("fleet events line {n}: time must be non-negative"));
                    }
                    let id = parse_id(fields[2], n, "target")?;
                    let (action, target) = match fields[1] {
                        "join" => (FleetAction::Join, FleetTarget::Instance(id)),
                        "drain" => (FleetAction::Drain, FleetTarget::Instance(id)),
                        "fail" => (FleetAction::Fail, FleetTarget::Instance(id)),
                        "shard-down" => (FleetAction::Fail, FleetTarget::Shard(id)),
                        "shard-up" => (FleetAction::Join, FleetTarget::Shard(id)),
                        "region-down" => (FleetAction::Fail, FleetTarget::Region(id)),
                        "region-up" => (FleetAction::Join, FleetTarget::Region(id)),
                        other => {
                            return Err(format!(
                                "fleet events line {n}: unknown event kind '{other}' ({VALID_KINDS})"
                            ));
                        }
                    };
                    spec.events.push(FleetEvent {
                        at: SimTime::from_secs_f64(at),
                        action,
                        target,
                    });
                }
            }
        }
        Ok(spec)
    }

    /// Checks every referenced id against the deployment's topology.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range id.
    pub fn validate(
        &self,
        regions: usize,
        shards_per_region: usize,
        num_instances: usize,
    ) -> Result<(), String> {
        let global_shards = regions * shards_per_region;
        let check_instance = |id: u32| {
            if (id as usize) < num_instances {
                Ok(())
            } else {
                Err(format!(
                    "fleet events: instance {id} does not exist (fleet has {num_instances} instances)"
                ))
            }
        };
        for ev in &self.events {
            match ev.target {
                FleetTarget::Instance(id) => check_instance(id)?,
                FleetTarget::Shard(id) => {
                    if id as usize >= global_shards {
                        return Err(format!(
                            "fleet events: shard {id} does not exist (fleet has {global_shards} shards)"
                        ));
                    }
                }
                FleetTarget::Region(id) => {
                    if id as usize >= regions {
                        return Err(format!(
                            "fleet events: region {id} does not exist (fleet has {regions} regions)"
                        ));
                    }
                }
            }
        }
        for &id in &self.standby {
            check_instance(id)?;
        }
        Ok(())
    }

    /// Resolves the timed events into per-instance transitions, in file
    /// order with group targets expanded in ascending instance order.
    /// Call [`FleetSpec::validate`] first; out-of-range ids panic here.
    #[must_use]
    pub fn transitions(
        &self,
        regions: usize,
        shards_per_region: usize,
        num_instances: usize,
    ) -> Vec<InstanceTransition> {
        let global_shards = regions * shards_per_region;
        let per_shard = num_instances / global_shards;
        let mut out = Vec::new();
        for ev in &self.events {
            let to = match ev.action {
                FleetAction::Join => HealthState::Healthy,
                FleetAction::Drain => HealthState::Draining,
                FleetAction::Fail => HealthState::Down,
            };
            let mut push = |gid: u32| {
                out.push(InstanceTransition {
                    at: ev.at,
                    shard: gid / per_shard as u32,
                    instance: gid % per_shard as u32,
                    to,
                });
            };
            match ev.target {
                FleetTarget::Instance(id) => push(id),
                FleetTarget::Shard(s) => {
                    for local in 0..per_shard as u32 {
                        push(s * per_shard as u32 + local);
                    }
                }
                FleetTarget::Region(r) => {
                    for s in 0..shards_per_region as u32 {
                        let shard = r * shards_per_region as u32 + s;
                        for local in 0..per_shard as u32 {
                            push(shard * per_shard as u32 + local);
                        }
                    }
                }
            }
        }
        out
    }
}

fn parse_f64(s: &str, line: usize, what: &str) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("fleet events line {line}: bad {what} '{s}'"))?;
    if !v.is_finite() {
        return Err(format!("fleet events line {line}: bad {what} '{s}'"));
    }
    Ok(v)
}

fn parse_id(s: &str, line: usize, what: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("fleet events line {line}: bad {what} id '{s}'"))
}

/// The built-in fleet scenarios, parametrized by the run's horizon and
/// topology at resolution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetPreset {
    /// A planned drain followed by a fail-stop outage of the largest
    /// grouping the topology has (region, else shard, else one instance),
    /// then a rejoin: drain at 25%, outage at 45%, recovery at 70% of the
    /// trace horizon.
    Outage,
    /// Half of each shard's instances start as autoscaler standby with an
    /// aggressive reactive policy — pair with a bursty arrival trace.
    FlashCrowd,
    /// The same standby split with a gentler policy sized for slow load
    /// swings — pair with a diurnal arrival trace.
    Diurnal,
}

impl FleetPreset {
    /// Every preset, in CLI listing order.
    pub const ALL: [FleetPreset; 3] = [
        FleetPreset::Outage,
        FleetPreset::FlashCrowd,
        FleetPreset::Diurnal,
    ];

    /// Stable lowercase key (CLI value and sweep-label suffix).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            FleetPreset::Outage => "outage",
            FleetPreset::FlashCrowd => "flash-crowd",
            FleetPreset::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI key.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid presets.
    pub fn parse(s: &str) -> Result<FleetPreset, String> {
        FleetPreset::ALL
            .into_iter()
            .find(|p| p.key() == s)
            .ok_or_else(|| {
                let keys: Vec<&str> = FleetPreset::ALL.iter().map(|p| p.key()).collect();
                format!("unknown fleet preset '{s}' (valid: {})", keys.join(", "))
            })
    }

    /// Resolves the preset against a concrete horizon and topology.
    #[must_use]
    pub fn spec(
        self,
        horizon_s: f64,
        regions: usize,
        shards_per_region: usize,
        num_instances: usize,
    ) -> FleetSpec {
        let global_shards = regions * shards_per_region;
        let per_shard = num_instances / global_shards;
        match self {
            FleetPreset::Outage => {
                let target = if regions > 1 {
                    FleetTarget::Region(regions as u32 - 1)
                } else if global_shards > 1 {
                    FleetTarget::Shard(global_shards as u32 - 1)
                } else {
                    FleetTarget::Instance(num_instances as u32 - 1)
                };
                let at = |f: f64| SimTime::from_secs_f64(horizon_s * f);
                FleetSpec {
                    events: vec![
                        FleetEvent {
                            at: at(0.25),
                            action: FleetAction::Drain,
                            target,
                        },
                        FleetEvent {
                            at: at(0.45),
                            action: FleetAction::Fail,
                            target,
                        },
                        FleetEvent {
                            at: at(0.70),
                            action: FleetAction::Join,
                            target,
                        },
                    ],
                    standby: Vec::new(),
                    autoscale: None,
                }
            }
            FleetPreset::FlashCrowd | FleetPreset::Diurnal => {
                // Park the upper half of each shard: the autoscaler's pool.
                let parked = per_shard / 2;
                let mut standby = Vec::new();
                for shard in 0..global_shards as u32 {
                    for local in (per_shard - parked) as u32..per_shard as u32 {
                        standby.push(shard * per_shard as u32 + local);
                    }
                }
                let (interval_frac, lead_frac, up, down) = match self {
                    // React within ~2% of the horizon; bursts are short.
                    FleetPreset::FlashCrowd => (0.02, 0.04, 0.70, 0.30),
                    // Slow swings: sample at ~5% of the horizon.
                    FleetPreset::Diurnal => (0.05, 0.08, 0.75, 0.35),
                    FleetPreset::Outage => unreachable!("handled above"),
                };
                FleetSpec {
                    events: Vec::new(),
                    standby,
                    autoscale: Some(AutoscalePolicy {
                        interval: SimDuration::from_secs_f64((horizon_s * interval_frac).max(0.1)),
                        lead: SimDuration::from_secs_f64((horizon_s * lead_frac).max(0.1)),
                        up_utilization: up,
                        down_utilization: down,
                    }),
                }
            }
        }
    }
}

impl std::fmt::Display for FleetPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_parses_and_is_empty() {
        let spec = FleetSpec::parse("# nothing here\n\n").expect("parses");
        assert!(spec.is_empty());
        assert_eq!(spec, FleetSpec::default());
    }

    #[test]
    fn full_file_round_trips_semantically() {
        let text = "\
# a drain, an outage, a recovery
2.0 drain 3
4.5 shard-down 1   # trailing comment
9.0 shard-up 1
0.0 region-down 0
standby 6
standby 7
autoscale 1.0 2.0 0.75 0.35
";
        let spec = FleetSpec::parse(text).expect("parses");
        assert_eq!(spec.events.len(), 4);
        assert_eq!(
            spec.events[0],
            FleetEvent {
                at: SimTime::from_secs_f64(2.0),
                action: FleetAction::Drain,
                target: FleetTarget::Instance(3),
            }
        );
        assert_eq!(spec.events[1].target, FleetTarget::Shard(1));
        assert_eq!(spec.events[1].action, FleetAction::Fail);
        assert_eq!(spec.events[3].target, FleetTarget::Region(0));
        assert_eq!(spec.standby, vec![6, 7]);
        let auto = spec.autoscale.expect("autoscale set");
        assert_eq!(auto.interval, SimDuration::from_secs_f64(1.0));
        assert!((auto.up_utilization - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unknown_kind_lists_valid_kinds() {
        let err = FleetSpec::parse("1.0 explode 3").expect_err("rejected");
        assert!(err.contains("line 1"), "names the line: {err}");
        for kind in [
            "join",
            "drain",
            "fail",
            "shard-down",
            "shard-up",
            "region-down",
            "region-up",
        ] {
            assert!(err.contains(kind), "error must list '{kind}': {err}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(FleetSpec::parse("1.0 drain")
            .expect_err("arity")
            .contains("line 1"));
        assert!(FleetSpec::parse("x drain 1")
            .expect_err("time")
            .contains("bad time"));
        assert!(FleetSpec::parse("-1.0 drain 1")
            .expect_err("negative")
            .contains("non-negative"));
        assert!(FleetSpec::parse("1.0 drain x")
            .expect_err("id")
            .contains("bad target id"));
        assert!(FleetSpec::parse("standby")
            .expect_err("arity")
            .contains("one instance id"));
        assert!(FleetSpec::parse("autoscale 1 1 0.2 0.5")
            .expect_err("order")
            .contains("0 < down < up"));
        assert!(FleetSpec::parse("autoscale 0 1 0.7 0.3")
            .expect_err("interval")
            .contains("interval must be positive"));
        // Positive, but rounds to 0 ns: the tick could never advance.
        assert!(FleetSpec::parse("autoscale 1e-10 2.0 0.75 0.35")
            .expect_err("sub-nanosecond interval")
            .contains("line 1: autoscale interval must be positive"));
        assert!(FleetSpec::parse("autoscale 1 1 .7 .3\nautoscale 1 1 .7 .3")
            .expect_err("dup")
            .contains("duplicate autoscale"));
    }

    #[test]
    fn validate_names_the_bad_id() {
        let spec = FleetSpec::parse("1.0 fail 9").expect("parses");
        let err = spec.validate(1, 2, 8).expect_err("bad instance");
        assert!(err.contains("instance 9"), "{err}");
        let spec = FleetSpec::parse("1.0 shard-down 4").expect("parses");
        let err = spec.validate(2, 2, 8).expect_err("bad shard");
        assert!(err.contains("shard 4"), "{err}");
        let spec = FleetSpec::parse("1.0 region-up 2").expect("parses");
        let err = spec.validate(2, 2, 8).expect_err("bad region");
        assert!(err.contains("region 2"), "{err}");
        let spec = FleetSpec::parse("standby 8").expect("parses");
        let err = spec.validate(1, 2, 8).expect_err("bad standby");
        assert!(err.contains("instance 8"), "{err}");
        let good = FleetSpec::parse("1.0 shard-down 3\nstandby 7").expect("parses");
        good.validate(2, 2, 8).expect("in range");
    }

    #[test]
    fn transitions_expand_groups_to_local_ids() {
        // 2 regions x 2 shards x 2 instances each = 8 instances.
        let spec = FleetSpec::parse("1.0 region-down 1\n2.0 join 5").expect("parses");
        let ts = spec.transitions(2, 2, 8);
        // Region 1 owns global shards 2 and 3 => instances 4..8.
        assert_eq!(ts.len(), 5);
        for (i, t) in ts[..4].iter().enumerate() {
            assert_eq!(t.to, HealthState::Down);
            assert_eq!(t.shard, 2 + (i as u32) / 2);
            assert_eq!(t.instance, (i as u32) % 2);
        }
        assert_eq!(
            ts[4],
            InstanceTransition {
                at: SimTime::from_secs_f64(2.0),
                shard: 2,
                instance: 1,
                to: HealthState::Healthy,
            }
        );
    }

    #[test]
    fn outage_preset_picks_the_largest_grouping() {
        let multi_region = FleetPreset::Outage.spec(100.0, 2, 2, 8);
        assert_eq!(multi_region.events[0].target, FleetTarget::Region(1));
        assert_eq!(multi_region.events[0].action, FleetAction::Drain);
        assert_eq!(multi_region.events[1].action, FleetAction::Fail);
        assert_eq!(multi_region.events[2].action, FleetAction::Join);
        assert!(multi_region.events[0].at < multi_region.events[1].at);
        assert!(multi_region.events[1].at < multi_region.events[2].at);

        let sharded = FleetPreset::Outage.spec(100.0, 1, 4, 8);
        assert_eq!(sharded.events[0].target, FleetTarget::Shard(3));

        let single = FleetPreset::Outage.spec(100.0, 1, 1, 4);
        assert_eq!(single.events[0].target, FleetTarget::Instance(3));
    }

    #[test]
    fn scaling_presets_park_half_of_each_shard() {
        let spec = FleetPreset::FlashCrowd.spec(50.0, 1, 2, 8);
        // Shards hold instances 0..4 and 4..8; upper half of each parked.
        assert_eq!(spec.standby, vec![2, 3, 6, 7]);
        let auto = spec.autoscale.expect("autoscale enabled");
        assert!(auto.up_utilization > auto.down_utilization);
        assert!(auto.interval > SimDuration::ZERO);
        assert!(spec.validate(1, 2, 8).is_ok());

        // One instance per shard: nothing to park, but autoscale is on.
        let tiny = FleetPreset::Diurnal.spec(50.0, 1, 2, 2);
        assert!(tiny.standby.is_empty());
        assert!(tiny.autoscale.is_some());
    }

    #[test]
    fn preset_keys_round_trip_and_errors_list_valid() {
        for p in FleetPreset::ALL {
            assert_eq!(FleetPreset::parse(p.key()), Ok(p));
        }
        let err = FleetPreset::parse("meteor").expect_err("unknown");
        assert!(err.contains("valid: outage, flash-crowd, diurnal"), "{err}");
    }
}
