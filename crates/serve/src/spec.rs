//! Typed experiment specifications and their validation.
//!
//! A request's `spec` object is validated field-by-field into a
//! [`JobSpec`] before anything touches the worker pool: unknown fields,
//! wrong types, out-of-range numbers, unknown benchmarks and policies
//! are all rejected up front with a [`SpecError`] naming the offending
//! field. A validated spec is the unit of everything downstream —
//! hashing ([`JobSpec::canonical_hash`]), caching, scheduling, and the
//! crash-consistency manifest.

use std::fmt;

use vrl_dram::experiment::{ExperimentConfig, PolicyKind};
use vrl_obs::json::JsonValue;
use vrl_snap::{Decoder, Encoder, SnapError, Snapshot};
use vrl_trace::WorkloadSpec;

/// Which execution front end a job drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrontEnd {
    /// Single-bank cycle-level simulator.
    Sim,
    /// FR-FCFS controller with a bounded request queue.
    FrFcfs {
        /// Request queue capacity (≥ 1).
        queue_depth: usize,
    },
    /// Multi-bank scheduler, single channel.
    Sched {
        /// Banks to schedule across (≥ 1).
        banks: u32,
    },
    /// Full-DIMM scheduler: one instance over every channel.
    Dimm {
        /// Channels (≥ 1).
        channels: u32,
        /// Ranks per channel (≥ 1).
        ranks: u32,
        /// Banks per rank (≥ 1).
        banks_per_rank: u32,
    },
    /// Fault-injected single-bank run (canonical scenario).
    Faulted {
        /// Seed for [`vrl_dram_sim::fault::FaultConfig::default_scenario`].
        fault_seed: u64,
        /// Enable the integrity guard.
        guard: bool,
    },
}

impl FrontEnd {
    /// Wire name, echoed in result frames.
    pub fn name(&self) -> &'static str {
        match self {
            FrontEnd::Sim => "sim",
            FrontEnd::FrFcfs { .. } => "frfcfs",
            FrontEnd::Sched { .. } => "sched",
            FrontEnd::Dimm { .. } => "dimm",
            FrontEnd::Faulted { .. } => "faulted",
        }
    }
}

/// One validated experiment: the full cartesian point
/// (benchmark × policy × front end × timing/geometry × seed).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Experiment configuration (rows, seed, duration, MPRSF knobs).
    pub config: ExperimentConfig,
    /// PARSEC benchmark name (validated against the known set).
    pub benchmark: String,
    /// Refresh policy.
    pub policy: PolicyKind,
    /// Execution front end.
    pub front_end: FrontEnd,
}

impl JobSpec {
    /// Canonical content hash of the spec: FNV-1a over the spec's
    /// `vrl-snap` encoding. Two specs hash equal iff they run the same
    /// experiment, so this is the result-cache key and the `spec_hash`
    /// echoed in ack and result frames.
    pub fn canonical_hash(&self) -> u64 {
        let mut enc = Encoder::new();
        self.save(&mut enc);
        vrl_snap::fnv1a64(&enc.into_bytes())
    }
}

impl Snapshot for FrontEnd {
    fn save(&self, enc: &mut Encoder) {
        match self {
            FrontEnd::Sim => enc.put_u8(0),
            FrontEnd::FrFcfs { queue_depth } => {
                enc.put_u8(1);
                enc.put_usize(*queue_depth);
            }
            FrontEnd::Sched { banks } => {
                enc.put_u8(2);
                enc.put_u32(*banks);
            }
            FrontEnd::Dimm {
                channels,
                ranks,
                banks_per_rank,
            } => {
                enc.put_u8(3);
                enc.put_u32(*channels);
                enc.put_u32(*ranks);
                enc.put_u32(*banks_per_rank);
            }
            FrontEnd::Faulted { fault_seed, guard } => {
                enc.put_u8(4);
                enc.put_u64(*fault_seed);
                enc.put_bool(*guard);
            }
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match dec.take_u8()? {
            0 => Ok(FrontEnd::Sim),
            1 => Ok(FrontEnd::FrFcfs {
                queue_depth: dec.take_usize()?,
            }),
            2 => Ok(FrontEnd::Sched {
                banks: dec.take_u32()?,
            }),
            3 => Ok(FrontEnd::Dimm {
                channels: dec.take_u32()?,
                ranks: dec.take_u32()?,
                banks_per_rank: dec.take_u32()?,
            }),
            4 => Ok(FrontEnd::Faulted {
                fault_seed: dec.take_u64()?,
                guard: dec.take_bool()?,
            }),
            tag => Err(SnapError::Malformed {
                what: format!("unknown front-end tag {tag}"),
            }),
        }
    }
}

impl Snapshot for JobSpec {
    fn save(&self, enc: &mut Encoder) {
        self.config.save(enc);
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.front_end.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(JobSpec {
            config: ExperimentConfig::load(dec)?,
            benchmark: String::load(dec)?,
            policy: PolicyKind::load(dec)?,
            front_end: FrontEnd::load(dec)?,
        })
    }
}

/// A spec validation failure: which field, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec field (or `"spec"` for structural problems).
    pub field: String,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(field: &str, message: impl Into<String>) -> SpecError {
        SpecError {
            field: field.to_owned(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec field {:?}: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Every field a spec object may carry. Anything else is rejected so a
/// typo (`"quue_depth"`) fails loudly instead of silently defaulting.
const KNOWN_FIELDS: [&str; 16] = [
    "benchmark",
    "policy",
    "front_end",
    "rows",
    "cells_per_row",
    "seed",
    "duration_ms",
    "nbits",
    "guard_band",
    "queue_depth",
    "banks",
    "channels",
    "ranks",
    "banks_per_rank",
    "fault_seed",
    "guard",
];

/// Validates a parsed JSON `spec` object into a [`JobSpec`].
///
/// Field defaults mirror [`ExperimentConfig::default`]; `front_end`
/// defaults to `"sim"`. Geometry and queue parameters are only accepted
/// for the front end that uses them.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the first invalid field.
pub fn parse_spec(value: &JsonValue) -> Result<JobSpec, SpecError> {
    let map = match value {
        JsonValue::Object(map) => map,
        _ => return Err(SpecError::new("spec", "must be a JSON object")),
    };
    for key in map.keys() {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(SpecError::new(key, "unknown spec field"));
        }
    }

    let benchmark = req_str(value, "benchmark")?;
    if WorkloadSpec::parsec(&benchmark).is_none() {
        return Err(SpecError::new(
            "benchmark",
            format!(
                "unknown benchmark {:?} (known: {})",
                benchmark,
                WorkloadSpec::BENCHMARKS.join(", ")
            ),
        ));
    }

    let policy = match req_str(value, "policy")?.as_str() {
        "auto" => PolicyKind::Auto,
        "raidr" => PolicyKind::Raidr,
        "vrl" => PolicyKind::Vrl,
        "vrl-access" | "vrl_access" => PolicyKind::VrlAccess,
        other => {
            return Err(SpecError::new(
                "policy",
                format!("unknown policy {other:?} (known: auto, raidr, vrl, vrl-access)"),
            ))
        }
    };

    // `rows`, `nbits` and `duration_ms` are range-checked once, by
    // `ExperimentConfig::validated`, which the CLI and the bench
    // binaries share.
    let defaults = ExperimentConfig::default();
    let config = ExperimentConfig {
        rows: opt_u32(value, "rows", defaults.rows)?,
        cells_per_row: opt_uint(
            value,
            "cells_per_row",
            u64::from(defaults.cells_per_row),
            1,
            1 << 16,
        )? as u32,
        seed: opt_uint(value, "seed", defaults.seed, 0, u64::MAX)?,
        duration_ms: opt_number(value, "duration_ms", defaults.duration_ms)?,
        nbits: opt_u32(value, "nbits", defaults.nbits)?,
        guard_band: opt_fraction(value, "guard_band", defaults.guard_band)?,
    }
    .validated()
    .map_err(|e| SpecError::new(e.field, e.message))?;

    let front_name = match value.get("front_end") {
        None => "sim".to_owned(),
        Some(JsonValue::String(s)) => s.clone(),
        Some(_) => return Err(SpecError::new("front_end", "must be a string")),
    };
    let front_end = match front_name.as_str() {
        "sim" => {
            forbid(
                value,
                &[
                    "queue_depth",
                    "banks",
                    "channels",
                    "ranks",
                    "banks_per_rank",
                    "fault_seed",
                    "guard",
                ],
                "sim",
            )?;
            FrontEnd::Sim
        }
        "frfcfs" => {
            forbid(
                value,
                &[
                    "banks",
                    "channels",
                    "ranks",
                    "banks_per_rank",
                    "fault_seed",
                    "guard",
                ],
                "frfcfs",
            )?;
            FrontEnd::FrFcfs {
                queue_depth: opt_uint(value, "queue_depth", 8, 1, 1 << 16)? as usize,
            }
        }
        "sched" => {
            forbid(
                value,
                &[
                    "queue_depth",
                    "channels",
                    "ranks",
                    "banks_per_rank",
                    "fault_seed",
                    "guard",
                ],
                "sched",
            )?;
            FrontEnd::Sched {
                banks: opt_uint(value, "banks", 8, 1, 1 << 10)? as u32,
            }
        }
        "dimm" => {
            forbid(
                value,
                &["queue_depth", "banks", "fault_seed", "guard"],
                "dimm",
            )?;
            FrontEnd::Dimm {
                channels: opt_uint(value, "channels", 2, 1, 64)? as u32,
                ranks: opt_uint(value, "ranks", 1, 1, 64)? as u32,
                banks_per_rank: opt_uint(value, "banks_per_rank", 4, 1, 256)? as u32,
            }
        }
        "faulted" => {
            forbid(
                value,
                &[
                    "queue_depth",
                    "banks",
                    "channels",
                    "ranks",
                    "banks_per_rank",
                ],
                "faulted",
            )?;
            FrontEnd::Faulted {
                fault_seed: opt_uint(value, "fault_seed", config.seed, 0, u64::MAX)?,
                guard: opt_bool(value, "guard", false)?,
            }
        }
        other => {
            return Err(SpecError::new(
                "front_end",
                format!("unknown front end {other:?} (known: sim, frfcfs, sched, dimm, faulted)"),
            ))
        }
    };

    Ok(JobSpec {
        config,
        benchmark,
        policy,
        front_end,
    })
}

/// Rejects fields that only make sense for a different front end.
fn forbid(value: &JsonValue, fields: &[&str], front: &str) -> Result<(), SpecError> {
    for field in fields {
        if value.get(field).is_some() {
            return Err(SpecError::new(
                field,
                format!("not accepted by the {front:?} front end"),
            ));
        }
    }
    Ok(())
}

fn req_str(value: &JsonValue, field: &str) -> Result<String, SpecError> {
    match value.get(field) {
        Some(JsonValue::String(s)) => Ok(s.clone()),
        Some(_) => Err(SpecError::new(field, "must be a string")),
        None => Err(SpecError::new(field, "required field is missing")),
    }
}

fn opt_bool(value: &JsonValue, field: &str, default: bool) -> Result<bool, SpecError> {
    match value.get(field) {
        None => Ok(default),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(SpecError::new(field, "must be a boolean")),
    }
}

/// An optional unsigned integer in `[min, max]`. JSON numbers arrive as
/// f64, so non-integral and negative values are rejected explicitly.
fn opt_uint(
    value: &JsonValue,
    field: &str,
    default: u64,
    min: u64,
    max: u64,
) -> Result<u64, SpecError> {
    let n = match value.get(field) {
        None => return Ok(default),
        Some(JsonValue::Number(n)) => *n,
        Some(_) => return Err(SpecError::new(field, "must be a number")),
    };
    if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > u64::MAX as f64 {
        return Err(SpecError::new(field, "must be a non-negative integer"));
    }
    let v = n as u64;
    if v < min || v > max {
        return Err(SpecError::new(
            field,
            format!("must be between {min} and {max}"),
        ));
    }
    Ok(v)
}

/// An optional unsigned integer whose range `ExperimentConfig::validated`
/// checks; values past `u32::MAX` saturate so that check rejects them.
fn opt_u32(value: &JsonValue, field: &str, default: u32) -> Result<u32, SpecError> {
    let v = opt_uint(value, field, u64::from(default), 0, u64::MAX)?;
    Ok(u32::try_from(v).unwrap_or(u32::MAX))
}

fn opt_number(value: &JsonValue, field: &str, default: f64) -> Result<f64, SpecError> {
    match value.get(field) {
        None => Ok(default),
        Some(JsonValue::Number(n)) => Ok(*n),
        Some(_) => Err(SpecError::new(field, "must be a number")),
    }
}

fn opt_fraction(value: &JsonValue, field: &str, default: f64) -> Result<f64, SpecError> {
    match value.get(field) {
        None => Ok(default),
        Some(JsonValue::Number(n)) if n.is_finite() && (0.0..=1.0).contains(n) => Ok(*n),
        Some(JsonValue::Number(_)) => Err(SpecError::new(field, "must be in [0, 1]")),
        Some(_) => Err(SpecError::new(field, "must be a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrl_obs::json::parse;

    fn spec_of(json: &str) -> Result<JobSpec, SpecError> {
        parse_spec(&parse(json).expect("test specs are valid JSON"))
    }

    #[test]
    fn minimal_spec_fills_paper_defaults() {
        let spec = spec_of(r#"{"benchmark":"swaptions","policy":"vrl"}"#).unwrap();
        assert_eq!(spec.config, ExperimentConfig::default());
        assert_eq!(spec.policy, PolicyKind::Vrl);
        assert_eq!(spec.front_end, FrontEnd::Sim);
    }

    #[test]
    fn every_front_end_parses_with_its_own_knobs() {
        let frfcfs = spec_of(
            r#"{"benchmark":"canneal","policy":"raidr","front_end":"frfcfs","queue_depth":4}"#,
        )
        .unwrap();
        assert_eq!(frfcfs.front_end, FrontEnd::FrFcfs { queue_depth: 4 });
        let sched =
            spec_of(r#"{"benchmark":"canneal","policy":"auto","front_end":"sched","banks":16}"#)
                .unwrap();
        assert_eq!(sched.front_end, FrontEnd::Sched { banks: 16 });
        let dimm = spec_of(
            r#"{"benchmark":"ferret","policy":"vrl-access","front_end":"dimm","channels":2,"ranks":2,"banks_per_rank":8}"#,
        )
        .unwrap();
        assert_eq!(
            dimm.front_end,
            FrontEnd::Dimm {
                channels: 2,
                ranks: 2,
                banks_per_rank: 8
            }
        );
        let faulted = spec_of(
            r#"{"benchmark":"x264","policy":"vrl","front_end":"faulted","fault_seed":7,"guard":true}"#,
        )
        .unwrap();
        assert_eq!(
            faulted.front_end,
            FrontEnd::Faulted {
                fault_seed: 7,
                guard: true
            }
        );
    }

    #[test]
    fn validation_rejects_the_sharp_edges() {
        for (json, field) in [
            (r#"{"policy":"vrl"}"#, "benchmark"),
            (r#"{"benchmark":"nope","policy":"vrl"}"#, "benchmark"),
            (r#"{"benchmark":"x264","policy":"fancy"}"#, "policy"),
            (
                r#"{"benchmark":"x264","policy":"vrl","front_end":"gpu"}"#,
                "front_end",
            ),
            (r#"{"benchmark":"x264","policy":"vrl","rows":0}"#, "rows"),
            (r#"{"benchmark":"x264","policy":"vrl","rows":2.5}"#, "rows"),
            (
                r#"{"benchmark":"x264","policy":"vrl","duration_ms":-1}"#,
                "duration_ms",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","duration_ms":1e12}"#,
                "duration_ms",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","rows":16777216}"#,
                "duration_ms",
            ),
            (r#"{"benchmark":"x264","policy":"vrl","nbits":0}"#, "nbits"),
            (r#"{"benchmark":"x264","policy":"vrl","nbits":9}"#, "nbits"),
            (
                r#"{"benchmark":"x264","policy":"vrl","nbits":4294967297}"#,
                "nbits",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","guard_band":1.5}"#,
                "guard_band",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","quue_depth":8}"#,
                "quue_depth",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","queue_depth":8}"#,
                "queue_depth",
            ),
            (
                r#"{"benchmark":"x264","policy":"vrl","front_end":"sched","banks":99999}"#,
                "banks",
            ),
        ] {
            let err = spec_of(json).expect_err(json);
            assert_eq!(err.field, field, "wrong field blamed for {json}");
        }
    }

    #[test]
    fn canonical_hash_separates_every_axis() {
        let base = spec_of(r#"{"benchmark":"x264","policy":"vrl"}"#).unwrap();
        let variants = [
            r#"{"benchmark":"ferret","policy":"vrl"}"#,
            r#"{"benchmark":"x264","policy":"raidr"}"#,
            r#"{"benchmark":"x264","policy":"vrl","seed":43}"#,
            r#"{"benchmark":"x264","policy":"vrl","front_end":"frfcfs"}"#,
            r#"{"benchmark":"x264","policy":"vrl","duration_ms":256}"#,
        ];
        for v in variants {
            assert_ne!(
                base.canonical_hash(),
                spec_of(v).unwrap().canonical_hash(),
                "{v} must hash differently"
            );
        }
        let again = spec_of(r#"{"benchmark":"x264","policy":"vrl"}"#).unwrap();
        assert_eq!(base.canonical_hash(), again.canonical_hash());
    }

    #[test]
    fn specs_round_trip_through_the_snapshot_codec() {
        let spec = spec_of(
            r#"{"benchmark":"ferret","policy":"vrl-access","front_end":"dimm","channels":2,"ranks":1,"banks_per_rank":4,"rows":512,"duration_ms":64}"#,
        )
        .unwrap();
        let mut enc = Encoder::new();
        spec.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(JobSpec::load(&mut dec).unwrap(), spec);
    }
}
