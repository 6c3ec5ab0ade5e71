//! The engine-throughput ledger, `BENCH_engine_throughput.json`: the
//! recorded numbers the `microbench` guards hold the engine to.
//!
//! One codec reads and writes the whole file. It has three sections:
//! the engine-throughput fields (with the sparse-speedup floor), and
//! one per [`Trajectory`]. Every field renders at the precision it is
//! recorded with, so a sweep that refreshes one section writes every
//! other section back byte for byte.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use heb_serve::{Json, JsonError};

/// Where one fleet-size trajectory sits in the ledger.
#[derive(Debug, Clone, Copy)]
pub struct Trajectory {
    /// Key of the point array.
    pub key: &'static str,
    /// Key of the simulated horizon every point shares.
    horizon_key: &'static str,
    /// Key of the fraction of a recorded rate a guard run must reach.
    floor_key: &'static str,
    /// Key of the wall-clock cap on the largest point, if it has one.
    cap_key: Option<&'static str>,
    /// Key of each point's throughput.
    pub rate_field: &'static str,
}

/// The megafleet scale trajectory: a steady day, leaped.
pub const SCALE: Trajectory = Trajectory {
    key: "scale",
    horizon_key: "scale_hours",
    floor_key: "scale_floor_fraction",
    cap_key: Some("scale_max_wall_secs"),
    rate_field: "server_hours_per_sec",
};

/// The dense trajectory: bursty servers on a 1 s tick, nothing leaps.
pub const DENSE: Trajectory = Trajectory {
    key: "dense",
    horizon_key: "dense_ticks",
    floor_key: "dense_floor_fraction",
    cap_key: None,
    rate_field: "server_ticks_per_sec",
};

/// Every trajectory, in ledger order.
const TRAJECTORIES: [Trajectory; 2] = [SCALE, DENSE];

/// One recorded (or freshly measured) trajectory point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Fleet size.
    pub servers: u64,
    /// Best wall-clock seconds of the whole run.
    pub wall_secs: f64,
    /// Throughput, in the unit the trajectory's `rate_field` names.
    pub rate: f64,
    /// Best set-up seconds alone, where the trajectory records it.
    pub build_secs: Option<f64>,
}

/// One recorded trajectory: the header its points share, and the
/// points.
#[derive(Debug, Clone)]
pub struct Section {
    /// Simulated horizon of every point (hours or ticks).
    pub horizon: f64,
    /// Fraction of a recorded rate a guard run must reach.
    pub floor_fraction: f64,
    /// Wall-clock cap on the largest point, in seconds.
    pub max_wall_secs: Option<f64>,
    /// The points, smallest fleet first.
    pub points: Vec<Point>,
}

/// The whole ledger.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Scenarios in the engine-throughput batch.
    pub batch_size: u64,
    /// Worker count the batch runs on.
    pub jobs: u64,
    /// Passes the recorded throughput is the best of.
    pub best_of: u64,
    /// Recorded engine throughput.
    pub scenarios_per_sec: f64,
    /// Fraction of `scenarios_per_sec` a guard run must reach.
    pub floor_fraction: f64,
    /// Least event-over-tick speedup on the sparse valley.
    pub sparse_speedup_floor: f64,
    /// Recorded trajectories, by [`Trajectory::key`].
    pub sections: BTreeMap<&'static str, Section>,
}

/// Why a ledger could not be read.
#[derive(Debug)]
pub enum LedgerError {
    /// The file could not be read.
    Read(std::io::Error),
    /// The file is not JSON.
    Json(JsonError),
    /// A field is absent or has the wrong type.
    Missing(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Read(err) => write!(f, "cannot read the ledger: {err}"),
            Self::Json(err) => write!(f, "the ledger is not valid JSON: {err}"),
            Self::Missing(field) => write!(f, "the ledger lacks a valid `{field}`"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The `key` field of `json`, read as `T`.
fn field<T>(json: &Json, key: &str, read: fn(&Json) -> Option<T>) -> Result<T, LedgerError> {
    json.get(key)
        .and_then(read)
        .ok_or_else(|| LedgerError::Missing(key.to_string()))
}

impl Ledger {
    /// Reads and parses the ledger at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, LedgerError> {
        Self::parse(&std::fs::read_to_string(path).map_err(LedgerError::Read)?)
    }

    /// Parses ledger text. A trajectory whose key is absent is not
    /// recorded; `build_secs` is optional on every point.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] for malformed JSON or a missing field.
    pub fn parse(text: &str) -> Result<Self, LedgerError> {
        let json = heb_serve::json::parse(text).map_err(LedgerError::Json)?;
        let mut sections = BTreeMap::new();
        for t in &TRAJECTORIES {
            let Some(points) = json.get(t.key) else {
                continue;
            };
            let points = points
                .as_arr()
                .ok_or_else(|| LedgerError::Missing(t.key.to_string()))?
                .iter()
                .map(|p| {
                    Ok(Point {
                        servers: field(p, "servers", Json::as_u64)?,
                        wall_secs: field(p, "wall_secs", Json::as_f64)?,
                        rate: field(p, t.rate_field, Json::as_f64)?,
                        build_secs: p.get("build_secs").and_then(Json::as_f64),
                    })
                })
                .collect::<Result<_, LedgerError>>()?;
            let section = Section {
                horizon: field(&json, t.horizon_key, Json::as_f64)?,
                floor_fraction: field(&json, t.floor_key, Json::as_f64)?,
                max_wall_secs: t
                    .cap_key
                    .map(|key| field(&json, key, Json::as_f64))
                    .transpose()?,
                points,
            };
            sections.insert(t.key, section);
        }
        Ok(Self {
            batch_size: field(&json, "batch_size", Json::as_u64)?,
            jobs: field(&json, "jobs", Json::as_u64)?,
            best_of: field(&json, "best_of", Json::as_u64)?,
            scenarios_per_sec: field(&json, "scenarios_per_sec", Json::as_f64)?,
            floor_fraction: field(&json, "floor_fraction", Json::as_f64)?,
            sparse_speedup_floor: field(&json, "sparse_speedup_floor", Json::as_f64)?,
            sections,
        })
    }

    /// Serialises the whole ledger.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"fleet/engine_throughput\",\n  \"batch_size\": {},\n  \
             \"jobs\": {},\n  \"best_of\": {},\n  \"scenarios_per_sec\": {:.2},\n  \
             \"floor_fraction\": {},\n  \"sparse_speedup_floor\": {}",
            self.batch_size,
            self.jobs,
            self.best_of,
            self.scenarios_per_sec,
            self.floor_fraction,
            self.sparse_speedup_floor
        );
        for t in &TRAJECTORIES {
            let Some(s) = self.sections.get(t.key) else {
                continue;
            };
            out.push_str(&format!(
                ",\n  \"{}\": {},\n  \"{}\": {}",
                t.horizon_key, s.horizon, t.floor_key, s.floor_fraction
            ));
            if let (Some(key), Some(cap)) = (t.cap_key, s.max_wall_secs) {
                out.push_str(&format!(",\n  \"{key}\": {cap}"));
            }
            out.push_str(&format!(",\n  \"{}\": [\n", t.key));
            for (i, p) in s.points.iter().enumerate() {
                let comma = if i + 1 < s.points.len() { "," } else { "" };
                let build = p
                    .build_secs
                    .map(|b| format!(", \"build_secs\": {b:.6}"))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "    {{\"servers\": {}, \"wall_secs\": {:.4}, \"{}\": {:.1}{build}}}{comma}\n",
                    p.servers, p.wall_secs, t.rate_field, p.rate
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_engine_throughput.json");

    /// The committed ledger cut into its three sections: throughput
    /// fields, scale trajectory, dense trajectory.
    fn sections(text: &str) -> [&str; 3] {
        let scale = text.find(",\n  \"scale_hours\"").expect("a scale section");
        let dense = text.find(",\n  \"dense_ticks\"").expect("a dense section");
        [&text[..scale], &text[scale..dense], &text[dense..]]
    }

    #[test]
    fn committed_ledger_round_trips_byte_for_byte() {
        let ledger = Ledger::parse(COMMITTED).expect("the committed ledger parses");
        assert!(ledger.sections.contains_key(SCALE.key) && ledger.sections.contains_key(DENSE.key));
        assert_eq!(ledger.render(), COMMITTED);
    }

    #[test]
    fn refreshing_one_section_keeps_the_others_byte_for_byte() {
        let committed = Ledger::parse(COMMITTED).unwrap();
        let before = sections(COMMITTED);
        let point = Point {
            servers: 500,
            wall_secs: 1.5,
            rate: 123.0,
            build_secs: None,
        };
        let refreshed = |refresh: &dyn Fn(&mut Ledger)| {
            let mut ledger = committed.clone();
            refresh(&mut ledger);
            ledger.render()
        };
        let throughput = refreshed(&|l| {
            l.scenarios_per_sec = 1.0;
            l.batch_size = 8;
        });
        let scale = refreshed(&|l| {
            let mut section = l.sections[SCALE.key].clone();
            section.points = vec![point];
            l.sections.insert(SCALE.key, section);
        });
        let dense = refreshed(&|l| {
            let mut section = l.sections[DENSE.key].clone();
            section.points.push(point);
            l.sections.insert(DENSE.key, section);
        });
        for (touched, text) in [throughput, scale, dense].iter().enumerate() {
            let after = sections(text);
            for i in 0..3 {
                assert_eq!(after[i] == before[i], i != touched, "section {i}");
            }
            assert_eq!(Ledger::parse(text).unwrap().render(), *text);
        }
    }

    #[test]
    fn a_missing_trajectory_is_not_recorded_and_a_missing_field_is_named() {
        let [throughput, _, dense] = sections(COMMITTED);
        let ledger = Ledger::parse(&format!("{throughput}{dense}")).unwrap();
        assert!(
            !ledger.sections.contains_key(SCALE.key) && ledger.sections.contains_key(DENSE.key)
        );
        let err = Ledger::parse(&COMMITTED.replace("\"floor_fraction\"", "\"x\"")).unwrap_err();
        assert!(matches!(err, LedgerError::Missing(ref f) if f == "floor_fraction"));
        let err = Ledger::parse(&COMMITTED.replace("server_ticks_per_sec", "x")).unwrap_err();
        assert!(matches!(err, LedgerError::Missing(ref f) if f == "server_ticks_per_sec"));
        assert!(matches!(Ledger::parse("{"), Err(LedgerError::Json(_))));
    }
}
