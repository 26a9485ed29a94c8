//! Measured host calibration: turn the compiled `Auto` driver
//! crossover into a number measured on *this* machine.
//!
//! The crossover ([`crate::CONV_AUTO_MIN_RELS`]) is pure performance
//! policy — the split and conv drivers are cost-bit-identical (see
//! [`crate::conv`]), so it cannot change an optimal cost, only how fast
//! it is found — and it may differ per cost model: a κ''-free model
//! reaches the conv win earlier than one whose κ'' dominates the loop
//! body.
//!
//! The compiled default was measured once, on one container (see
//! EXPERIMENTS.md). [`calibrate`] re-measures it here and now: it times
//! the actual optimizer on synthetic cliques, finds the per-model driver
//! crossover, and returns a [`CalibrationProfile`]. The profile persists
//! as a small versioned text file (hand-rolled writer/parser in the
//! spirit of the bench crate's JSON module — no serde dependency) and
//! is consumed in three places:
//!
//! * [`DriveOptions::default`] consults [`host_profile`] — the profile
//!   named by the [`PROFILE_ENV`] environment variable — so every
//!   default-configured optimization in the process uses the measured
//!   crossover, with the compiled constant as fallback;
//! * the service loads a profile at startup (`serve --profile`) and
//!   applies the per-model crossover per request;
//! * the CLI's `blitzsplit calibrate` subcommand writes the file.
//!
//! Precedence everywhere: explicit request/env override > profile >
//! compiled constant.
//!
//! # Profile format
//!
//! Line-oriented text, one `key = value` per line, `#` comments, and a
//! mandatory `blitz-profile v1` header:
//!
//! ```text
//! blitz-profile v1
//! # written by `blitzsplit calibrate`
//! conv_min_rels = 6
//! conv_min_rels.kappa0 = 5
//! conv_min_rels.kappa_sm = 6
//! ```
//!
//! `conv_min_rels.<model>` keys carry the per-model crossover, keyed by
//! [`CostModel::name`]; the bare `conv_min_rels` is the default for
//! models without their own line. Unknown keys are skipped, so a v1
//! reader stays usable on a richer future profile — and on older ones,
//! whose retired split-kernel and wave-floor lines are ignored.
//! Malformed lines and a missing or wrong header are errors.

use crate::conv::{DriverChoice, CONV_AUTO_MIN_RELS};
use crate::cost::{CostModel, DiskNestedLoops, Kappa0, SmDnl, SortMerge};
use crate::spec::JoinSpec;
use crate::split::DriveOptions;
use crate::table::LayoutChoice;
use std::path::Path;
use std::time::{Duration, Instant};

/// Environment variable naming the host profile file consulted by
/// [`host_profile`] (and therefore by [`DriveOptions::default`]).
pub const PROFILE_ENV: &str = "BLITZ_PROFILE";

/// The header line every profile file starts with; the `v1` suffix is
/// the format version.
const HEADER: &str = "blitz-profile v1";

/// A measured performance profile for one host. Every field is
/// optional: a missing knob means "keep the compiled constant", so a
/// partial (or empty) profile degrades gracefully.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CalibrationProfile {
    /// Default `Auto` driver crossover for models without a per-model
    /// entry.
    pub conv_min_rels: Option<usize>,
    /// Per-model `Auto` crossovers, keyed by [`CostModel::name`]. Kept
    /// as a sorted list rather than a map: the profile is tiny, lookup
    /// is a linear scan, and rendering stays deterministic.
    pub per_model: Vec<(String, usize)>,
}

impl CalibrationProfile {
    /// The `Auto` crossover for `model_name`: the per-model entry if
    /// one was measured, else the profile default, else `None` (keep
    /// the compiled constant).
    pub fn conv_min_rels_for(&self, model_name: &str) -> Option<usize> {
        self.per_model
            .iter()
            .find(|(name, _)| name == model_name)
            .map(|&(_, n)| n)
            .or(self.conv_min_rels)
    }

    /// Overlay this profile's measured crossover onto `options` for a
    /// run of the named model; everything else passes through. Callers
    /// with explicit user overrides apply them *after* this (explicit >
    /// profile > compiled).
    pub fn apply(&self, options: DriveOptions, model_name: &str) -> DriveOptions {
        match self.conv_min_rels_for(model_name) {
            Some(min_rels) => options.with_conv_min_rels(min_rels),
            None => options,
        }
    }

    /// Parse a profile from its text form. Inverse of
    /// [`render`](CalibrationProfile::render).
    pub fn parse(text: &str) -> Result<CalibrationProfile, String> {
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            Some(HEADER) => {}
            Some(other) => return Err(format!("bad profile header {other:?} (want {HEADER:?})")),
            None => return Err("empty profile".to_string()),
        }
        let mut profile = CalibrationProfile::default();
        for (idx, raw) in lines.enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Model names may contain anything but '=' and newlines
            // (`min(kappa_sm,kappa_dnl)` is a real key suffix), so the
            // split is on the *first* '=' only.
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: no `=` in {line:?}", idx + 2));
            };
            let (key, value) = (key.trim(), value.trim());
            let parse_rels = |v: &str| {
                v.parse::<usize>().map_err(|_| {
                    format!("line {}: bad relation count {v:?}", idx + 2)
                })
            };
            if key == "conv_min_rels" {
                profile.conv_min_rels = Some(parse_rels(value)?);
            } else if let Some(model) = key.strip_prefix("conv_min_rels.") {
                profile.per_model.push((model.to_string(), parse_rels(value)?));
            }
            // Unknown keys: skipped, so a v1 reader tolerates fields a
            // future version may add and those a past one wrote.
        }
        profile.per_model.sort();
        Ok(profile)
    }

    /// Render the profile to its text form. Inverse of
    /// [`parse`](CalibrationProfile::parse): `parse(render(p)) == p`
    /// for any profile whose `per_model` list is sorted (which
    /// [`calibrate`] and `parse` both guarantee).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        if let Some(min_rels) = self.conv_min_rels {
            out.push_str(&format!("conv_min_rels = {min_rels}\n"));
        }
        for (model, min_rels) in &self.per_model {
            out.push_str(&format!("conv_min_rels.{model} = {min_rels}\n"));
        }
        out
    }

    /// Read and parse a profile file.
    pub fn load(path: &Path) -> Result<CalibrationProfile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        CalibrationProfile::parse(&text)
    }

    /// Render and write the profile to a file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The process-wide host profile: loaded once from the file named by
/// [`PROFILE_ENV`], `None` when the variable is unset or the file does
/// not parse (a warning lands on stderr in the latter case — a corrupt
/// profile should degrade loudly to the compiled constants, not
/// silently change performance).
pub fn host_profile() -> Option<&'static CalibrationProfile> {
    static HOST: std::sync::OnceLock<Option<CalibrationProfile>> = std::sync::OnceLock::new();
    HOST.get_or_init(|| {
        let path = std::env::var_os(PROFILE_ENV)?;
        let path = Path::new(&path);
        match CalibrationProfile::load(path) {
            Ok(profile) => Some(profile),
            Err(e) => {
                eprintln!("warning: ignoring {PROFILE_ENV}: {e}");
                None
            }
        }
    })
    .as_ref()
}

/// Knobs for [`calibrate`]: how much work the measurement pass does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CalibrateOptions {
    /// Largest relation count the driver crossover sweep times,
    /// clamped to `8..=12`: past 12, conv's halved candidate count
    /// dominates any per-row overhead on every model we ship.
    pub max_rels: usize,
    /// Timing repetitions per configuration; the minimum is kept
    /// (standard min-of-reps noise rejection for CPU-bound loops).
    pub reps: usize,
}

impl Default for CalibrateOptions {
    fn default() -> CalibrateOptions {
        CalibrateOptions { max_rels: 12, reps: 3 }
    }
}

/// A synthetic clique query of `n` relations with deterministically
/// varied cardinalities and selectivities — the densest predicate
/// topology, so every split is a join and κ'' runs at full weight.
fn clique_spec(n: usize) -> JoinSpec {
    let cards: Vec<f64> = (0..n).map(|i| 40.0 + 17.0 * ((i * i % 23) as f64)).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j, 0.002 + 0.013 * (((i + 3 * j) % 7) as f64)));
        }
    }
    JoinSpec::new(&cards, &edges).expect("calibration spec is well-formed")
}

/// Minimum wall time of `reps` serial optimizations of `spec` under
/// `options`.
fn time_drive<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    options: DriveOptions,
    reps: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let optimized = crate::join::optimize_join_with(spec, model, options);
        let elapsed = start.elapsed();
        std::hint::black_box(&optimized);
        best = best.min(elapsed);
    }
    best
}

/// Smallest `n` (within `range`) from which the conv driver is at or
/// ahead of the split driver for `model`, or `range.end() + 1` when
/// split kept winning throughout — i.e. "never, within the measured
/// range", which makes `Auto` stick to split everywhere the
/// measurement looked.
fn crossover_for<M: CostModel + Sync>(
    model: &M,
    base: DriveOptions,
    range: std::ops::RangeInclusive<usize>,
    reps: usize,
) -> usize {
    let end = *range.end();
    for n in range {
        let spec = clique_spec(n);
        let split = time_drive(&spec, model, base.with_driver(DriverChoice::Split), reps);
        let conv = time_drive(&spec, model, base.with_driver(DriverChoice::Conv), reps);
        if conv <= split {
            return n;
        }
    }
    end + 1
}

/// Run the measurement pass and return the resulting profile.
///
/// The pass is deliberately short (a few hundred milliseconds at the
/// default [`CalibrateOptions`]): it times the real optimizer — the
/// same entry point the service uses, on the hot/cold layout the
/// service defaults to — on synthetic cliques, so the numbers include
/// exactly the per-row overheads the crossover is meant to balance.
///
/// The crossover is pure scheduling; a profile can make the optimizer
/// slower on a bad day, never wrong.
pub fn calibrate(opts: &CalibrateOptions) -> CalibrationProfile {
    let reps = opts.reps;
    let base = DriveOptions::serial().with_layout(LayoutChoice::HotCold);

    // Per-model driver crossover, swept over the small sizes where the
    // split/conv balance actually tips.
    let range = || 4..=opts.max_rels.clamp(8, 12);
    let per_model: Vec<(String, usize)> = [
        (Kappa0.name(), crossover_for(&Kappa0, base, range(), reps)),
        (SortMerge.name(), crossover_for(&SortMerge, base, range(), reps)),
        (
            DiskNestedLoops::default().name(),
            crossover_for(&DiskNestedLoops::default(), base, range(), reps),
        ),
        (
            SmDnl::default().name(),
            crossover_for(&SmDnl::default(), base, range(), reps),
        ),
    ]
    .into_iter()
    .map(|(name, n)| (name.to_string(), n))
    .collect();
    // Default for unknown models: the most conservative (largest)
    // measured crossover, compiled constant as a floor so a noisy run
    // can't make third-party models eagerly conv below the shipped
    // models' worst case.
    let conv_min_rels = per_model
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(CONV_AUTO_MIN_RELS);

    let mut per_model = per_model;
    per_model.sort();
    CalibrationProfile { conv_min_rels: Some(conv_min_rels), per_model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ConvSupport;

    fn synthetic() -> CalibrationProfile {
        CalibrationProfile {
            conv_min_rels: Some(9),
            per_model: vec![
                ("kappa_sm".to_string(), 3),
                ("min(kappa_sm,kappa_dnl)".to_string(), 11),
            ],
        }
    }

    #[test]
    fn profile_round_trips_through_text() {
        let p = synthetic();
        let text = p.render();
        assert_eq!(CalibrationProfile::parse(&text).unwrap(), p);
        // An empty profile round-trips too (header only).
        let empty = CalibrationProfile::default();
        assert_eq!(CalibrationProfile::parse(&empty.render()).unwrap(), empty);
        // Comments, blank lines and unknown keys are tolerated.
        let loose = format!("{HEADER}\n\n# comment\nfuture_knob = 7\nconv_min_rels = 5\n");
        let parsed = CalibrationProfile::parse(&loose).unwrap();
        assert_eq!(parsed.conv_min_rels, Some(5));
        assert!(parsed.per_model.is_empty());
    }

    #[test]
    fn profile_rejects_malformed_input() {
        assert!(CalibrationProfile::parse("").is_err());
        assert!(CalibrationProfile::parse("blitz-profile v0\n").is_err());
        assert!(CalibrationProfile::parse(&format!("{HEADER}\nno equals here\n")).is_err());
        assert!(CalibrationProfile::parse(&format!("{HEADER}\nconv_min_rels = many\n")).is_err());
        assert!(CalibrationProfile::parse(&format!("{HEADER}\nconv_min_rels.kappa0 = -1\n")).is_err());
    }

    #[test]
    fn profile_round_trips_through_a_file() {
        let p = synthetic();
        let path = std::env::temp_dir()
            .join(format!("blitz-profile-test-{}.txt", std::process::id()));
        p.save(&path).unwrap();
        let back = CalibrationProfile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, p);
        assert!(CalibrationProfile::load(Path::new("/nonexistent/blitz")).is_err());
    }

    /// The acceptance-criterion test: a synthetic profile demonstrably
    /// overrides the compiled default in `Auto` driver resolution.
    #[test]
    fn synthetic_profile_overrides_compiled_defaults() {
        let p = synthetic();
        // Per-model crossover: explicit entry beats the default entry.
        assert_eq!(p.conv_min_rels_for("kappa_sm"), Some(3));
        assert_eq!(p.conv_min_rels_for("min(kappa_sm,kappa_dnl)"), Some(11));
        assert_eq!(p.conv_min_rels_for("kappa0"), Some(9)); // falls to default
        assert_eq!(CalibrationProfile::default().conv_min_rels_for("kappa0"), None);

        // apply(): the measured crossover replaces the compiled one.
        let compiled = DriveOptions::serial();
        assert_eq!(compiled.conv_min_rels, CONV_AUTO_MIN_RELS);
        let tuned = p.apply(compiled, "kappa_sm");
        assert_eq!(tuned.conv_min_rels, 3);
        assert_eq!(DriveOptions { conv_min_rels: compiled.conv_min_rels, ..tuned }, compiled);

        // ...and Auto resolution actually moves: with the compiled
        // crossover a 4-relation SortMerge query splits; under the
        // synthetic profile it convs.
        let auto = DriverChoice::Auto;
        assert_eq!(
            auto.resolve(ConvSupport::Canonical, 4, compiled.conv_min_rels),
            DriverChoice::Split
        );
        assert_eq!(
            auto.resolve(ConvSupport::Canonical, 4, tuned.conv_min_rels),
            DriverChoice::Conv
        );

        // An empty profile leaves the options alone.
        assert_eq!(CalibrationProfile::default().apply(compiled, "kappa0"), compiled);
    }

    /// A real (tiny) measurement pass produces a complete profile whose
    /// text form round-trips. Timing values are host-dependent, so only
    /// structure is asserted.
    #[test]
    fn calibrate_produces_a_complete_round_tripping_profile() {
        let p = calibrate(&CalibrateOptions { max_rels: 8, reps: 1 });
        assert!(p.conv_min_rels.is_some());
        let names: Vec<&str> = p.per_model.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["kappa0", "kappa_dnl", "kappa_sm", "min(kappa_sm,kappa_dnl)"]);
        assert_eq!(CalibrationProfile::parse(&p.render()).unwrap(), p);
        // The default is the most conservative per-model crossover.
        let max = p.per_model.iter().map(|&(_, n)| n).max().unwrap();
        assert_eq!(p.conv_min_rels, Some(max));
    }
}
