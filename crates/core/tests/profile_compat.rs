//! Profiles written by older `blitzsplit calibrate` runs must keep
//! loading after the split-kernel and wave-floor knobs were retired.

use blitz_core::{CalibrationProfile, DriveOptions};

/// Verbatim the profile EXPERIMENTS.md records under "Measured
/// calibration": its `kernel` and `scalar_wave_floor` lines are now
/// unknown keys, skipped like any other, and every crossover still
/// applies.
#[test]
fn profile_with_retired_kernel_and_floor_keys_still_loads() {
    let old = "blitz-profile v1
kernel = simd
scalar_wave_floor = 6
conv_min_rels = 5
conv_min_rels.kappa0 = 5
conv_min_rels.kappa_dnl = 4
conv_min_rels.kappa_sm = 4
conv_min_rels.min(kappa_sm,kappa_dnl) = 4
";
    let p = CalibrationProfile::parse(old).unwrap();
    assert_eq!(p.conv_min_rels, Some(5));
    assert_eq!(p.conv_min_rels_for("kappa0"), Some(5));
    assert_eq!(p.conv_min_rels_for("kappa_dnl"), Some(4));
    assert_eq!(p.conv_min_rels_for("kappa_sm"), Some(4));
    assert_eq!(p.conv_min_rels_for("min(kappa_sm,kappa_dnl)"), Some(4));
    assert_eq!(p.conv_min_rels_for("third_party"), Some(5));
    assert_eq!(p.apply(DriveOptions::serial(), "kappa_sm").conv_min_rels, 4);
    assert_eq!(p.apply(DriveOptions::serial(), "kappa0").conv_min_rels, 5);
    // Re-rendering drops the retired keys and round-trips.
    let text = p.render();
    assert!(!text.contains("kernel") && !text.contains("scalar_wave_floor"), "{text}");
    assert_eq!(CalibrationProfile::parse(&text).unwrap(), p);
}
