//! blitzsplit service benchmark.
//!
//! ```text
//! perfbench --workload exact_cold|warm_mixed|ladder_big --seed N --seconds S --trace 0|1
//! perfbench --smoke
//! ```
//!
//! A run replays a fixed, seeded list of `OPTIMIZE` lines over one
//! closed-loop loopback connection against an in-process service built
//! from `ServiceConfig::default()` (plus a ladder without a wall-clock
//! budget). `--seconds` sets the list sizes through a fixed formula,
//! never a clock, so every count and every answer repeats for a seed.
//! Each replay runs in a fresh process; a request's latency is its
//! minimum over the workload's replays (`Kind::replays`), and `setup_s`
//! is the median set-up time over them. Every answer is checked (see
//! [`check`]) outside the timed intervals. The last stdout line is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced run (see [`trace`]) with `--trace 1`.
//!
//! `--smoke` runs every workload on tiny lists twice, traced and not,
//! and fails if a metric or unit named in `BENCHMARK.json` is missing
//! or a deterministic field differs between the two runs.

#![deny(unsafe_op_in_unsafe_fn)]

mod check;
mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use check::{judge, references};
use replay::{service_config, spawn, ReplayArgs, ReplayOut};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{generate, Kind, Size};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("success_rate", "ratio"),
    ("expected_source_rate", "ratio"),
    ("plan_cost_vs_greedy", "ratio"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics: name, unit, and the workload whose traced pass
/// supplies it (`None`: the workload the run was asked for).
const PER_LAYER: [(&str, &str, Option<Kind>); 30] = [
    ("frontend.overhead_us_p50", "us", Some(Kind::WarmMixed)),
    (
        "frontend.lines_per_batch",
        "lines/batch",
        Some(Kind::WarmMixed),
    ),
    ("server.parse_us_p50", "us", Some(Kind::WarmMixed)),
    ("server.format_us_p50", "us", Some(Kind::WarmMixed)),
    ("fingerprint.us_p50", "us", Some(Kind::WarmMixed)),
    ("cache.hit_ratio", "ratio", Some(Kind::WarmMixed)),
    ("cache.misses", "count", Some(Kind::WarmMixed)),
    ("cache.lookup_us_p50", "us", Some(Kind::WarmMixed)),
    ("service.non_dp_us_p50", "us", Some(Kind::ExactCold)),
    ("tables.reuse_ratio", "ratio", Some(Kind::ExactCold)),
    ("pool.steals", "count", Some(Kind::ExactCold)),
    ("dp.fill_us_p50", "us", Some(Kind::ExactCold)),
    ("dp.fill_us_p90", "us", Some(Kind::ExactCold)),
    ("dp.ns_per_loop_iter", "ns", Some(Kind::ExactCold)),
    ("dp.loop_iters", "count", Some(Kind::ExactCold)),
    ("dp.kappa_ind_evals", "count", Some(Kind::ExactCold)),
    ("dp.kappa_dep_evals", "count", Some(Kind::ExactCold)),
    ("dp.loops_skipped", "count", Some(Kind::ExactCold)),
    ("dp.passes", "count", Some(Kind::ExactCold)),
    ("dp.conv_share", "ratio", Some(Kind::ExactCold)),
    ("plan.extract_us_p50", "us", Some(Kind::ExactCold)),
    ("ladder.us_p50", "us", Some(Kind::LadderBig)),
    ("ladder.us_p90", "us", Some(Kind::LadderBig)),
    ("ladder.refine_steps", "count", Some(Kind::LadderBig)),
    ("ladder.dp_blocks", "count", Some(Kind::LadderBig)),
    (
        "ladder.stochastic_win_share",
        "ratio",
        Some(Kind::LadderBig),
    ),
    ("greedy.us_p50", "us", Some(Kind::LadderBig)),
    ("trace.residual_us_p50", "us", None),
    ("trace.overhead_ratio", "ratio", None),
    (
        "service.non_dp_us_p50.warm_mixed",
        "us",
        Some(Kind::WarmMixed),
    ),
];

/// Fields that must repeat exactly for a seed.
const DETERMINISTIC: [&str; 16] = [
    "success_rate",
    "expected_source_rate",
    "plan_cost_vs_greedy",
    "frontend.lines_per_batch",
    "cache.hit_ratio",
    "cache.misses",
    "tables.reuse_ratio",
    "dp.loop_iters",
    "dp.kappa_ind_evals",
    "dp.kappa_dep_evals",
    "dp.loops_skipped",
    "dp.passes",
    "dp.conv_share",
    "ladder.refine_steps",
    "ladder.dp_blocks",
    "ladder.stochastic_win_share",
];

/// Where traced runs write their span logs (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How big a run is: `None` is the smoke mode's tiny lists.
#[derive(Copy, Clone)]
struct Scale {
    seconds: Option<u64>,
}

impl Scale {
    fn size(self, kind: Kind) -> Size {
        match self.seconds {
            Some(s) => kind.size(s),
            None => kind.smoke_size(),
        }
    }

    fn replays(self, kind: Kind) -> usize {
        match self.seconds {
            Some(_) => kind.replays(),
            None => 2,
        }
    }
}

/// One run's outcome.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, &'static str, f64)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    notes: Vec<String>,
    /// Every response of every replay, `micros` fields removed.
    answers: Vec<String>,
}

impl Report {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.2)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        println!("{}", self.json());
    }
}

/// Judged replays of one workload.
struct Judged {
    attempted: usize,
    failed: usize,
    expected_source: usize,
    /// Geometric mean of cost over GOO cost, from the first replay.
    cost_vs_greedy: f64,
    answers: Vec<String>,
    problems: Vec<String>,
}

fn without_micros(line: &str) -> String {
    line.split(' ')
        .filter(|t| !t.starts_with("micros=") && !t.starts_with("ladder_micros="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Run `replays` replays of `kind` and check every answer.
fn replay_and_judge(
    kind: Kind,
    seed: u64,
    size: Size,
    replays: usize,
    traced: bool,
) -> Result<(Vec<ReplayOut>, Judged), String> {
    let lists = generate(kind, seed, size);
    let refs = references(kind, &lists, service_config().default_schedule);
    let args = ReplayArgs {
        kind,
        seed,
        size,
        cpus: kind.cpus(&sys::cpu_set()),
        traced,
    };
    let outs: Vec<ReplayOut> = (0..replays)
        .map(|_| spawn(&args))
        .collect::<Result<_, _>>()?;
    let mut j = Judged {
        attempted: 0,
        failed: 0,
        expected_source: 0,
        cost_vs_greedy: f64::NAN,
        answers: Vec::new(),
        problems: Vec::new(),
    };
    for (r, out) in outs.iter().enumerate() {
        if out.responses.len() != lists.timed.len() {
            return Err(format!(
                "{}: replay answered {} of {}",
                kind.name(),
                out.responses.len(),
                lists.timed.len()
            ));
        }
        let mut log_ratio = 0.0;
        for (i, resp) in out.responses.iter().enumerate() {
            let v = judge(kind, &lists.timed[i], &refs[i], resp);
            j.attempted += 1;
            j.failed += usize::from(!v.success);
            j.expected_source += usize::from(v.expected_source);
            log_ratio += v.ratio_vs_greedy.map_or(f64::NAN, f64::ln);
            if !v.success && j.problems.len() < 5 {
                j.problems
                    .push(format!("{} request {i}: {}", kind.name(), resp));
            }
        }
        if r == 0 {
            j.cost_vs_greedy = (log_ratio / lists.timed.len() as f64).exp();
        }
        let answers: Vec<String> = out.responses.iter().map(|l| without_micros(l)).collect();
        if r == 0 {
            j.answers = answers;
        } else if answers != j.answers {
            j.problems.push(format!(
                "{}: replay {r} answered differently from replay 0",
                kind.name()
            ));
        }
        if out.priming_failures > 0 {
            j.problems.push(format!(
                "{}: {} priming requests failed",
                kind.name(),
                out.priming_failures
            ));
        }
        if out.mismatches > 0 {
            j.problems.push(format!(
                "{}: the traced mirror reproduced {} responses differently from the wire",
                kind.name(),
                out.mismatches
            ));
        }
    }
    Ok((outs, j))
}

fn host_notes(kind: Kind, out: &ReplayOut) -> Vec<String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    vec![
        format!(
            "host: nproc={nproc} cpu_set={:?} simd_kernel={} (KernelChoice::Simd resolves to it)",
            sys::cpu_set(),
            sys::simd_kernel()
        ),
        format!("placement ({}): {}", kind.name(), out.placement),
        format!("service config ({}): {}", kind.name(), out.config),
    ]
}

/// The untimed-check, timed-replay run behind `--trace 0`.
fn measure(kind: Kind, seed: u64, scale: Scale) -> Result<Report, String> {
    let size = scale.size(kind);
    let replays = scale.replays(kind);
    let (outs, j) = replay_and_judge(kind, seed, size, replays, false)?;
    let n = size.timed;
    let lat_us: Vec<f64> = (0..n)
        .map(|i| {
            outs.iter()
                .map(|o| o.lat_ns[i])
                .fold(f64::INFINITY, f64::min)
                / 1e3
        })
        .collect();
    let setup: Vec<f64> = outs.iter().map(|o| o.setup_ns / 1e9).collect();
    let rss: Vec<f64> = outs.iter().map(|o| o.rss_kib / 1024.0).collect();
    let beyond_p90 = n - (0.9 * n as f64).ceil() as usize;
    let mut r = Report {
        attempted: j.attempted,
        failed: j.failed,
        problems: j.problems,
        ..Report::default()
    };
    r.notes.push(format!(
        "perfbench {} seed={seed}: {n} timed requests x {} replays (closed loop, one loopback connection), \
         {} priming requests in set-up",
        kind.name(),
        replays,
        size.priming
    ));
    r.notes.extend(host_notes(kind, &outs[0]));
    r.notes.push(format!(
        "latency: per-request minimum over {replays} fresh-service replays; n={n} samples, {beyond_p90} beyond p90"
    ));
    let totals: Vec<String> = outs
        .iter()
        .map(|o| format!("{:.3}", o.lat_ns.iter().sum::<f64>() / 1e9))
        .collect();
    r.notes.push(format!(
        "timed seconds per replay, in order: {}",
        totals.join(" ")
    ));
    let mut by_rels: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (q, &us) in generate(kind, seed, size).timed.iter().zip(&lat_us) {
        by_rels.entry(q.cards.len()).or_default().push(us);
    }
    let total_us: f64 = lat_us.iter().sum();
    let per_rels: Vec<String> = by_rels
        .iter()
        .map(|(rels, v)| {
            format!(
                "n={rels}: {} x p50 {:.1} us, {:.1}% of the time",
                v.len(),
                median(v),
                100.0 * v.iter().sum::<f64>() / total_us
            )
        })
        .collect();
    r.notes.push(format!(
        "per-request minima by relation count: {}",
        per_rels.join("; ")
    ));
    let values = [
        median(&setup),
        n as f64 / (total_us / 1e6),
        quantile(&lat_us, 0.5),
        quantile(&lat_us, 0.9),
        (j.attempted - j.failed) as f64 / j.attempted as f64,
        j.expected_source as f64 / j.attempted as f64,
        j.cost_vs_greedy,
        median(&rss),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        r.notes.push(format!("{name} = {v} {unit}"));
        r.metrics.push((name.to_string(), unit, v));
    }
    r.notes
        .extend(predictions(kind).iter().map(|p| format!("prediction: {p}")));
    r.answers = j.answers;
    Ok(r)
}

fn predictions(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::ExactCold => &[
            "dp.fill is nearly all of latency_*; frontend and cache changes should not move this workload",
            "tables.reuse_ratio trades against rss_peak_mib",
        ],
        Kind::WarmMixed => &[
            "the frontend is most of a hit's latency; DP changes should not move this workload",
        ],
        Kind::LadderBig => &[
            "a ladder that spends fewer steps trades latency_* against plan_cost_vs_greedy (both gated)",
        ],
    }
}

/// The traced run behind `--trace 1`: one traced replay of every
/// workload supplies the layer figures the table assigns to it, and an
/// untraced replay of `kind` is the base of `trace.overhead_ratio`.
fn traced(kind: Kind, seed: u64, scale: Scale) -> Result<Report, String> {
    let mut r = Report::default();
    let mut layers: BTreeMap<Kind, BTreeMap<String, f64>> = BTreeMap::new();
    for pass in Kind::ALL {
        let (outs, j) = replay_and_judge(pass, seed, scale.size(pass), 1, true)?;
        r.attempted += j.attempted;
        r.failed += j.failed;
        r.problems.extend(j.problems);
        r.answers.extend(j.answers);
        if pass == kind {
            r.notes.extend(host_notes(kind, &outs[0]));
        }
        let mut l = outs[0].layers.clone();
        if pass == Kind::WarmMixed {
            if let Some(&v) = l.get("service.non_dp_us_p50") {
                l.insert("service.non_dp_us_p50.warm_mixed".into(), v);
            }
        }
        layers.insert(pass, l);
    }
    let (outs, j) = replay_and_judge(kind, seed, scale.size(kind), 1, false)?;
    r.attempted += j.attempted;
    r.failed += j.failed;
    r.problems.extend(j.problems);
    let untraced_us: Vec<f64> = outs[0].lat_ns.iter().map(|ns| ns / 1e3).collect();
    let traced_rt = layers[&kind].get("trace.rt_us_p50").copied();
    layers.get_mut(&kind).expect("every pass ran").insert(
        "trace.overhead_ratio".into(),
        traced_rt.map_or(f64::NAN, |t| t / median(&untraced_us)),
    );
    r.notes.push(format!(
        "perfbench trace {} seed={seed}: layer figures from one traced replay per workload; \
         trace.* audits {}",
        kind.name(),
        kind.name()
    ));
    for (name, unit, from) in PER_LAYER {
        let pass = from.unwrap_or(kind);
        match layers[&pass].get(name) {
            Some(&v) if v.is_finite() => {
                r.notes
                    .push(format!("{name} = {v} {unit} (on {})", pass.name()));
                r.metrics.push((name.to_string(), unit, v));
            }
            _ => {
                return Err(format!(
                    "traced pass {} did not produce {name}",
                    pass.name()
                ))
            }
        }
    }
    Ok(r)
}

/// Tiny lists, everything twice: names, units and determinism.
fn smoke() -> Result<(), String> {
    let scale = Scale { seconds: None };
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let declared: String = declared.split_whitespace().collect();
    let mut failures = Vec::new();
    for kind in Kind::ALL {
        for (mode, run) in [
            (
                "timed",
                measure as fn(Kind, u64, Scale) -> Result<Report, String>,
            ),
            ("traced", traced),
        ] {
            let a = run(kind, 7, scale)?;
            let b = run(kind, 7, scale)?;
            let label = format!("{} {mode}", kind.name());
            let expected: Vec<(&str, &str)> = if mode == "timed" {
                END_TO_END.to_vec()
            } else {
                PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
            };
            for (name, unit) in expected {
                if !a.metrics.iter().any(|(n, u, _)| n == name && *u == unit) {
                    failures.push(format!("{label}: {name} [{unit}] missing from the output"));
                }
                if !declared.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")) {
                    failures.push(format!(
                        "{label}: {name} [{unit}] missing from BENCHMARK.json"
                    ));
                }
            }
            for field in DETERMINISTIC {
                if a.value(field).map(f64::to_bits) != b.value(field).map(f64::to_bits) {
                    failures.push(format!(
                        "{label}: {field} differs: {:?} vs {:?}",
                        a.value(field),
                        b.value(field)
                    ));
                }
            }
            if a.answers != b.answers || (a.attempted, a.failed) != (b.attempted, b.failed) {
                failures.push(format!(
                    "{label}: answers or counts differ between two runs"
                ));
            }
            if !a.problems.is_empty() || a.failed > 0 {
                failures.push(format!(
                    "{label}: {} failed, problems {:?}",
                    a.failed, a.problems
                ));
            }
            println!(
                "smoke {label}: {} requests, {} metrics",
                a.attempted,
                a.metrics.len()
            );
        }
    }
    if failures.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

struct Cli {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload exact_cold|warm_mixed|ladder_big is required")?;
    Ok(Cli {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("replay") => ReplayArgs::parse(&args[1..]).and_then(|a| replay::child(&a)),
        Some("--smoke") => smoke(),
        _ => parse_cli(&args).and_then(|cli| {
            let scale = Scale {
                seconds: Some(cli.seconds),
            };
            let report = if cli.trace {
                traced(cli.kind, cli.seed, scale)?
            } else {
                measure(cli.kind, cli.seed, scale)?
            };
            report.print();
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
