//! One replay: a fresh process that pins itself, starts the service
//! in-process with the benchmark's config, connects one closed-loop
//! client over loopback TCP, sends the priming list (set-up), then
//! times every request of the timed list.
//!
//! The parent runs each replay as a child process of its own binary,
//! so every replay starts cold (fresh service, cache, table pool and
//! allocator) and its peak RSS is its own. The child reports on stdout
//! in a line format only [`parse`] reads.

use crate::stats::parse_metrics;
use crate::sys;
use crate::trace::Mirror;
use crate::workload::{generate, Kind, Size};
use blitz_service::{Client, LadderSettings, OptimizerService, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A replay process is killed after this long.
const REPLAY_DEADLINE: Duration = Duration::from_secs(120);

/// `ServiceConfig::default()` with one override: a ladder with no
/// wall-clock budget, so over-limit queries reach it and its answer
/// depends on its work budgets alone, never on host speed.
pub fn service_config() -> ServiceConfig {
    let ladder = LadderSettings {
        budget: None,
        ..LadderSettings::default()
    };
    ServiceConfig {
        ladder: Some(ladder),
        ..ServiceConfig::default()
    }
}

/// What a replay process is told to do.
#[derive(Clone, Debug)]
pub struct ReplayArgs {
    pub kind: Kind,
    pub seed: u64,
    pub size: Size,
    pub cpus: Vec<usize>,
    pub traced: bool,
}

impl ReplayArgs {
    fn to_args(&self) -> Vec<String> {
        let cpus: Vec<String> = self.cpus.iter().map(usize::to_string).collect();
        vec![
            "replay".into(),
            self.kind.name().into(),
            self.seed.to_string(),
            self.size.timed.to_string(),
            self.size.priming.to_string(),
            cpus.join(","),
            u8::from(self.traced).to_string(),
        ]
    }

    /// Parse the arguments after `replay`.
    pub fn parse(args: &[String]) -> Result<ReplayArgs, String> {
        let [kind, seed, timed, priming, cpus, traced] = args else {
            return Err(format!("replay takes 6 arguments, got {}", args.len()));
        };
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("{s:?}: {e}"));
        Ok(ReplayArgs {
            kind: Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind:?}"))?,
            seed: seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?,
            size: Size {
                timed: num(timed)?,
                priming: num(priming)?,
            },
            cpus: cpus
                .split(',')
                .filter(|c| !c.is_empty())
                .map(num)
                .collect::<Result<_, _>>()?,
            traced: traced == "1",
        })
    }
}

/// A finished replay, as the parent sees it.
#[derive(Default)]
pub struct ReplayOut {
    pub setup_ns: f64,
    pub rss_kib: f64,
    pub placement: String,
    pub config: String,
    pub priming_failures: usize,
    pub lat_ns: Vec<f64>,
    pub responses: Vec<String>,
    pub layers: BTreeMap<String, f64>,
    pub mismatches: usize,
}

/// Run one replay in a child process and wait for it to end.
pub fn spawn(args: &ReplayArgs) -> Result<ReplayOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn replay: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        let _ = tx.send(read);
    });
    let received = rx.recv_timeout(REPLAY_DEADLINE);
    if received.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait for replay: {e}"))?;
    reader
        .join()
        .map_err(|_| "replay reader panicked".to_string())?;
    let text = match received {
        Ok(Ok(text)) => text,
        Ok(Err(e)) => return Err(format!("read replay output: {e}")),
        Err(_) => {
            return Err(format!(
                "replay exceeded {REPLAY_DEADLINE:?} and was killed"
            ))
        }
    };
    if !status.success() {
        return Err(format!(
            "replay {} seed {} exited with {status}",
            args.kind.name(),
            args.seed
        ));
    }
    parse(&text)
}

fn parse(text: &str) -> Result<ReplayOut, String> {
    let mut out = ReplayOut::default();
    let num = |v: &str| v.trim().parse::<f64>().map_err(|e| format!("{v:?}: {e}"));
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "setup_ns" => out.setup_ns = num(rest)?,
            "rss_kib" => out.rss_kib = num(rest)?,
            "placement" => out.placement = rest.to_string(),
            "config" => out.config = rest.to_string(),
            "priming_failures" => out.priming_failures = num(rest)? as usize,
            "mismatches" => out.mismatches = num(rest)? as usize,
            "lat_ns" => out.lat_ns.push(num(rest)?),
            "resp" => out.responses.push(rest.to_string()),
            "layer" => {
                let (k, v) = rest.split_once(' ').ok_or("bad layer line")?;
                out.layers.insert(k.to_string(), num(v)?);
            }
            _ => return Err(format!("unexpected replay output {line:?}")),
        }
    }
    if out.lat_ns.len() != out.responses.len() {
        return Err("replay output lost requests".to_string());
    }
    Ok(out)
}

/// The replay process itself.
pub fn child(args: &ReplayArgs) -> Result<(), String> {
    // Placement first: every thread started below inherits it, and
    // `ServiceConfig::default()` sizes itself from it.
    let placement = match sys::pin(&args.cpus) {
        Ok(()) => format!("pinned to cpus {:?}", args.cpus),
        Err(e) => format!("unpinned ({e})"),
    };
    let lists = generate(args.kind, args.seed, args.size);
    let io = |e: std::io::Error| e.to_string();

    let origin = Instant::now();
    let service = Arc::new(OptimizerService::new(service_config()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(io)?;
    // The serving thread has no shutdown; it ends with this process.
    let (addr, _serving) = server.spawn().map_err(io)?;
    let mut client = Client::connect(addr).map_err(io)?;
    let mut primed = Vec::with_capacity(lists.priming.len());
    for q in &lists.priming {
        primed.push(client.request(&q.line).map_err(io)?);
    }
    let setup = origin.elapsed();

    let priming_failures = primed.iter().filter(|r| !r.starts_with("OK ")).count();
    let mut mirror = if args.traced {
        let mut m = Mirror::new(service.config().clone(), origin)?;
        lists.priming.iter().for_each(|q| m.prime(q));
        Some(m)
    } else {
        None
    };
    let before = client.metrics().map_err(io)?;
    let mut lat = Vec::with_capacity(lists.timed.len());
    let mut responses = Vec::with_capacity(lists.timed.len());
    for (i, q) in lists.timed.iter().enumerate() {
        let start = Instant::now();
        let resp = client.request(&q.line);
        let end = Instant::now();
        // A transport failure is an answer too: record it and carry on
        // on a new connection, so the count never drops it.
        let resp = resp.unwrap_or_else(|e| {
            if let Ok(c) = Client::connect(addr) {
                client = c;
            }
            format!("ERR client: {e}")
        });
        if let Some(m) = mirror.as_mut() {
            m.request(i as u32, q, &resp, start, end);
        }
        lat.push(end - start);
        responses.push(resp);
    }
    let after = client.metrics().map_err(io)?;

    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    let mut emit = || -> std::io::Result<()> {
        writeln!(w, "setup_ns {}", setup.as_nanos())?;
        writeln!(w, "rss_kib {}", sys::peak_rss_kib().unwrap_or(0))?;
        writeln!(w, "placement {placement}")?;
        writeln!(w, "config {:?}", service.config())?;
        writeln!(w, "priming_failures {priming_failures}")?;
        for (l, r) in lat.iter().zip(&responses) {
            writeln!(w, "lat_ns {}", l.as_nanos())?;
            writeln!(w, "resp {r}")?;
        }
        if let Some(m) = &mirror {
            writeln!(w, "mismatches {}", m.mismatches)?;
            for (k, v) in m.layers(&parse_metrics(&before), &parse_metrics(&after)) {
                writeln!(w, "layer {k} {v}")?;
            }
            let path = crate::out_dir().join(format!(
                "trace-{}-seed{}.jsonl",
                args.kind.name(),
                args.seed
            ));
            m.write_spans(&path)?;
        }
        w.flush()
    };
    emit().map_err(io)
}
