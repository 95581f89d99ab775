//! The ESCAPE stack's benchmark.
//!
//! ```text
//! perfbench --workload write-durable --seed 1 --seconds 10 --trace 0 [--smoke]
//! perfbench server ...        (a server process; started by the driver)
//! ```
//!
//! The driver starts every cluster as separate server processes of this
//! same binary, drives them over the `escape-wire` client protocol, and
//! prints one JSON object as its last line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

mod bench;
mod clock;
mod cluster;
mod layers;
mod load;
mod server;
mod sim;
mod stats;
mod trace;

use std::sync::atomic::Ordering;

/// `--flag value` pairs.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn opt(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.opt(name).ok_or_else(|| format!("missing {name}"))
    }

    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse().map_err(|_| format!("bad {name} {raw:?}"))
    }

    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            Some(_) => self.parse(name),
            None => Ok(default),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("server") {
        server::main(&Flags(args[1..].to_vec()))
    } else {
        drive(&Flags(args))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn drive(flags: &Flags) -> Result<(), String> {
    let name = flags.get("--workload")?;
    let workload = bench::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.parse("--seed")?;
    let seconds: f64 = flags.parse("--seconds")?;
    let trace = match flags.get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let plan = bench::Plan::new(seconds, flags.has("--smoke"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = bench::work_dir(name, seed);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;

    let mut ctx = bench::Ctx::new(&exe, &work, workload, seed, plan, trace);
    let outcome = bench::run(&mut ctx);
    let _ = std::fs::remove_dir_all(&work);
    let mut report = outcome?;

    let threads = load::PEAK_THREADS.load(Ordering::Relaxed);
    let sockets = load::PEAK_SOCKETS.load(Ordering::Relaxed);
    println!("driver: peak {threads} threads, {sockets} connections, nproc {nproc}");
    if threads > nproc || sockets > nproc {
        report.correct = false;
        println!("CHECK FAILED: driver exceeded nproc threads or connections");
    }

    let metrics = if trace { &report.layers } else { &report.e2e };
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        println!("metric {:<30} {:>16} {}", m.name, m.value, m.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    Ok(())
}
