//! One benchmark run: every phase, the correctness checks, and the
//! metrics. Every workload reports every end-to-end metric of
//! `BENCHMARK.json`, so each run goes through all of these, with the
//! workload's storage mode and operation mix:
//!
//! 1. **Simulated election** first, while no server runs: the paper's
//!    Fig. 11 setup (see [`crate::sim`]).
//! 2. **Clusters.** [`SETUP_CLUSTERS`] times: start three server processes
//!    and wait for a leader and one acknowledged write (one `setup_s`
//!    sample). The last cluster is the main cluster.
//! 3. **Fixed rate.** [`ROUNDS`] rounds of one segment of the workload's
//!    mix on every cluster in turn, so that a slow stretch of the host or
//!    one slow cluster sets only some of the segments.
//! 4. Each but the main cluster gets a SIGKILL of its leader under
//!    low-rate writes, with a request in flight (one `outage_ms` sample),
//!    an audit, and is torn down.
//! 5. **Knee search** on the main cluster, for context: the highest rate
//!    at which p90 stays under [`P90_LIMIT_MS`] with no failures and no
//!    growing backlog, in at most a few short probes.
//! 6. **Failover** of the main cluster: with a restart of the killed
//!    server from its data directory and catch-up, twice (WAL workloads),
//!    or once without (memory-only).
//! 7. **Audit**: read back every key written, paced at the audit rate.
//!    Every value must be the last acknowledged `Put` to its key or a
//!    later one whose outcome is unknown.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use escape_client::Zipfian;
use escape_core::rand::{Rng64, SplitMix64};
use escape_shard::{Router, ShardMap};

use crate::cluster::{Cluster, Status};
use crate::layers;
use crate::load::{
    run_phase, Conn, Kill, Kind, Op, Outcome, PhaseResult, Schedule, Source, KEYS, THETA,
};
use crate::stats::{describe, median, quantile};
use crate::trace::Tracer;
use crate::{clock, sim};

/// Server processes per cluster.
pub const SERVERS: usize = 3;

/// A workload: a storage mode and an operation mix at a fixed rate.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// WAL on (fsync) when true; memory-only otherwise.
    pub durable: bool,
    pub read_frac: f64,
    /// The fixed offered rate, well under the knee (see the README for why
    /// not half of it).
    pub fixed_rate: f64,
    /// Where the knee search starts: the knee measured when the benchmark
    /// was defined.
    pub knee_hint: f64,
}

/// The knee search's p90 limit. It sits above the flat part of the
/// latency curve, where run-to-run noise would move the crossing by a
/// wide margin, so the knee lands where latency climbs steeply.
pub const P90_LIMIT_MS: f64 = 5.0;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "write-durable",
        durable: true,
        read_frac: 0.0,
        fixed_rate: 1500.0,
        knee_hint: 9000.0,
    },
    Workload {
        name: "read-mostly",
        durable: false,
        read_frac: 0.95,
        fixed_rate: 20_000.0,
        knee_hint: 160_000.0,
    },
];

/// Setup samples per run; all but the last cluster also give one
/// failover sample.
pub const SETUP_CLUSTERS: usize = 5;
/// Fixed-rate segments per cluster, run round-robin over the clusters.
pub const ROUNDS: usize = 2;
/// Leader kills (each followed by a restart) on the main cluster of a WAL
/// workload.
pub const RESTART_KILLS: usize = 2;
/// Offered rate of the failover load (100% `Put`), far under the knee.
pub const FAILOVER_RATE: f64 = 500.0;
/// Offered rate of the audit's reads.
pub const AUDIT_RATE: f64 = 20_000.0;
/// Simulated elections per run.
pub const SIM_TRIALS: usize = 1600;
/// The schedule slipped when the sender ran later than this for a tenth
/// of the operations (p90 lateness): a fixed-rate phase is then invalid,
/// and a knee-search probe fails.
pub const LATE_LIMIT_MS: f64 = 1.0;
/// Knee-search resolution: stop when the bracket is narrower than this.
pub const KNEE_STEP: f64 = 1.03;
/// Rates the knee search tries per run (each probed at most twice). The
/// knee is context, not gated, so the run's time goes to the fixed-rate
/// segments instead.
pub const KNEE_RATES: usize = 5;
/// Knee-search step before the first change of verdict.
pub const KNEE_CLIMB: f64 = 1.12;

/// Phase lengths, from `--seconds` (or tiny in smoke mode).
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub fixed_s: f64,
    pub probe_s: f64,
    pub knee_rates: usize,
    pub setup_clusters: usize,
    pub rounds: usize,
    pub restart_kills: usize,
    pub sim_trials: usize,
    pub layer_reps: u64,
}

impl Plan {
    pub fn new(seconds: f64, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                fixed_s: 0.4,
                probe_s: 0.2,
                knee_rates: 2,
                setup_clusters: 2,
                rounds: 1,
                restart_kills: 1,
                sim_trials: 3,
                layer_reps: 50,
            };
        }
        Plan {
            fixed_s: 0.7 * seconds,
            probe_s: 0.03 * seconds,
            knee_rates: KNEE_RATES,
            setup_clusters: SETUP_CLUSTERS,
            rounds: ROUNDS,
            restart_kills: RESTART_KILLS,
            sim_trials: SIM_TRIALS,
            layer_reps: 2000,
        }
    }
}

/// A metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub problems: Vec<String>,
    /// Every operation and simulated trial of the run.
    pub attempted: u64,
    /// Those that failed, less the requests lost at a deliberate kill.
    pub failed: u64,
    /// Server operations outside the knee search, and those of them that
    /// failed, kill losses included: the base of `error_pct`.
    pub ops: u64,
    pub ops_failed: u64,
    /// Requests in flight on the leader's connection when it was killed.
    pub lost_at_kill: u64,
    /// Writes the server acknowledged without their result (see
    /// [`Outcome::AckedNoResult`]).
    pub acked_no_result: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Report {
    fn fail(&mut self, why: String) {
        println!("CHECK FAILED: {why}");
        self.problems.push(why);
    }

    fn count(&mut self, phase: &PhaseResult) {
        self.ops += phase.ops.len() as u64;
        self.ops_failed += phase.failed() as u64;
        self.count_probe(phase);
    }

    /// Counts a knee-search probe, which may overload the servers on
    /// purpose, outside the base of `error_pct`.
    fn count_probe(&mut self, phase: &PhaseResult) {
        self.attempted += phase.ops.len() as u64;
        self.failed += phase.failed() as u64;
        self.acked_no_result += phase
            .ops
            .iter()
            .filter(|o| o.outcome == Outcome::AckedNoResult)
            .count() as u64;
    }
}

/// Every `Put` sent to one cluster, per key, in send order.
#[derive(Default)]
struct Ledger {
    puts: HashMap<u32, Vec<(u64, Outcome)>>,
}

impl Ledger {
    fn record(&mut self, phase: &PhaseResult) {
        for op in phase.ops.iter().filter(|o| o.kind == Kind::Put) {
            self.puts
                .entry(op.key)
                .or_default()
                .push((op.value, op.outcome));
        }
    }

    /// Checks one read against the writes to its key.
    fn check(&self, read: &Op) -> Result<(), String> {
        let history = self.puts.get(&read.key).map(Vec::as_slice).unwrap_or(&[]);
        let acked = |o: &Outcome| matches!(o, Outcome::Acked | Outcome::AckedNoResult);
        let last_acked = history
            .iter()
            .filter(|(_, o)| acked(o))
            .map(|(v, _)| *v)
            .max();
        let key = read.key;
        match read.outcome {
            Outcome::Read(None) => match last_acked {
                Some(v) => Err(format!(
                    "key{key}: acknowledged write {v} lost (read found nothing)"
                )),
                None => Ok(()),
            },
            Outcome::Read(Some(v)) => {
                let Some(&(_, outcome)) = history.iter().find(|(w, _)| *w == v) else {
                    return Err(format!("key{key}: read foreign value {v}"));
                };
                if last_acked.is_some_and(|a| v < a) {
                    return Err(format!(
                        "key{key}: read {v}, older than acknowledged {}",
                        last_acked.unwrap_or(0)
                    ));
                }
                match outcome {
                    Outcome::Refused => Err(format!("key{key}: read value {v} of a refused write")),
                    Outcome::Bad => Err(format!(
                        "key{key}: read value {v} of a write answered wrongly"
                    )),
                    _ => Ok(()),
                }
            }
            other => Err(format!("key{key}: audit read failed ({other:?})")),
        }
    }
}

/// A cluster plus the driver's connection to its leader. The connection
/// opens on first use and closes after each fixed-rate segment, so that
/// the driver holds one connection however many clusters run.
struct Live {
    cluster: Cluster,
    leader: u32,
    conn: Option<Conn>,
    ledger: Ledger,
    next_value: u64,
}

/// The open connection in `slot`, or a new one to `leader`.
fn connect<'c>(
    slot: &'c mut Option<Conn>,
    cluster: &Cluster,
    leader: u32,
) -> Result<&'c mut Conn, String> {
    if slot.is_none() {
        let conn = Conn::open(cluster.port(leader), router())
            .map_err(|e| format!("connect to server {leader}: {e}"))?;
        *slot = Some(conn);
    }
    slot.as_mut().ok_or_else(|| "not connected".to_string())
}

struct Failover {
    /// Requests in flight at the kill, lost with the connection.
    lost: u64,
    detect_ms: f64,
    elect_ms: f64,
    resume_ms: f64,
    outage_ms: f64,
    campaigns: u64,
    split_votes: u64,
}

pub struct Ctx<'a> {
    pub exe: &'a Path,
    pub work: &'a Path,
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    pub trace: bool,
    zipf: Arc<Zipfian>,
    seeds: SplitMix64,
    cluster_no: usize,
}

impl<'a> Ctx<'a> {
    pub fn new(
        exe: &'a Path,
        work: &'a Path,
        workload: Workload,
        seed: u64,
        plan: Plan,
        trace: bool,
    ) -> Ctx<'a> {
        Ctx {
            exe,
            work,
            workload,
            seed,
            plan,
            trace,
            zipf: Arc::new(Zipfian::new(KEYS, THETA)),
            seeds: SplitMix64::new(seed),
            cluster_no: 0,
        }
    }

    fn schedule(&mut self, source: Source) -> Schedule {
        Schedule::new(
            source,
            clock::now_ns(),
            self.seeds.next_u64(),
            self.zipf.clone(),
        )
    }

    fn mix(&mut self, rate: f64, read_frac: f64) -> Schedule {
        self.schedule(Source::Mix { rate, read_frac })
    }

    fn phase(
        &mut self,
        live: &mut Live,
        schedule: &mut Schedule,
        seconds: f64,
        trace: bool,
    ) -> Result<PhaseResult, String> {
        let conn = connect(&mut live.conn, &live.cluster, live.leader)?;
        let until = clock::now_ns() + (seconds * 1e9) as u64;
        let result = run_phase(conn, schedule, until, &mut live.next_value, trace, None);
        live.ledger.record(&result);
        Ok(result)
    }

    /// Starts a cluster and measures the wall time until a leader
    /// acknowledged its first write.
    fn setup(&mut self) -> Result<(Live, f64), String> {
        self.cluster_no += 1;
        let data = self
            .workload
            .durable
            .then(|| self.work.join(format!("cluster{}", self.cluster_no)));
        let t0 = clock::now_ns();
        let mut cluster = Cluster::start(self.exe, SERVERS, data, self.seed)?;
        let leader = cluster.wait_leader(std::time::Duration::from_secs(10))?;
        let mut live = Live {
            cluster,
            leader,
            conn: None,
            ledger: Ledger::default(),
            next_value: 0,
        };
        let mut first = self.schedule(Source::Keys {
            keys: vec![0],
            pos: 0,
            spacing_ns: 0,
            kind: Kind::Put,
        });
        let phase = self.phase(&mut live, &mut first, 10.0, false)?;
        if phase.first_ack().is_none() {
            return Err("setup: first write not acknowledged".into());
        }
        let setup_s = (clock::now_ns() - t0) as f64 / 1e9;
        live.conn = None;
        Ok((live, setup_s))
    }

    /// SIGKILLs the leader under low-rate writes, right after a request
    /// went out to it, and follows the driver's connection to the new
    /// leader; with `restart`, brings the killed server back from its data
    /// directory and waits until it caught up. The requests lost with the
    /// dead connection count as failed, and stay in the ledger as writes
    /// of unknown outcome for the audit.
    fn failover(
        &mut self,
        live: &mut Live,
        restart: bool,
        report: &mut Report,
    ) -> Result<Failover, String> {
        let victim = live.leader;
        let prior: Vec<Option<Status>> = live.cluster.statuses();
        let mut load = self.mix(FAILOVER_RATE, 0.0);
        let before = {
            let Live {
                cluster,
                leader,
                conn,
                ledger,
                next_value,
            } = live;
            let conn = connect(conn, cluster, *leader)?;
            let mut run = || cluster.kill(victim);
            let kill = Kill {
                at: clock::now_ns() + 300_000_000,
                run: &mut run,
            };
            let phase = run_phase(conn, &mut load, u64::MAX, next_value, false, Some(kill));
            ledger.record(&phase);
            phase
        };
        report.count(&before);
        let t_kill = before
            .killed_at
            .ok_or("failover: the connection failed before the kill")?;
        let lost = before
            .ops
            .iter()
            .filter(|o| o.outcome == Outcome::Pending)
            .count() as u64;
        report.failed -= lost;
        report.lost_at_kill += lost;

        let mut t_term = None;
        let (new_leader, t_leader) = loop {
            let now = clock::now_ns();
            let statuses = live.cluster.statuses();
            for (s, p) in statuses.iter().zip(&prior) {
                if let (Some(s), Some(p)) = (s, p) {
                    if s.term > p.term && t_term.is_none() {
                        t_term = Some(now);
                    }
                }
            }
            if let Some(i) = statuses.iter().position(|s| s.is_some_and(|s| s.leader)) {
                break (i as u32 + 1, now);
            }
            if now - t_kill > 10_000_000_000 {
                return Err("failover: no new leader within 10 s".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        live.leader = new_leader;
        live.conn = None;
        let after = self.phase(live, &mut load, 0.2, false)?;
        report.count(&after);
        let t_ack = after
            .first_ack()
            .ok_or("failover: no write acknowledged after the kill")?;

        let statuses = live.cluster.statuses();
        let (mut started, mut won) = (0, 0);
        for (s, p) in statuses.iter().zip(&prior) {
            if let (Some(s), Some(p)) = (s, p) {
                started += s.elections_started.saturating_sub(p.elections_started);
                won += s.elections_won.saturating_sub(p.elections_won);
            }
        }
        if won != 1 {
            report.fail(format!("failover: {won} leaders elected after one kill"));
        }

        if restart {
            live.cluster.restart(victim)?;
            let target = statuses[new_leader as usize - 1].map_or(0, |s| s.commit);
            let deadline = clock::now_ns() + 10_000_000_000;
            loop {
                let catch_up = self.phase(live, &mut load, 0.1, false)?;
                report.count(&catch_up);
                let applied = live.cluster.servers[victim as usize - 1]
                    .as_mut()
                    .and_then(|s| s.status())
                    .map_or(0, |s| s.applied);
                if applied >= target {
                    break;
                }
                if clock::now_ns() > deadline {
                    return Err(format!(
                        "failover: restarted server {victim} did not catch up"
                    ));
                }
            }
        }
        let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
        Ok(Failover {
            lost,
            detect_ms: ms(t_kill, t_term.unwrap_or(t_leader)),
            elect_ms: ms(t_term.unwrap_or(t_leader), t_leader),
            resume_ms: ms(t_leader, t_ack),
            outage_ms: ms(t_kill, t_ack),
            campaigns: started,
            split_votes: started.saturating_sub(won),
        })
    }

    /// Reads back every key written to the cluster and checks each value.
    fn audit(&mut self, live: &mut Live, report: &mut Report) -> Result<PhaseResult, String> {
        let mut keys: Vec<u32> = live.ledger.puts.keys().copied().collect();
        keys.sort_unstable();
        let mut reads = self.schedule(Source::Keys {
            keys,
            pos: 0,
            spacing_ns: (1e9 / AUDIT_RATE) as u64,
            kind: Kind::Get,
        });
        let phase = self.phase(live, &mut reads, 600.0, false)?;
        report.count(&phase);
        let mut bad = 0;
        for op in &phase.ops {
            if let Err(e) = live.ledger.check(op) {
                if bad < 5 {
                    report.fail(format!("audit: {e}"));
                }
                bad += 1;
            }
        }
        if bad > 0 {
            report.fail(format!("audit: {bad} of {} keys wrong", phase.ops.len()));
        }
        Ok(phase)
    }

    /// Reads that the workload itself served must name a write to their
    /// own key.
    fn check_reads(&self, live: &Live, phase: &PhaseResult, report: &mut Report) {
        for op in phase.ops.iter().filter(|o| o.kind == Kind::Get) {
            if let Outcome::Read(Some(v)) = op.outcome {
                if !live
                    .ledger
                    .puts
                    .get(&op.key)
                    .is_some_and(|h| h.iter().any(|(w, _)| *w == v))
                {
                    report.fail(format!("read of key{} returned foreign value {v}", op.key));
                    return;
                }
            }
            if op.outcome == Outcome::Bad {
                report.fail(format!("read of key{} got a malformed answer", op.key));
                return;
            }
        }
    }

    /// One knee-search probe: does `rate` meet the limit?
    fn probe(&mut self, live: &mut Live, rate: f64, report: &mut Report) -> Result<bool, String> {
        let w = self.workload;
        let mut load = self.mix(rate, w.read_frac);
        let phase = self.phase(live, &mut load, self.plan.probe_s, false)?;
        report.count_probe(&phase);
        let p90 = |kind| quantile(&mut phase.latencies_ms(kind), 0.9).unwrap_or(0.0);
        let late_p90 = quantile(&mut phase.lateness_ns(), 0.9).unwrap_or(0.0) / 1e6;
        let backlog_limit = (2.0 * rate * P90_LIMIT_MS / 1e3).max(16.0) as u64;
        let pass = phase.failed() == 0
            && p90(Kind::Put) <= P90_LIMIT_MS
            && p90(Kind::Get) <= P90_LIMIT_MS
            && late_p90 <= LATE_LIMIT_MS
            && phase.in_flight_end <= backlog_limit;
        println!(
            "  probe {rate:>8.0} ops/s: put p90 {:.3} ms, get p90 {:.3} ms, late p90 {late_p90:.3} ms, \
             in flight {}, failed {} -> {}",
            p90(Kind::Put),
            p90(Kind::Get),
            phase.in_flight_end,
            phase.failed(),
            if pass { "pass" } else { "fail" }
        );
        Ok(pass)
    }

    /// Whether `rate` meets the limit. A failing rate is probed once
    /// more, so that one transient stall does not set the knee.
    fn passes(&mut self, live: &mut Live, rate: f64, report: &mut Report) -> Result<bool, String> {
        Ok(self.probe(live, rate, report)? || self.probe(live, rate, report)?)
    }

    /// The highest offered rate that meets the p90 limit: from the
    /// workload's knee hint, steps of [`KNEE_CLIMB`] up (or down) to the
    /// first change of verdict, then bisection to [`KNEE_STEP`].
    fn knee(&mut self, live: &mut Live, report: &mut Report) -> Result<f64, String> {
        let hint = self.workload.knee_hint;
        let mut rates = 1;
        // Bracket the knee: `lo` passes, `hi` fails.
        let (mut lo, mut hi);
        if self.passes(live, hint, report)? {
            (lo, hi) = (hint, hint * KNEE_CLIMB);
            while rates < self.plan.knee_rates && self.passes(live, hi, report)? {
                (lo, hi) = (hi, hi * KNEE_CLIMB);
                rates += 1;
            }
        } else {
            (lo, hi) = (hint / KNEE_CLIMB, hint);
            while rates < self.plan.knee_rates && !self.passes(live, lo, report)? {
                (lo, hi) = (lo / KNEE_CLIMB, lo);
                rates += 1;
            }
        }
        while rates < self.plan.knee_rates && hi / lo > KNEE_STEP {
            let mid = (lo * hi).sqrt();
            if self.passes(live, mid, report)? {
                lo = mid;
            } else {
                hi = mid;
            }
            rates += 1;
        }
        Ok(lo)
    }
}

pub fn router() -> Router {
    Router::new(ShardMap::uniform(1))
}

fn sum_delta(
    after: &[Option<Status>],
    before: &[Option<Status>],
    f: impl Fn(&Status) -> u64,
) -> u64 {
    after
        .iter()
        .zip(before)
        .filter_map(|(a, b)| Some(f(&(*a)?).saturating_sub(f(&(*b)?))))
        .sum()
}

fn leader_delta(after: &[Option<Status>], before: &[Option<Status>]) -> Option<(Status, Status)> {
    let i = after.iter().position(|s| s.is_some_and(|s| s.leader))?;
    Some((after[i]?, before[i]?))
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn med(values: Vec<f64>) -> f64 {
    let mut v = values;
    median(&mut v).unwrap_or(0.0)
}

/// Engine counters summed over the fixed-rate segments of a run.
#[derive(Default)]
struct Counters {
    /// Leader deltas.
    commands_proposed: u64,
    propose_batches: u64,
    commit_latency_us: u64,
    commits_timed: u64,
    lease_reads: u64,
    reads_served: u64,
    rearrangements: u64,
    /// Deltas summed over every server.
    msgs_sent: u64,
    elections: u64,
    step_downs: u64,
    backpressure_resets: u64,
    frames_dropped: u64,
}

impl Counters {
    /// Adds the counters that moved between `before` and `after`;
    /// `leader` also takes the leader's own deltas.
    fn add(&mut self, after: &[Option<Status>], before: &[Option<Status>], leader: bool) {
        self.elections += sum_delta(after, before, |s| s.elections_started);
        self.step_downs += sum_delta(after, before, |s| s.step_downs);
        self.backpressure_resets += sum_delta(after, before, |s| s.backpressure_resets);
        self.frames_dropped += sum_delta(after, before, |s| s.frames_dropped);
        if !leader {
            return;
        }
        self.msgs_sent += sum_delta(after, before, |s| s.msgs_sent);
        if let Some((a, b)) = leader_delta(after, before) {
            self.commands_proposed += a.commands_proposed.saturating_sub(b.commands_proposed);
            self.propose_batches += a.propose_batches.saturating_sub(b.propose_batches);
            self.commit_latency_us += a.commit_latency_us.saturating_sub(b.commit_latency_us);
            self.commits_timed += a.commits_timed.saturating_sub(b.commits_timed);
            self.lease_reads += a.lease_reads.saturating_sub(b.lease_reads);
            self.reads_served += a.reads_served.saturating_sub(b.reads_served);
            self.rearrangements += a.rearrangements.saturating_sub(b.rearrangements);
        }
    }
}

/// Percentiles of one phase, in ms.
#[derive(Clone, Copy, Default)]
struct Pcts {
    put_p50: f64,
    put_p90: f64,
    get_p50: f64,
    get_p90: f64,
}

impl Pcts {
    fn of(phase: &PhaseResult) -> Pcts {
        let mut puts = phase.latencies_ms(Kind::Put);
        let mut gets = phase.latencies_ms(Kind::Get);
        Pcts {
            put_p50: quantile(&mut puts, 0.5).unwrap_or(0.0),
            put_p90: quantile(&mut puts, 0.9).unwrap_or(0.0),
            get_p50: quantile(&mut gets, 0.5).unwrap_or(0.0),
            get_p90: quantile(&mut gets, 0.9).unwrap_or(0.0),
        }
    }
}

/// The fixed-rate phase: [`ROUNDS`] segments on every cluster of the run.
/// Each end-to-end figure is the median over the segments (or over the
/// clusters' audits), so that neither one cluster nor one noisy stretch of
/// the run sets it.
#[derive(Default)]
struct Steady {
    segments: Vec<Pcts>,
    /// Server CPU ms per 1000 completed operations, per segment.
    cpu_ms_per_kop: Vec<f64>,
    audits: Vec<Pcts>,
    /// Pooled over every segment, for context.
    puts: Vec<f64>,
    gets: Vec<f64>,
    lateness: Vec<f64>,
    ops: u64,
    completed: u64,
    failed: u64,
    in_flight_end: u64,
    seconds: f64,
    rss_mb: Vec<f64>,
    counters: Counters,
}

impl<'a> Ctx<'a> {
    /// One fixed-rate segment on `live`, pooled into `steady`.
    fn steady_segment(
        &mut self,
        live: &mut Live,
        seconds: f64,
        steady: &mut Steady,
        report: &mut Report,
    ) -> Result<(), String> {
        let w = self.workload;
        let before = live.cluster.statuses();
        let mut load = self.mix(w.fixed_rate, w.read_frac);
        let phase = self.phase(live, &mut load, seconds, false)?;
        live.conn = None;
        let after = live.cluster.statuses();
        let completed = phase.ops.iter().filter(|o| o.ok()).count() as u64;
        steady.segments.push(Pcts::of(&phase));
        let cpu_ms = sum_delta(&after, &before, |s| s.cpu_ns) as f64 / 1e6;
        steady
            .cpu_ms_per_kop
            .push(cpu_ms / (completed as f64 / 1e3).max(1e-9));
        steady.counters.add(&after, &before, true);
        steady
            .rss_mb
            .push(live.cluster.peak_rss_kb() as f64 / 1024.0);
        report.count(&phase);
        self.check_reads(live, &phase, report);
        steady.puts.extend(phase.latencies_ms(Kind::Put));
        steady.gets.extend(phase.latencies_ms(Kind::Get));
        steady.lateness.extend(phase.lateness_ns());
        steady.ops += phase.ops.len() as u64;
        steady.completed += completed;
        steady.failed += phase.failed() as u64;
        steady.in_flight_end = steady.in_flight_end.max(phase.in_flight_end);
        steady.seconds += (phase.end - phase.start) as f64 / 1e9;
        Ok(())
    }
}

/// Runs every phase of one workload and returns the report.
pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let w = ctx.workload;
    let plan = ctx.plan;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut failovers = Vec::new();
    let mut steady = Steady::default();
    println!(
        "workload {}: {} servers, {}, {:.0}% Get, fixed rate {} ops/s, p90 limit {} ms, seed {}",
        w.name,
        SERVERS,
        if w.durable {
            "WAL on (fsync)"
        } else {
            "memory-only"
        },
        w.read_frac * 100.0,
        w.fixed_rate,
        P90_LIMIT_MS,
        ctx.seed
    );

    // Simulated election first, while no server process runs.
    let s = sim::run(ctx.seed, plan.sim_trials);
    println!(
        "sim-election: {} trials, n={} loss {:.0}%: mean {:.1} ms, {:.3} campaigns, {:.2} s wall",
        s.trials,
        sim::SERVERS,
        sim::LOSS * 100.0,
        s.le_ms,
        s.campaigns,
        s.wall_s
    );
    println!(
        "sim-election: {} unsafe trials, {} unmeasured (no new leader in the horizon, or an election under way at the crash)",
        s.unsafe_trials, s.unmeasured
    );
    if s.unsafe_trials > 0 {
        report.fail(format!("sim-election: {} unsafe trials", s.unsafe_trials));
    }
    report.attempted += s.trials as u64;
    report.failed += s.unsafe_trials as u64;

    // 2. Setup of every cluster; the last is the main cluster.
    let mut clusters = Vec::new();
    for i in 0..plan.setup_clusters {
        let (live, setup_s) = ctx.setup()?;
        println!("setup {}: {setup_s:.4} s", i + 1);
        setups.push(setup_s);
        clusters.push(live);
    }

    // 3. Fixed-rate segments, round-robin over the clusters.
    let segment_s = plan.fixed_s / (plan.setup_clusters * plan.rounds) as f64;
    for _ in 0..plan.rounds {
        for live in &mut clusters {
            ctx.steady_segment(live, segment_s, &mut steady, &mut report)?;
        }
    }

    // 4. Every cluster but the main one loses its leader, is audited and
    // torn down.
    let mut live = clusters.pop().ok_or("no main cluster")?;
    for mut other in clusters {
        let f = ctx.failover(&mut other, false, &mut report)?;
        failovers.push(f);
        let audit = ctx.audit(&mut other, &mut report)?;
        steady.audits.push(Pcts::of(&audit));
    }
    let late_p50 = quantile(&mut steady.lateness, 0.5).unwrap_or(0.0) / 1e6;
    let late_p90 = quantile(&mut steady.lateness, 0.9).unwrap_or(0.0) / 1e6;
    let late_p99 = quantile(&mut steady.lateness, 0.99).unwrap_or(0.0) / 1e6;
    println!(
        "fixed {} ops/s for {:.2} s in {} segments over {} clusters: {} ops, {} failed, \
         sender late p50 {late_p50:.4} ms p99 {late_p99:.4} ms, most in flight at a segment end {}",
        w.fixed_rate,
        steady.seconds,
        steady.segments.len(),
        plan.setup_clusters,
        steady.ops,
        steady.failed,
        steady.in_flight_end
    );
    let per_segment = |f: fn(&Pcts) -> f64| {
        steady
            .segments
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  per-segment put p50 ms: {}", per_segment(|p| p.put_p50));
    println!("  per-segment get p50 ms: {}", per_segment(|p| p.get_p50));
    println!(
        "  per-segment server cpu ms/kop: {}",
        steady
            .cpu_ms_per_kop
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  put ms: {}", describe(&mut steady.puts));
    println!("  get ms: {}", describe(&mut steady.gets));
    if late_p90 > LATE_LIMIT_MS {
        report.fail(format!(
            "fixed-rate schedule slipped: sender p90 lateness {late_p90:.3} ms > {LATE_LIMIT_MS} ms; phase invalid"
        ));
    }

    // Back-to-back untraced and traced segments for the stage table and
    // the tracing overhead (trace runs only).
    let mut traced = None;
    if ctx.trace {
        let mut segment = |trace| {
            let mut load = ctx.mix(w.fixed_rate, w.read_frac);
            let phase = ctx.phase(&mut live, &mut load, segment_s, trace)?;
            report.count(&phase);
            Ok::<_, String>(phase)
        };
        traced = Some([segment(false)?, segment(true)?]);
    }

    // 5. Knee.
    println!("knee search (p90 limit {} ms):", P90_LIMIT_MS);
    let before_knee = live.cluster.statuses();
    let max_ops = ctx.knee(&mut live, &mut report)?;
    steady
        .counters
        .add(&live.cluster.statuses(), &before_knee, false);
    // Context, not gated: on this box the knee moves by a third from run
    // to run (mostly with the disk, on write-durable).
    println!("max_ops_s {max_ops:.0} ops/s (context)");

    // Heartbeat health: no elections and no step-downs under load.
    let c = &steady.counters;
    if c.elections != 0 || c.step_downs != 0 {
        report.fail(format!(
            "heartbeat guard: {} elections and {} step-downs during the fixed-rate and knee phases",
            c.elections, c.step_downs
        ));
    }

    // 6. Failover of the main cluster: with restart from the WAL, or once
    // without on a memory-only cluster, where a restarted server would
    // have forgotten its votes.
    if w.durable {
        for _ in 0..plan.restart_kills {
            let f = ctx.failover(&mut live, true, &mut report)?;
            failovers.push(f);
        }
    } else {
        let f = ctx.failover(&mut live, false, &mut report)?;
        failovers.push(f);
    }

    // 7. Audit.
    let audit = ctx.audit(&mut live, &mut report)?;
    steady.audits.push(Pcts::of(&audit));
    println!(
        "audit: {} keys read back at {AUDIT_RATE} ops/s, get ms: {}",
        audit.ops.len(),
        describe(&mut audit.latencies_ms(Kind::Get))
    );
    drop(live);

    for (i, f) in failovers.iter().enumerate() {
        println!(
            "failover {}: outage {:.2} ms (detect {:.2}, elect {:.2}, resume {:.2}), {} campaigns, \
             {} requests lost in flight",
            i + 1,
            f.outage_ms,
            f.detect_ms,
            f.elect_ms,
            f.resume_ms,
            f.campaigns,
            f.lost
        );
    }

    // End-to-end metrics: reads come from the fixed-rate segments when
    // the mix has any, else from the audits.
    let segs = &steady.segments;
    let reads = if w.read_frac > 0.0 {
        segs
    } else {
        &steady.audits
    };
    let over = |v: &[Pcts], f: fn(&Pcts) -> f64| med(v.iter().map(f).collect());
    let error_pct = 100.0 * report.ops_failed as f64 / report.ops.max(1) as f64;
    println!(
        "{} of {} operations outside the knee search failed, {} of them lost in flight at a kill",
        report.ops_failed, report.ops, report.lost_at_kill
    );
    println!(
        "writes acknowledged without their result (aged out of the server's result window): {}",
        report.acked_no_result
    );
    let e2e = [
        ("setup_s", med(setups), "s"),
        ("write_p50_ms", over(segs, |p| p.put_p50), "ms"),
        ("write_p90_ms", over(segs, |p| p.put_p90), "ms"),
        ("read_p50_ms", over(reads, |p| p.get_p50), "ms"),
        ("read_p90_ms", over(reads, |p| p.get_p90), "ms"),
        ("error_pct", error_pct, "%"),
        (
            "cpu_ms_per_kop",
            med(std::mem::take(&mut steady.cpu_ms_per_kop)),
            "ms/kop",
        ),
        ("rss_mb", med(std::mem::take(&mut steady.rss_mb)), "MB"),
        (
            "outage_ms",
            med(failovers.iter().map(|f| f.outage_ms).collect()),
            "ms",
        ),
        ("sim_le_ms", s.le_ms, "ms"),
        ("sim_campaigns", s.campaigns, "count"),
        ("sim_trials_per_s", s.trials_per_s, "1/s"),
    ];
    report.e2e = e2e
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();

    // Per-layer metrics from the servers' counters.
    let c = &steady.counters;
    let n_fail = failovers.len().max(1) as f64;
    let mut layer = vec![
        (
            "core.ops_per_batch",
            ratio(c.commands_proposed, c.propose_batches),
            "ops/batch",
        ),
        (
            "core.commit_ms_mean",
            ratio(c.commit_latency_us, c.commits_timed) / 1e3,
            "ms",
        ),
        (
            "core.msgs_per_op",
            c.msgs_sent as f64 / (steady.completed as f64).max(1.0),
            "msgs/op",
        ),
        (
            "core.lease_read_share",
            ratio(c.lease_reads, c.reads_served),
            "ratio",
        ),
        ("core.unexpected_elections", c.elections as f64, "count"),
        (
            "core.backpressure_resets",
            c.backpressure_resets as f64,
            "count",
        ),
        ("transport.frames_dropped", c.frames_dropped as f64, "count"),
        (
            "core.failover_detect_ms",
            med(failovers.iter().map(|f| f.detect_ms).collect()),
            "ms",
        ),
        (
            "core.failover_elect_ms",
            med(failovers.iter().map(|f| f.elect_ms).collect()),
            "ms",
        ),
        (
            "transport.failover_resume_ms",
            med(failovers.iter().map(|f| f.resume_ms).collect()),
            "ms",
        ),
        (
            "core.campaigns_per_failover",
            failovers.iter().map(|f| f.campaigns as f64).sum::<f64>() / n_fail,
            "count",
        ),
        (
            "core.split_votes",
            failovers.iter().map(|f| f.split_votes as f64).sum::<f64>() / n_fail,
            "count",
        ),
        (
            "core.rearrangements_per_s",
            c.rearrangements as f64 / steady.seconds.max(1e-9),
            "1/s",
        ),
        ("cluster.detect_ms", s.detect_ms, "ms"),
        ("cluster.elect_ms", s.elect_ms, "ms"),
        ("simnet.msgs_per_trial", s.msgs_per_trial, "count"),
        (
            "simnet.wall_us_per_msg",
            s.wall_s * 1e6 / (s.msgs_per_trial * s.trials as f64).max(1.0),
            "us",
        ),
    ];
    if let Some([untraced, traced]) = traced {
        let ops_per_batch = layer[0].1;
        layer.extend(traced_layers(
            ctx,
            &traced,
            &untraced,
            ops_per_batch,
            &mut report,
        )?);
    }
    report.layers = layer
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();
    report.correct = report.problems.is_empty();
    Ok(report)
}

/// The traced run's per-layer metrics and its stage table.
fn traced_layers(
    ctx: &mut Ctx,
    traced: &PhaseResult,
    untraced: &PhaseResult,
    ops_per_batch: f64,
    report: &mut Report,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = ctx.workload;
    let reps = ctx.plan.layer_reps;
    let mut tracer = Tracer::new(true);
    let data = w.durable.then_some(ctx.work);
    let (node_write_us, node_read_us) = layers::node_calls(SERVERS, data, reps, &mut tracer)?;
    let (single_write_us, _) = layers::node_calls(1, data, reps, &mut tracer)?;
    let batch = ops_per_batch.round().clamp(1.0, 256.0) as usize;
    let (append_us, sync_us) = layers::storage_calls(ctx.work, batch, reps.min(500), &mut tracer)?;
    let propose_us = layers::propose_batch_calls(batch, reps, &mut tracer);
    let (apply_ns, query_ns) = layers::kv_calls(reps * 5, &mut tracer);

    let primary = if w.read_frac >= 0.5 {
        Kind::Get
    } else {
        Kind::Put
    };
    let (op_name, node_name, node_us) = match primary {
        Kind::Put => ("client.put", "shard.node_write", node_write_us),
        Kind::Get => ("client.get", "shard.node_read", node_read_us),
    };
    let t = &traced.tracer;
    let encode_us = t.median_ns("wire.encode").unwrap_or(0.0) / 1e3;
    let decode_us = t.median_ns("wire.decode").unwrap_or(0.0) / 1e3;
    let route_us = t.median_ns("shard.route").unwrap_or(0.0) / 1e3;
    let e2e_us = quantile(&mut traced.latencies_ms(primary), 0.5).unwrap_or(0.0) * 1e3;
    let untraced_us = quantile(&mut untraced.latencies_ms(primary), 0.5).unwrap_or(0.0) * 1e3;
    let op_self_us = t.median_self_ns(op_name).unwrap_or(0.0) / 1e3;
    let remainder_us = e2e_us - encode_us - route_us - node_us - decode_us;
    let replication_us = node_write_us - single_write_us;

    println!(
        "stage table, {} {op_name} (traced e2e p50 {e2e_us:.2} us):",
        w.name
    );
    println!(
        "  {:<44} {:>10.2} us",
        "wire.encode (Encode + write_frame)", encode_us
    );
    println!(
        "  {:<44} {:>10.2} us",
        "shard.route (Router::check)", route_us
    );
    println!(
        "  {:<44} {:>10.2} us",
        format!("{node_name} (in-process {SERVERS}-server group)"),
        node_us
    );
    if primary == Kind::Put {
        println!(
            "    {:<42} {:>10.2} us",
            "of which single-node write (not summed)", single_write_us
        );
        println!(
            "    {:<42} {:>10.2} us",
            "of which core.replication_round (not summed)", replication_us
        );
        println!(
            "    {:<42} {:>10.2} us",
            format!("storage.append, batch {batch} (not summed)"),
            append_us
        );
        println!(
            "    {:<42} {:>10.2} us",
            format!("storage.sync, batch {batch} (not summed)"),
            sync_us
        );
        println!(
            "    {:<42} {:>10.2} us",
            format!("core.propose_batch, batch {batch} (not summed)"),
            propose_us
        );
        println!(
            "    {:<42} {:>10.3} us",
            "kv.apply (not summed)",
            apply_ns / 1e3
        );
    } else {
        println!(
            "    {:<42} {:>10.3} us",
            "kv.query (not summed)",
            query_ns / 1e3
        );
    }
    println!(
        "  {:<44} {:>10.2} us",
        "wire.decode (FrameReader + Decode)", decode_us
    );
    println!(
        "  {:<44} {:>10.2} us",
        "transport.client_path_us (remainder)", remainder_us
    );
    println!("  {:<44} {:>10.2} us", "= traced e2e p50", e2e_us);
    println!("  client op self time (op minus its spans) p50 {op_self_us:.2} us");
    println!(
        "  tracing overhead: traced p50 {e2e_us:.2} us - untraced p50 {untraced_us:.2} us = {:.2} us",
        e2e_us - untraced_us
    );

    let mut all = std::mem::take(&mut tracer);
    all.spans.extend(traced.tracer.spans.iter().copied());
    let path = ctx
        .work
        .with_file_name(format!("trace-{}-{}.tsv", w.name, ctx.seed));
    match all.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => report.fail(format!("writing spans: {e}")),
    }

    Ok(vec![
        ("wire.encode_ns", encode_us * 1e3, "ns"),
        ("wire.decode_ns", decode_us * 1e3, "ns"),
        (
            "wire.bytes_per_op",
            traced.wire_bytes as f64 / traced.ops.len().max(1) as f64,
            "B",
        ),
        ("shard.route_ns", route_us * 1e3, "ns"),
        ("shard.node_write_us", node_write_us, "us"),
        ("shard.node_read_us", node_read_us, "us"),
        ("core.replication_round_us", replication_us, "us"),
        ("transport.client_path_us", remainder_us, "us"),
        ("storage.append_us", append_us, "us"),
        ("storage.sync_us", sync_us, "us"),
        ("core.propose_batch_us", propose_us, "us"),
        ("kv.apply_ns", apply_ns, "ns"),
        ("kv.query_ns", query_ns, "ns"),
    ])
}

/// The run's scratch directory inside the checkout.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench_run").join(format!("{workload}-{seed}-{}", std::process::id()))
}
