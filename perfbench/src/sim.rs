//! The paper's Fig. 11 election in the simulator: ESCAPE on
//! `ClusterConfig::paper_network` with n = 100, 40% broadcast omission,
//! and 30 client commands before each leader crash.

use escape_cluster::experiments::loss::WORKLOAD_COMMANDS;
use escape_cluster::{run_leader_failure_trial, ClusterConfig, Protocol, TrialConfig};
use escape_core::rand::{Rng64, SplitMix64};
use escape_simnet::LossModel;

use crate::clock;

pub const SERVERS: usize = 100;
pub const LOSS: f64 = 0.40;
/// Trials per wall-clock rate sample.
pub const CHUNK: usize = 100;

/// Means over a run's trials.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    pub trials: usize,
    /// Crash → new leader, simulated ms.
    pub le_ms: f64,
    pub campaigns: f64,
    /// Crash → first candidate, simulated ms.
    pub detect_ms: f64,
    /// First candidate → leader, simulated ms.
    pub elect_ms: f64,
    pub msgs_per_trial: f64,
    /// Trials whose safety checker reported a violation.
    pub unsafe_trials: usize,
    /// Trials that `run_leader_failure_trial` returned without a
    /// measurement: no new leader within the horizon, or an election
    /// already under way at the crash that the measurement does not
    /// attribute to it. The trial API does not tell the two apart.
    pub unmeasured: usize,
    /// Wall-clock seconds the trials took.
    pub wall_s: f64,
    /// Trials per wall-clock second: the median over chunks of
    /// [`CHUNK`] trials, so that a noisy stretch of the run does not set it.
    pub trials_per_s: f64,
}

/// The trial configuration for the `index`-th trial of a run seeded `seed`.
pub fn trial_config(seed: u64, index: usize) -> TrialConfig {
    let base = SplitMix64::new(seed).next_u64();
    let mut cluster = ClusterConfig::paper_network(
        SERVERS,
        Protocol::escape_paper_default(),
        base.wrapping_add(index as u64),
    );
    cluster.loss = LossModel::BroadcastOmission(LOSS);
    TrialConfig::with_workload(cluster, WORKLOAD_COMMANDS)
}

/// Runs `trials` trials drawn from `seed`.
pub fn run(seed: u64, trials: usize) -> SimResult {
    let start = clock::now_ns();
    let mut le = Vec::new();
    let mut campaigns = Vec::new();
    let mut detect = Vec::new();
    let mut elect = Vec::new();
    let mut msgs = 0u64;
    let mut unsafe_trials = 0;
    let mut unmeasured = 0;
    let mut rates = Vec::new();
    let mut chunk_start = start;
    for index in 0..trials {
        let outcome = run_leader_failure_trial(&trial_config(seed, index));
        if (index + 1) % CHUNK == 0 || index + 1 == trials {
            let now = clock::now_ns();
            let n = (index % CHUNK + 1) as f64;
            rates.push(n * 1e9 / (now - chunk_start).max(1) as f64);
            chunk_start = now;
        }
        msgs += outcome.messages_sent;
        if !outcome.safe {
            unsafe_trials += 1;
        }
        match outcome.measurement {
            Some(m) => {
                le.push(m.total().as_micros() as f64 / 1e3);
                detect.push(m.detection().as_micros() as f64 / 1e3);
                elect.push(m.election().as_micros() as f64 / 1e3);
                campaigns.push(m.campaigns as f64);
            }
            None => unmeasured += 1,
        }
    }
    let mean = |v: &[f64]| crate::stats::mean(v).unwrap_or(0.0);
    SimResult {
        trials,
        le_ms: mean(&le),
        campaigns: mean(&campaigns),
        detect_ms: mean(&detect),
        elect_ms: mean(&elect),
        msgs_per_trial: msgs as f64 / trials.max(1) as f64,
        unsafe_trials,
        unmeasured,
        wall_s: (clock::now_ns() - start) as f64 / 1e9,
        trials_per_s: crate::stats::median(&mut rates).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same trials: every simulated figure repeats exactly, and
    /// every trial is safe and measured.
    #[test]
    fn sim_election_is_deterministic_and_safe() {
        let a = run(7, 12);
        let b = run(7, 12);
        assert_eq!(a.trials, 12);
        assert_eq!(
            (
                a.le_ms,
                a.campaigns,
                a.detect_ms,
                a.elect_ms,
                a.msgs_per_trial
            ),
            (
                b.le_ms,
                b.campaigns,
                b.detect_ms,
                b.elect_ms,
                b.msgs_per_trial
            )
        );
        assert_eq!(a.unmeasured, b.unmeasured);
        assert_eq!((a.unsafe_trials, a.unmeasured), (0, 0));
        assert_eq!((b.unsafe_trials, b.unmeasured), (0, 0));
        assert!(a.le_ms > 0.0 && a.campaigns >= 1.0);
    }
}
