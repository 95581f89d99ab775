//! The benchmark's server process: one `ShardedNode` hosting a single
//! consensus group, serving `escape-wire` clients on its peer listener.
//!
//! ```text
//! perfbench server --id 2 --ports 41001,41002,41003 [--data DIR] [--seed N]
//! ```
//!
//! The process binds `127.0.0.1:<ports[id-1]>`, prints `ready`, then answers
//! line commands on stdin: `status` prints one line of `key=value` pairs
//! (see [`crate::cluster::Status`]); `quit` or end of input exits at once.
//! There is no graceful shutdown: every WAL record is already synced, so
//! exiting and SIGKILL leave the same data directory.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

use escape_core::statemachine::StateMachine;
use escape_core::types::{Role, ServerId};
use escape_kv::KvStateMachine;
use escape_shard::{ShardMap, ShardSpawnOptions, ShardedNode};
use escape_transport::spec::ProtocolSpec;

use crate::Flags;

pub fn main(flags: &Flags) -> Result<(), String> {
    let id: u32 = flags.parse("--id")?;
    let ports: Vec<u16> = flags
        .get("--ports")?
        .split(',')
        .map(|p| p.parse().map_err(|_| format!("bad port {p:?}")))
        .collect::<Result<_, _>>()?;
    let data: Option<PathBuf> = flags.opt("--data").map(PathBuf::from);
    let seed: u64 = flags.parse_or("--seed", 1)?;

    let addrs: HashMap<ServerId, SocketAddr> = ports
        .iter()
        .enumerate()
        .map(|(i, port)| {
            let addr: SocketAddr = ([127, 0, 0, 1], *port).into();
            (ServerId::new(i as u32 + 1), addr)
        })
        .collect();
    let me = ServerId::new(id);
    let addr = *addrs.get(&me).ok_or("--id outside --ports")?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;

    let node = ShardedNode::spawn_with(
        me,
        listener,
        addrs,
        ProtocolSpec::escape_local(),
        seed,
        ShardMap::uniform(1),
        |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
        data.as_deref(),
        ShardSpawnOptions {
            serve_clients: true,
            ..ShardSpawnOptions::default()
        },
    );
    let group = node.map().groups().next().ok_or("empty shard map")?;

    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "status" => {
                let text = match node.status(group) {
                    Some(s) => {
                        let m = &s.metrics;
                        let role = match s.role {
                            Role::Follower => 0,
                            Role::Candidate => 1,
                            Role::Leader => 2,
                        };
                        format!(
                            "role={role} term={} commit={} applied={} \
                             elections_started={} elections_won={} step_downs={} \
                             propose_batches={} commands_proposed={} \
                             commit_latency_us={} commits_timed={} msgs_sent={} \
                             reads_served={} lease_reads={} backpressure_resets={} \
                             rearrangements={} frames_dropped={} cpu_ns={}",
                            s.term.get(),
                            s.commit_index.get(),
                            s.last_applied.get(),
                            m.elections_started,
                            m.elections_won,
                            m.step_downs,
                            m.propose_batches,
                            m.commands_proposed,
                            m.commit_latency_total_micros,
                            m.commits_timed,
                            m.messages_sent(),
                            m.reads_served,
                            m.lease_reads,
                            m.backpressure_resets,
                            m.rearrangements_issued,
                            s.frames_dropped,
                            process_cpu_ns(),
                        )
                    }
                    None => "unavailable".to_string(),
                };
                if writeln!(out, "{text}").and_then(|()| out.flush()).is_err() {
                    break;
                }
            }
            "quit" => break,
            _ => {}
        }
    }
    // Exit without joining the node's threads (see the module docs).
    std::process::exit(0)
}

/// CPU time of this whole process (every thread, including exited ones),
/// in nanoseconds. `/proc/<pid>/stat` counts in 10 ms clock ticks, too
/// coarse for a few seconds of load; `/proc/<pid>/schedstat` covers only
/// the main thread.
fn process_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is the POSIX process CPU-time clock.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
