//! Server processes as the driver sees them: spawn, ask for status (which
//! carries the process's CPU time), read peak memory from `/proc`,
//! SIGKILL, restart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

use crate::clock;

/// One `status` answer of a server process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Status {
    pub leader: bool,
    pub term: u64,
    pub commit: u64,
    pub applied: u64,
    pub elections_started: u64,
    pub elections_won: u64,
    pub step_downs: u64,
    pub propose_batches: u64,
    pub commands_proposed: u64,
    pub commit_latency_us: u64,
    pub commits_timed: u64,
    pub msgs_sent: u64,
    pub reads_served: u64,
    pub lease_reads: u64,
    pub backpressure_resets: u64,
    pub rearrangements: u64,
    pub frames_dropped: u64,
    /// The whole process's CPU time, in ns.
    pub cpu_ns: u64,
}

impl Status {
    fn parse(line: &str) -> Option<Status> {
        let mut s = Status::default();
        for pair in line.split_whitespace() {
            let (key, value) = pair.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let slot = match key {
                "role" => {
                    s.leader = value == 2;
                    continue;
                }
                "term" => &mut s.term,
                "commit" => &mut s.commit,
                "applied" => &mut s.applied,
                "elections_started" => &mut s.elections_started,
                "elections_won" => &mut s.elections_won,
                "step_downs" => &mut s.step_downs,
                "propose_batches" => &mut s.propose_batches,
                "commands_proposed" => &mut s.commands_proposed,
                "commit_latency_us" => &mut s.commit_latency_us,
                "commits_timed" => &mut s.commits_timed,
                "msgs_sent" => &mut s.msgs_sent,
                "reads_served" => &mut s.reads_served,
                "lease_reads" => &mut s.lease_reads,
                "backpressure_resets" => &mut s.backpressure_resets,
                "rearrangements" => &mut s.rearrangements,
                "frames_dropped" => &mut s.frames_dropped,
                "cpu_ns" => &mut s.cpu_ns,
                _ => continue,
            };
            *slot = value;
        }
        Some(s)
    }
}

/// A running server process. Dropping it kills the process and waits.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(cluster: &Cluster, id: u32) -> Result<Server, String> {
        let ports_arg = cluster
            .ports
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut cmd = Command::new(&cluster.exe);
        cmd.args(["server", "--id", &id.to_string(), "--ports", &ports_arg])
            .args(["--seed", &cluster.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &cluster.data {
            cmd.arg("--data").arg(dir.join(format!("s{id}")));
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn server {id}: {e}"))?;
        let stdin = child.stdin.take().ok_or("server stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let mut server = Server {
            child,
            stdin,
            stdout,
        };
        let mut line = String::new();
        match server.stdout.read_line(&mut line) {
            Ok(n) if n > 0 && line.trim() == "ready" => Ok(server),
            _ => Err(format!("server {id} did not start")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the process for a status line; `None` if it is gone or its
    /// group thread did not answer.
    pub fn status(&mut self) -> Option<Status> {
        writeln!(self.stdin, "status").ok()?;
        self.stdin.flush().ok()?;
        let mut line = String::new();
        if self.stdout.read_line(&mut line).ok()? == 0 {
            return None;
        }
        Status::parse(line.trim())
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A three-process (or any size) cluster on loopback.
pub struct Cluster {
    exe: PathBuf,
    ports: Vec<u16>,
    data: Option<PathBuf>,
    seed: u64,
    /// Slot `i` holds server id `i + 1`; `None` while killed.
    pub servers: Vec<Option<Server>>,
}

impl Cluster {
    /// Starts `n` servers, each with its own data directory under `data`
    /// (memory-only when `None`).
    pub fn start(
        exe: &Path,
        n: usize,
        data: Option<PathBuf>,
        seed: u64,
    ) -> Result<Cluster, String> {
        let mut last_err = String::new();
        // A port picked here can be taken before the server binds it; try
        // a fresh set a few times.
        for _ in 0..3 {
            let ports = free_ports(n)?;
            let mut cluster = Cluster {
                exe: exe.to_path_buf(),
                ports,
                data: data.clone(),
                seed,
                servers: Vec::new(),
            };
            let mut ok = true;
            for id in 1..=n as u32 {
                match Server::spawn(&cluster, id) {
                    Ok(server) => cluster.servers.push(Some(server)),
                    Err(e) => {
                        last_err = e;
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok(cluster);
            }
        }
        Err(last_err)
    }

    pub fn port(&self, id: u32) -> u16 {
        self.ports[id as usize - 1]
    }

    /// Status of every slot (`None` for killed or silent servers).
    pub fn statuses(&mut self) -> Vec<Option<Status>> {
        self.servers
            .iter_mut()
            .map(|s| s.as_mut().and_then(Server::status))
            .collect()
    }

    /// The live server that reports itself leader with the highest term.
    pub fn leader(&mut self) -> Option<u32> {
        self.statuses()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.filter(|s| s.leader).map(|s| (s.term, i as u32 + 1)))
            .max()
            .map(|(_, id)| id)
    }

    pub fn wait_leader(&mut self, timeout: Duration) -> Result<u32, String> {
        let deadline = clock::now_ns() + timeout.as_nanos() as u64;
        loop {
            if let Some(id) = self.leader() {
                return Ok(id);
            }
            if clock::now_ns() > deadline {
                return Err(format!("no leader within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// SIGKILLs server `id` and reaps it.
    pub fn kill(&mut self, id: u32) {
        // Dropping the handle sends SIGKILL and waits.
        self.servers[id as usize - 1] = None;
    }

    /// Restarts server `id` on its old port and data directory.
    pub fn restart(&mut self, id: u32) -> Result<(), String> {
        let server = Server::spawn(self, id)?;
        self.servers[id as usize - 1] = Some(server);
        Ok(())
    }

    pub fn live(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter().flatten()
    }

    pub fn peak_rss_kb(&self) -> u64 {
        self.live().map(Server::peak_rss_kb).sum()
    }
}

fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string()))
        .collect()
}
