//! In-process transport: one thread per node, crossbeam channels as links.
//!
//! The smallest real-time deployment — useful for examples, soak tests,
//! and demonstrating that the sans-IO engine runs unchanged outside the
//! simulator.

use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded};

use escape_core::engine::ProposeError;
use escape_core::message::Message;
use escape_core::statemachine::StateMachine;
use escape_core::types::{LogIndex, Role, ServerId};

use crate::clock::RuntimeClock;
use crate::runtime::{node_loop, NodeInput, NodeStatus, Outbound, Switchboard};
use crate::spec::ProtocolSpec;

/// Routes outbound messages through the switchboard channels.
struct ChannelOutbound {
    from: ServerId,
    board: Switchboard,
}

impl Outbound for ChannelOutbound {
    fn send(&self, to: ServerId, msg: Message) {
        if let Some(inbox) = self.board.lookup(to) {
            // A full/disconnected inbox is indistinguishable from loss —
            // exactly what the protocol is built to tolerate.
            let _ = inbox.send(NodeInput::Peer(self.from, msg));
        }
    }
}

/// Client-facing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// No leader is currently known/reachable.
    NoLeader,
    /// The cluster did not respond within the deadline.
    Timeout,
    /// The node refused the proposal.
    Refused(ProposeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoLeader => f.write_str("no leader available"),
            ClientError::Timeout => f.write_str("request timed out"),
            ClientError::Refused(e) => write!(f, "refused: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The longest any single internal reply wait may park the caller, even
/// when the caller's own deadline is further out: a dead node thread
/// should read as "no answer" in bounded time, not hang a generous
/// client budget.
const MAX_REPLY_WAIT: std::time::Duration = std::time::Duration::from_secs(1);

/// The wait left until `deadline`; `None` once the deadline has passed
/// (callers treat that as their timeout).
fn remaining_until(deadline: std::time::Instant) -> Option<std::time::Duration> {
    let left = deadline.saturating_duration_since(crate::clock::monotonic_now());
    if left.is_zero() {
        return None;
    }
    Some(left)
}

/// A running in-process cluster.
///
/// # Examples
///
/// ```no_run
/// use escape_transport::inproc::InprocCluster;
/// use escape_transport::spec::ProtocolSpec;
///
/// let cluster = InprocCluster::spawn(3, ProtocolSpec::escape_local(), 42);
/// let leader = cluster
///     .wait_for_leader(std::time::Duration::from_secs(3))
///     .expect("a leader must emerge");
/// println!("leader: {leader}");
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct InprocCluster {
    board: Switchboard,
    ids: Vec<ServerId>,
    threads: Vec<JoinHandle<()>>,
}

impl InprocCluster {
    /// Spawns `n` nodes with [`NullStateMachine`]s.
    ///
    /// [`NullStateMachine`]: escape_core::statemachine::NullStateMachine
    pub fn spawn(n: usize, spec: ProtocolSpec, seed: u64) -> Self {
        Self::spawn_with(n, spec, seed, |_| {
            Box::new(escape_core::statemachine::NullStateMachine)
        })
    }

    /// Spawns `n` nodes, building each node's state machine with
    /// `make_sm`.
    pub fn spawn_with(
        n: usize,
        spec: ProtocolSpec,
        seed: u64,
        make_sm: impl Fn(ServerId) -> Box<dyn StateMachine>,
    ) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let ids: Vec<ServerId> = (1..=n as u32).map(ServerId::new).collect();
        let board = Switchboard::new();
        let clock = RuntimeClock::start();
        let mut threads = Vec::with_capacity(n);

        // Register all inboxes first so early messages route.
        let mut inboxes = Vec::with_capacity(n);
        for id in &ids {
            let (tx, rx) = unbounded::<NodeInput>();
            board.register(*id, tx);
            inboxes.push(rx);
        }

        for (id, inbox) in ids.iter().zip(inboxes) {
            let node = escape_core::engine::Node::builder(*id, ids.clone())
                .policy(spec.build_policy(*id, n, seed.wrapping_add(id.get() as u64)))
                .state_machine(make_sm(*id))
                .options(ProtocolSpec::local_options())
                .build();
            let outbound: Arc<dyn Outbound + Sync> = Arc::new(ChannelOutbound {
                from: *id,
                board: board.clone(),
            });
            let handle = std::thread::Builder::new()
                .name(format!("escape-node-{}", id.get()))
                .spawn(move || node_loop(node, inbox, outbound, clock))
                // lint:allow(panic): thread-spawn failure at startup is fatal by design
                .expect("spawn node thread");
            threads.push(handle);
        }

        InprocCluster {
            board,
            ids,
            threads,
        }
    }

    /// All node ids.
    pub fn ids(&self) -> &[ServerId] {
        &self.ids
    }

    /// A status snapshot of `id` (blocks briefly).
    pub fn status(&self, id: ServerId) -> Option<NodeStatus> {
        let deadline = crate::clock::monotonic_now() + MAX_REPLY_WAIT;
        self.status_before(id, deadline)
    }

    /// [`InprocCluster::status`] with the wait clamped to `deadline`: a
    /// wedged node thread (e.g. mid-apply) costs the caller at most its
    /// own remaining budget, never the full default wait.
    fn status_before(
        &self,
        id: ServerId,
        deadline: std::time::Instant,
    ) -> Option<NodeStatus> {
        let inbox = self.board.lookup(id)?;
        let (tx, rx) = bounded(1);
        inbox.send(NodeInput::Query { reply: tx }).ok()?;
        rx.recv_timeout(remaining_until(deadline)?.min(MAX_REPLY_WAIT)).ok()
    }

    /// Polls until some node reports itself leader, up to `timeout`.
    pub fn wait_for_leader(&self, timeout: std::time::Duration) -> Option<ServerId> {
        let deadline = crate::clock::monotonic_now() + timeout;
        while crate::clock::monotonic_now() < deadline {
            for id in &self.ids {
                if let Some(status) = self.status(*id) {
                    if status.role == Role::Leader {
                        return Some(*id);
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        None
    }

    /// Proposes `command` through the current leader and waits for it to be
    /// applied, returning `(index, state-machine response)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on missing leader, refusal, or timeout.
    pub fn propose_and_wait(
        &self,
        command: Bytes,
        timeout: std::time::Duration,
    ) -> Result<(LogIndex, Bytes), ClientError> {
        // Every wait below is clamped to the remaining deadline (this
        // used to hard-code 1 s waits, overshooting a short caller
        // timeout by up to a full second when a node thread stalled).
        let deadline = crate::clock::monotonic_now() + timeout;
        loop {
            if crate::clock::monotonic_now() >= deadline {
                return Err(ClientError::Timeout);
            }
            let Some(leader) = self.find_leader_before(deadline) else {
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            };
            let Some(inbox) = self.board.lookup(leader) else {
                continue;
            };
            let (tx, rx) = bounded(1);
            if inbox
                .send(NodeInput::Write {
                    command: command.clone(),
                    reply: tx,
                })
                .is_err()
            {
                continue;
            }
            let Some(wait) = remaining_until(deadline) else {
                return Err(ClientError::Timeout);
            };
            match rx.recv_timeout(wait) {
                Ok(Ok(applied)) => return Ok(applied),
                Ok(Err(ProposeError::NotLeader { .. })) => {
                    // Leadership moved (or a successor's entry took the
                    // slot); retry.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(_) => return Err(ClientError::Timeout),
            }
        }
    }

    fn find_leader_before(&self, deadline: std::time::Instant) -> Option<ServerId> {
        self.ids
            .iter()
            .filter_map(|id| self.status_before(*id, deadline))
            .find(|s| s.role == Role::Leader)
            .map(|s| s.id)
    }

    /// Simulates a crash of `id` (the thread stops processing and drops
    /// state-dependent volatile data on resume).
    pub fn pause(&self, id: ServerId) {
        if let Some(inbox) = self.board.lookup(id) {
            let _ = inbox.send(NodeInput::Pause);
        }
    }

    /// Recovers a paused node.
    pub fn resume(&self, id: ServerId) {
        if let Some(inbox) = self.board.lookup(id) {
            let _ = inbox.send(NodeInput::Resume);
        }
    }

    /// Stops every node thread and joins them.
    pub fn shutdown(self) {
        for id in &self.ids {
            if let Some(inbox) = self.board.lookup(*id) {
                let _ = inbox.send(NodeInput::Shutdown);
            }
        }
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_nodes_elect_a_leader_in_real_time() {
        let cluster = InprocCluster::spawn(3, ProtocolSpec::escape_local(), 7);
        let leader = cluster
            .wait_for_leader(std::time::Duration::from_secs(5))
            .expect("leader within 5s");
        assert!(cluster.ids().contains(&leader));
        cluster.shutdown();
    }

    #[test]
    fn proposals_commit_and_apply() {
        let cluster = InprocCluster::spawn(3, ProtocolSpec::raft_local(), 11);
        cluster
            .wait_for_leader(std::time::Duration::from_secs(5))
            .expect("leader");
        let (index, _result) = cluster
            .propose_and_wait(
                Bytes::from_static(b"hello"),
                std::time::Duration::from_secs(5),
            )
            .expect("commit");
        assert!(index.get() >= 1);
        cluster.shutdown();
    }

    /// Regression: `propose_and_wait` used to hard-code 1 s internal
    /// waits, so a 200 ms caller timeout could cost over a second when a
    /// node thread stalled (here: wedged inside a slow `apply`). Every
    /// wait is now clamped to the caller's remaining deadline.
    #[test]
    fn propose_and_wait_respects_short_timeouts_when_a_node_wedges() {
        /// Applies sleep long enough to wedge the single node thread
        /// across the whole short-timeout call below.
        #[derive(Debug)]
        struct SlowApply;
        impl escape_core::statemachine::StateMachine for SlowApply {
            fn apply(&mut self, _index: LogIndex, _command: &Bytes) -> Bytes {
                std::thread::sleep(std::time::Duration::from_millis(1500));
                Bytes::new()
            }
        }

        let cluster =
            InprocCluster::spawn_with(1, ProtocolSpec::raft_local(), 3, |_| Box::new(SlowApply));
        let leader = cluster
            .wait_for_leader(std::time::Duration::from_secs(5))
            .expect("single node elects itself");

        // Wedge the node thread: a single-node cluster commits and
        // applies inline while handling the proposal, so its loop sleeps
        // inside `apply` and answers nothing for ~1.5 s.
        let inbox = cluster.board.lookup(leader).expect("leader inbox");
        let (tx, _rx) = bounded(1);
        inbox
            .send(NodeInput::Propose {
                command: Bytes::from_static(b"wedge"),
                reply: tx,
            })
            .expect("enqueue wedge");
        std::thread::sleep(std::time::Duration::from_millis(100));

        let start = crate::clock::monotonic_now();
        let result = cluster.propose_and_wait(
            Bytes::from_static(b"short-deadline"),
            std::time::Duration::from_millis(200),
        );
        let elapsed = start.elapsed();
        assert_eq!(result, Err(ClientError::Timeout));
        assert!(
            elapsed < std::time::Duration::from_millis(700),
            "200 ms timeout overshot to {elapsed:?} — internal waits not \
             clamped to the caller's deadline"
        );
        cluster.shutdown();
    }

    #[test]
    fn leader_failover_in_real_time() {
        let cluster = InprocCluster::spawn(3, ProtocolSpec::escape_local(), 23);
        let first = cluster
            .wait_for_leader(std::time::Duration::from_secs(5))
            .expect("first leader");
        cluster.pause(first);
        // A replacement must emerge among the remaining two.
        let deadline = crate::clock::monotonic_now() + std::time::Duration::from_secs(5);
        let second = loop {
            assert!(crate::clock::monotonic_now() < deadline, "no failover");
            let found = cluster
                .ids()
                .iter()
                .filter(|id| **id != first)
                .filter_map(|id| cluster.status(*id))
                .find(|s| s.role == Role::Leader);
            if let Some(s) = found {
                break s.id;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert_ne!(second, first);
        // The old leader rejoins as a follower.
        cluster.resume(first);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let status = cluster.status(first).expect("status");
        assert_ne!(status.role, Role::Leader, "deposed leader must not lead");
        cluster.shutdown();
    }
}
