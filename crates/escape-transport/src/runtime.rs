//! The real-time node loop shared by every transport.
//!
//! One OS thread per consensus node: it multiplexes an inbox channel
//! (peer messages + client commands + control) with the engine's armed
//! timers via `recv_timeout`, and pushes outbound messages through an
//! [`Outbound`] implementation (channel mesh, TCP mesh, …).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use escape_core::engine::{Action, Node, ProposeError, TimerKind, TimerToken};
use escape_core::message::Message;
use escape_core::metrics::NodeMetrics;
use escape_core::time::Time;
use escape_core::types::{LogIndex, Role, ServerId, Term};

use crate::clock::RuntimeClock;

/// Sends messages to peers on behalf of a node.
pub trait Outbound: Send + 'static {
    /// Best-effort delivery of `msg` to `to` (errors are the network's
    /// problem; the protocol tolerates loss).
    fn send(&self, to: ServerId, msg: Message);

    /// Total outbound frames this node has dropped under backpressure
    /// (bounded per-peer queues shed oldest-first). Transports without a
    /// bounded queue report zero.
    fn frames_dropped(&self) -> u64 {
        0
    }

    /// Outbound frames dropped to one specific peer, for the engine's
    /// per-peer backpressure clamp. Transports without a bounded queue
    /// report zero.
    fn frames_dropped_to(&self, _to: ServerId) -> u64 {
        0
    }
}

/// A snapshot of a node's externally visible state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node.
    pub id: ServerId,
    /// Role right now.
    pub role: Role,
    /// Current term.
    pub term: Term,
    /// Last known leader.
    pub leader_hint: Option<ServerId>,
    /// Commit index.
    pub commit_index: LogIndex,
    /// Applied index.
    pub last_applied: LogIndex,
    /// Log length.
    pub log_len: usize,
    /// The engine's protocol counters at snapshot time — including the
    /// replication pipeline's batch-size and commit-latency histograms.
    pub metrics: NodeMetrics,
    /// Outbound frames this node's transport shed under backpressure.
    pub frames_dropped: u64,
}

/// Where a one-hop client write's outcome goes: the assigned log index
/// plus the state machine's result once the entry applied, or why it
/// never will here.
pub type WriteReply = Sender<Result<(LogIndex, Bytes), ProposeError>>;

/// Everything a node thread can receive.
pub enum NodeInput {
    /// A protocol message from a peer.
    Peer(ServerId, Message),
    /// A client command; the reply carries the assigned index or the
    /// refusal.
    Propose {
        /// Encoded state-machine command.
        command: Bytes,
        /// Where to send the outcome.
        reply: Sender<Result<LogIndex, ProposeError>>,
    },
    /// A client command answered in one hop: the node registers the apply
    /// waiter when it accepts the proposal, and the reply carries the
    /// index and the apply result together. Refusals, and entries that a
    /// successor's entry replaced at the same index, answer
    /// [`ProposeError::NotLeader`].
    Write {
        /// Encoded state-machine command.
        command: Bytes,
        /// Where to send the outcome.
        reply: WriteReply,
    },
    /// A batch of linearizable read-only queries, answered off the log via
    /// the engine's ReadIndex/lease path; the reply carries one response
    /// per query, in order, or the leadership refusal.
    Read {
        /// Encoded state-machine queries.
        queries: Vec<Bytes>,
        /// Where to send the outcome.
        reply: Sender<Result<Vec<Bytes>, ProposeError>>,
    },
    /// Ask for a status snapshot.
    Query {
        /// Where to send the snapshot.
        reply: Sender<NodeStatus>,
    },
    /// Register interest in the application of `index`; the reply fires
    /// with the state machine's response once applied. If this node
    /// accepted `index` under a term other than the applied entry's, the
    /// reply is dropped instead (the proposal lost its slot).
    AwaitApplied {
        /// The awaited log index.
        index: LogIndex,
        /// Where to send the apply result.
        reply: Sender<Bytes>,
    },
    /// Simulated crash: drop all input and timers until `Resume`.
    Pause,
    /// Recover from `Pause` (the engine's volatile state resets, persistent
    /// state survives — same semantics as the simulator's restart).
    Resume,
    /// Stop the thread.
    Shutdown,
}

impl NodeInput {
    /// Splits a proposal ([`NodeInput::Propose`] / [`NodeInput::Write`])
    /// into its command and reply; any other input comes back unchanged.
    fn into_proposal(self) -> Result<(Bytes, Proposer), NodeInput> {
        match self {
            NodeInput::Propose { command, reply } => Ok((command, Proposer::Index(reply))),
            NodeInput::Write { command, reply } => Ok((command, Proposer::Write(reply))),
            other => Err(other),
        }
    }
}

/// The reply half of a drained proposal.
enum Proposer {
    /// [`NodeInput::Propose`]: answered with the index at acceptance.
    Index(Sender<Result<LogIndex, ProposeError>>),
    /// [`NodeInput::Write`]: answered once the index applies.
    Write(WriteReply),
}

impl Proposer {
    fn refuse(self, error: ProposeError) {
        match self {
            Proposer::Index(reply) => drop(reply.send(Err(error))),
            Proposer::Write(reply) => drop(reply.send(Err(error))),
        }
    }
}

/// Who waits on one log index: the term this node accepted a proposal
/// there under (if it did), and the replies owed once it applies.
#[derive(Default)]
struct ApplyWaiters {
    term: Option<Term>,
    writes: Vec<WriteReply>,
    awaits: Vec<Sender<Bytes>>,
}

impl ApplyWaiters {
    /// The entry this node accepted here lost its slot: writes redirect,
    /// awaits are dropped (their callers see the channel close).
    fn supersede(self, hint: Option<ServerId>) {
        for reply in self.writes {
            let _ = reply.send(Err(ProposeError::NotLeader { hint }));
        }
    }
}

/// The node loop's bookkeeping around the engine: armed timers and every
/// client reply waiting on an engine outcome.
struct LoopState {
    outbound: Arc<dyn Outbound + Sync>,
    timers: BTreeMap<TimerKind, (TimerToken, Time)>,
    /// Replies waiting for an index to apply, in index order.
    apply_waiters: BTreeMap<LogIndex, ApplyWaiters>,
    /// Pending read batches, keyed by the engine's batch id; each client's
    /// reply channel remembers how many of the batch's queries are its own.
    read_waiters: ReadWaiters,
    /// Recent apply results, so an [`NodeInput::AwaitApplied`] that
    /// registers just after the apply still gets its response (bounded
    /// window). `None` marks an index whose entry superseded the one this
    /// node accepted there.
    recent_results: BTreeMap<LogIndex, Option<Bytes>>,
    paused: bool,
}

/// Runs a node until shutdown. This is the body of every transport's
/// per-node thread.
pub fn node_loop(
    mut node: Node,
    inbox: Receiver<NodeInput>,
    outbound: Arc<dyn Outbound + Sync>,
    clock: RuntimeClock,
) {
    let mut state = LoopState {
        outbound,
        timers: BTreeMap::new(),
        apply_waiters: BTreeMap::new(),
        read_waiters: HashMap::new(),
        recent_results: BTreeMap::new(),
        paused: false,
    };
    // Per-peer dropped-frame counters as of the last backpressure poll.
    let peers: Vec<ServerId> = node.peers().to_vec();
    let mut drops_seen: BTreeMap<ServerId, u64> = BTreeMap::new();

    let actions = node.start(clock.now());
    state.absorb(&node, actions);

    loop {
        // Fire every due timer before touching the inbox: a node whose
        // inbox never drains (a busy leader, a follower being streamed a
        // log) must still heartbeat and notice election deadlines —
        // firing only when `recv_timeout` times out would starve them.
        if !state.paused {
            // Backpressure hookup: a peer whose outbound queue shed
            // frames since the last poll gets its pipelining window
            // clamped — blindly topping up credit would feed the drop.
            for &peer in &peers {
                let dropped = state.outbound.frames_dropped_to(peer);
                let seen = drops_seen.entry(peer).or_insert(0);
                if dropped > *seen {
                    *seen = dropped;
                    node.note_backpressure(peer);
                }
            }

            let now = clock.now();
            let due: Vec<(TimerKind, TimerToken)> = state
                .timers
                .iter()
                .filter(|(_, (_, d))| *d <= now)
                .map(|(k, (t, _))| (*k, *t))
                .collect();
            for (kind, token) in due {
                // An earlier handler in this batch may have re-armed this
                // kind with a fresh token; firing the snapshotted one would
                // delete the new timer and no-op in the engine.
                if state.timers.get(&kind).map(|(t, _)| *t) != Some(token) {
                    continue;
                }
                state.timers.remove(&kind);
                let actions = node.handle_timer(token, clock.now());
                state.absorb(&node, actions);
            }
        }

        // Wait for the earliest timer or the next input, whichever first.
        let next_deadline = state.timers.values().map(|(_, d)| *d).min();
        let wait = match next_deadline {
            Some(deadline) if !state.paused => {
                clock.until(deadline).unwrap_or(std::time::Duration::ZERO)
            }
            // Paused nodes and idle nodes just park on the inbox.
            _ => std::time::Duration::from_millis(50),
        };

        let first = match inbox.recv_timeout(wait) {
            Ok(input) => input,
            // Due timers fire at the top of the next iteration.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // `carry` holds the non-proposal input a proposal drain pulled off
        // the inbox; it is processed in the same pass, in arrival order.
        let mut carry = Some(first);
        while let Some(input) = carry.take() {
            let input = match input.into_proposal() {
                Ok(proposal) => {
                    carry = state.propose(&mut node, proposal, &inbox, &clock);
                    continue;
                }
                Err(input) => input,
            };
            match input {
                NodeInput::Shutdown => return,
                NodeInput::Pause => {
                    state.paused = true;
                    state.timers.clear();
                    for (_, waiters) in std::mem::take(&mut state.apply_waiters) {
                        waiters.supersede(None);
                    }
                    for (_, splits) in state.read_waiters.drain() {
                        for (reply, _) in splits {
                            let _ = reply.send(Err(ProposeError::NotLeader { hint: None }));
                        }
                    }
                }
                NodeInput::Resume => {
                    if state.paused {
                        state.paused = false;
                        let actions = node.restart(clock.now());
                        state.absorb(&node, actions);
                    }
                }
                NodeInput::Peer(from, msg) => {
                    if !state.paused {
                        let actions = node.handle_message(from, msg, clock.now());
                        state.absorb(&node, actions);
                    }
                }
                NodeInput::Read { queries, reply } => {
                    // Read-queue drain, mirroring the proposal drain: every
                    // read batch already waiting in the inbox shares one
                    // engine confirmation round. A non-read input ends the
                    // drain and is carried into the next pass.
                    let mut queries = queries;
                    let mut splits = vec![(reply, queries.len())];
                    while queries.len() < PROPOSE_BATCH_MAX {
                        match inbox.try_recv() {
                            Ok(NodeInput::Read { queries: more, reply }) => {
                                splits.push((reply, more.len()));
                                queries.extend(more);
                            }
                            Ok(other) => {
                                carry = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    if state.paused {
                        for (reply, _) in splits {
                            let _ = reply.send(Err(ProposeError::NotLeader { hint: None }));
                        }
                    } else {
                        match node.read_batch(queries, clock.now()) {
                            Ok((batch, actions)) => {
                                // Register before absorbing: a lease-path
                                // batch is already ReadReady in `actions`.
                                state.read_waiters.insert(batch, splits);
                                state.absorb(&node, actions);
                            }
                            Err(e) => {
                                for (reply, _) in splits {
                                    let _ = reply.send(Err(e));
                                }
                            }
                        }
                    }
                }
                NodeInput::Query { reply } => {
                    let _ = reply.send(NodeStatus {
                        id: node.id(),
                        role: if state.paused {
                            Role::Follower
                        } else {
                            node.role()
                        },
                        term: node.current_term(),
                        leader_hint: node.leader_hint(),
                        commit_index: node.commit_index(),
                        last_applied: node.last_applied(),
                        log_len: node.log().len(),
                        metrics: *node.metrics(),
                        frames_dropped: state.outbound.frames_dropped(),
                    });
                }
                NodeInput::AwaitApplied { index, reply } => {
                    if node.last_applied() >= index {
                        // Already applied: serve from the recent-results
                        // window (empty payload if it aged out or was a
                        // no-op slot; dropped if superseded).
                        match state.recent_results.get(&index) {
                            Some(None) => {}
                            Some(Some(result)) => drop(reply.send(result.clone())),
                            None => drop(reply.send(Bytes::new())),
                        }
                    } else {
                        state
                            .apply_waiters
                            .entry(index)
                            .or_default()
                            .awaits
                            .push(reply);
                    }
                }
                NodeInput::Propose { .. } | NodeInput::Write { .. } => {
                    // Drained above by `into_proposal`.
                }
            }
        }
    }
}

/// Cap on proposals drained into one engine batch: bounds both the batch
/// latency (nothing waits behind more than this many queued commands) and
/// the size of the single `AppendEntries` window a batch produces.
pub const PROPOSE_BATCH_MAX: usize = 256;

/// How many apply results the node loop keeps for late [`NodeInput::AwaitApplied`]
/// registrations.
const RESULT_WINDOW: usize = 1024;

/// Pending linearizable read batches: engine batch id → the client reply
/// channels, each with its share of the batch's queries (in order).
type ReadWaiters = HashMap<u64, Vec<(Sender<Result<Vec<Bytes>, ProposeError>>, usize)>>;

impl LoopState {
    /// Proposal-queue drain: grabs every proposal already waiting in the
    /// inbox (bounded) so one engine batch — one WAL barrier, one fan-out —
    /// covers them all, then runs the engine's two proposal halves with
    /// the sends transmitted in between, so the followers' receive, fsync
    /// and ack overlap the leader's own barrier. Returns the non-proposal
    /// input that ended the drain, to be processed next in arrival order.
    fn propose(
        &mut self,
        node: &mut Node,
        first: (Bytes, Proposer),
        inbox: &Receiver<NodeInput>,
        clock: &RuntimeClock,
    ) -> Option<NodeInput> {
        let (command, proposer) = first;
        let mut commands = vec![command];
        let mut proposers = vec![proposer];
        let mut carry = None;
        while commands.len() < PROPOSE_BATCH_MAX {
            match inbox.try_recv().map(NodeInput::into_proposal) {
                Ok(Ok((command, proposer))) => {
                    commands.push(command);
                    proposers.push(proposer);
                }
                Ok(Err(other)) => {
                    carry = Some(other);
                    break;
                }
                Err(_) => break,
            }
        }
        if self.paused {
            for proposer in proposers {
                proposer.refuse(ProposeError::NotLeader { hint: None });
            }
            return carry;
        }
        match node.propose_append(commands, clock.now()) {
            Ok((indexes, actions)) => {
                // Waiters first (a single-node barrier applies at once),
                // then the sends, then the index answers and the barrier.
                let term = node.current_term();
                let mut accepted = Vec::new();
                for (proposer, index) in proposers.into_iter().zip(indexes) {
                    let waiters = self.accept(index, term, node.leader_hint());
                    match proposer {
                        Proposer::Index(reply) => accepted.push((reply, index)),
                        Proposer::Write(reply) => waiters.writes.push(reply),
                    }
                }
                self.absorb(node, actions);
                for (reply, index) in accepted {
                    let _ = reply.send(Ok(index));
                }
                let actions = node.sync_barrier(clock.now());
                self.absorb(node, actions);
            }
            Err(e) => {
                for proposer in proposers {
                    proposer.refuse(e);
                }
            }
        }
        carry
    }

    /// Records that this node accepted a proposal at `index` under `term`.
    /// Waiters left over from an earlier acceptance of the same index
    /// under another term lost their entry: an installed snapshot cut the
    /// log back below it before it ever applied here.
    fn accept(&mut self, index: LogIndex, term: Term, hint: Option<ServerId>) -> &mut ApplyWaiters {
        let waiters = self.apply_waiters.entry(index).or_default();
        if waiters.term.is_some_and(|t| t != term) {
            std::mem::take(waiters).supersede(hint);
        }
        waiters.term = Some(term);
        waiters
    }

    fn absorb(&mut self, node: &Node, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg, .. } => self.outbound.send(to, msg),
                Action::SetTimer { token, deadline } => {
                    self.timers.insert(token.kind, (token, deadline));
                }
                Action::Applied {
                    index,
                    term,
                    result,
                } => self.applied(index, term, result, node.leader_hint()),
                Action::ReadReady { batch, results } => {
                    if let Some(splits) = self.read_waiters.remove(&batch) {
                        let mut results = results.into_iter();
                        for (reply, count) in splits {
                            let chunk: Vec<Bytes> = results.by_ref().take(count).collect();
                            let _ = reply.send(Ok(chunk));
                        }
                    }
                }
                Action::ReadFailed { batch, error } => {
                    if let Some(splits) = self.read_waiters.remove(&batch) {
                        for (reply, _) in splits {
                            let _ = reply.send(Err(error));
                        }
                    }
                }
                Action::BecameCandidate { .. }
                | Action::BecameLeader { .. }
                | Action::BecameFollower { .. }
                | Action::Committed { .. } => {}
            }
        }
    }

    /// Answers everyone waiting on `index`, which just applied an entry of
    /// `term`. A proposal this node accepted there under another term was
    /// replaced by a successor's entry, so its waiters must not get this
    /// result. Waiters on lower indexes never saw a command apply there
    /// (a no-op took the slot, or a snapshot skipped it); they are
    /// released as superseded.
    fn applied(&mut self, index: LogIndex, term: Term, result: Bytes, hint: Option<ServerId>) {
        let mut current = ApplyWaiters::default();
        while let Some(entry) = self.apply_waiters.first_entry() {
            if *entry.key() > index {
                break;
            }
            let (at, waiters) = entry.remove_entry();
            if at == index {
                current = waiters;
            } else {
                waiters.supersede(hint);
            }
        }
        let superseded = current.term.is_some_and(|t| t != term);
        if superseded {
            current.supersede(hint);
        } else {
            for reply in current.writes {
                let _ = reply.send(Ok((index, result.clone())));
            }
            for reply in current.awaits {
                let _ = reply.send(result.clone());
            }
        }
        self.recent_results
            .insert(index, (!superseded).then_some(result));
        while self.recent_results.len() > RESULT_WINDOW {
            if self.recent_results.pop_first().is_none() {
                break;
            }
        }
    }
}

/// A thread-safe registry of node inboxes — the "switchboard" transports
/// route through.
#[derive(Clone, Default)]
pub struct Switchboard {
    inner: Arc<Mutex<HashMap<ServerId, Sender<NodeInput>>>>,
}

impl Switchboard {
    /// An empty switchboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `id`'s inbox.
    pub fn register(&self, id: ServerId, sender: Sender<NodeInput>) {
        self.inner.lock().insert(id, sender);
    }

    /// The inbox for `id`, if registered.
    pub fn lookup(&self, id: ServerId) -> Option<Sender<NodeInput>> {
        self.inner.lock().get(&id).cloned()
    }

    /// All registered ids.
    pub fn ids(&self) -> Vec<ServerId> {
        self.inner.lock().keys().copied().collect()
    }
}

impl std::fmt::Debug for Switchboard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switchboard")
            .field("nodes", &self.inner.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration as StdDuration;

    use crossbeam::channel::{bounded, unbounded};
    use escape_core::engine::Options;
    use escape_core::log::{Entry, Payload};
    use escape_core::message::{AppendEntriesArgs, RequestVoteReply};
    use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
    use escape_core::statemachine::StateMachine;
    use escape_core::time::Duration;

    /// Answers every command with the command itself, so a reply shows
    /// whose entry it came from.
    #[derive(Debug)]
    struct Echo;

    impl StateMachine for Echo {
        fn apply(&mut self, _index: LogIndex, command: &Bytes) -> Bytes {
            command.clone()
        }
    }

    /// Hands every outbound message to the test.
    struct Tap(Sender<(ServerId, Message)>);

    impl Outbound for Tap {
        fn send(&self, to: ServerId, msg: Message) {
            let _ = self.0.send((to, msg));
        }
    }

    /// Runs S1 of a 3-server cluster in a node loop whose peers are the
    /// test: S1 campaigns once after 20 ms, then never again for a minute.
    fn spawn_s1() -> (
        Sender<NodeInput>,
        Receiver<(ServerId, Message)>,
        std::thread::JoinHandle<()>,
    ) {
        let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        let node = Node::builder(ids[0], ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_millis(20), Duration::from_secs(60)]),
            ))))
            .state_machine(Box::new(Echo))
            .options(Options {
                vote_retry_interval: None,
                ..Options::default()
            })
            .build();
        let (inbox_tx, inbox_rx) = unbounded();
        let (tap_tx, tap_rx) = unbounded();
        let outbound: Arc<dyn Outbound + Sync> = Arc::new(Tap(tap_tx));
        let handle = std::thread::spawn(move || {
            node_loop(node, inbox_rx, outbound, RuntimeClock::start());
        });
        (inbox_tx, tap_rx, handle)
    }

    /// The first message matching `pick` that S1 sends.
    fn next_sent<T>(
        tap: &Receiver<(ServerId, Message)>,
        mut pick: impl FnMut(&Message) -> Option<T>,
    ) -> T {
        loop {
            let (_, msg) = tap
                .recv_timeout(StdDuration::from_secs(5))
                .expect("S1 went quiet");
            if let Some(found) = pick(&msg) {
                return found;
            }
        }
    }

    /// Regression: apply waiters were keyed by index alone, so a deposed
    /// leader whose accepted write at index k was replaced by a
    /// successor's command at k answered `Written` with the successor's
    /// result — a lost write reported as done. The waiter now remembers
    /// the term it was accepted under and redirects instead.
    #[test]
    fn write_replaced_by_a_successors_entry_is_not_acknowledged() {
        let (inbox, tap, handle) = spawn_s1();
        let term = next_sent(&tap, |msg| match msg {
            Message::RequestVote(args) => Some(args.term),
            _ => None,
        });
        inbox
            .send(NodeInput::Peer(
                ServerId::new(2),
                Message::RequestVoteReply(RequestVoteReply {
                    term,
                    vote_granted: true,
                }),
            ))
            .unwrap();

        // S1 leads; its no-op sits at index 1, our write lands at index 2.
        let (tx, written) = bounded(1);
        inbox
            .send(NodeInput::Write {
                command: Bytes::from_static(b"mine"),
                reply: tx,
            })
            .unwrap();
        next_sent(&tap, |msg| match msg {
            Message::AppendEntries(args)
                if args.entries.iter().any(|e| e.index == LogIndex::new(2)) =>
            {
                Some(())
            }
            _ => None,
        });
        let (tx, awaited) = bounded(1);
        inbox
            .send(NodeInput::AwaitApplied {
                index: LogIndex::new(2),
                reply: tx,
            })
            .unwrap();

        // S3 wins the next term without S1's entries and commits its own
        // command at index 2; S1 adopts that log and applies it.
        let successor = term.advanced_by(1);
        let entry = |index: u64, payload: Payload| Entry {
            term: successor,
            index: LogIndex::new(index),
            payload,
        };
        inbox
            .send(NodeInput::Peer(
                ServerId::new(3),
                Message::AppendEntries(AppendEntriesArgs {
                    term: successor,
                    leader_id: ServerId::new(3),
                    prev_log_index: LogIndex::ZERO,
                    prev_log_term: Term::ZERO,
                    entries: vec![
                        entry(1, Payload::Noop),
                        entry(2, Payload::Command(Bytes::from_static(b"theirs"))),
                    ],
                    leader_commit: LogIndex::new(2),
                    new_config: None,
                    seq: 0,
                }),
            ))
            .unwrap();

        let outcome = written
            .recv_timeout(StdDuration::from_secs(5))
            .expect("the write must be answered");
        assert_eq!(
            outcome,
            Err(ProposeError::NotLeader {
                hint: Some(ServerId::new(3))
            }),
            "a replaced write must redirect, never report the other entry's result"
        );
        assert!(
            awaited.recv_timeout(StdDuration::from_secs(5)).is_err(),
            "AwaitApplied on the replaced index must not get the other result"
        );

        let (tx, status) = bounded(1);
        inbox.send(NodeInput::Query { reply: tx }).unwrap();
        let status = status.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(
            status.last_applied,
            LogIndex::new(2),
            "S1 applied S3's entry"
        );
        inbox.send(NodeInput::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// The one-hop write on a single-node cluster: one reply carries the
    /// index and the state machine's result.
    #[test]
    fn write_reply_carries_index_and_result() {
        let id = ServerId::new(1);
        let node = Node::builder(id, vec![id])
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_millis(5)]),
            ))))
            .state_machine(Box::new(Echo))
            .build();
        let (inbox, rx) = unbounded();
        let outbound: Arc<dyn Outbound + Sync> = Arc::new(Tap(unbounded().0));
        let handle =
            std::thread::spawn(move || node_loop(node, rx, outbound, RuntimeClock::start()));
        let outcome = loop {
            let (tx, reply) = bounded(1);
            inbox
                .send(NodeInput::Write {
                    command: Bytes::from_static(b"solo"),
                    reply: tx,
                })
                .unwrap();
            match reply.recv_timeout(StdDuration::from_secs(5)).unwrap() {
                Err(ProposeError::NotLeader { .. }) => {
                    std::thread::sleep(StdDuration::from_millis(5));
                }
                Ok(outcome) => break outcome,
            }
        };
        assert_eq!(outcome, (LogIndex::new(2), Bytes::from_static(b"solo")));
        inbox.send(NodeInput::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn switchboard_registers_and_looks_up() {
        let board = Switchboard::new();
        assert!(board.lookup(ServerId::new(1)).is_none());
        let (tx, rx) = crossbeam::channel::unbounded();
        board.register(ServerId::new(1), tx);
        let found = board.lookup(ServerId::new(1)).expect("registered");
        found.send(NodeInput::Pause).unwrap();
        assert!(matches!(rx.recv().unwrap(), NodeInput::Pause));
        assert_eq!(board.ids(), vec![ServerId::new(1)]);
    }

    #[test]
    fn switchboard_clones_share_state() {
        let board = Switchboard::new();
        let clone = board.clone();
        let (tx, _rx) = crossbeam::channel::unbounded();
        clone.register(ServerId::new(7), tx);
        assert!(board.lookup(ServerId::new(7)).is_some());
        assert!(format!("{board:?}").contains("nodes"));
    }

    #[test]
    fn node_status_is_comparable() {
        let a = NodeStatus {
            id: ServerId::new(1),
            role: Role::Follower,
            term: Term::ZERO,
            leader_hint: None,
            commit_index: LogIndex::ZERO,
            last_applied: LogIndex::ZERO,
            log_len: 0,
            metrics: NodeMetrics::new(),
            frames_dropped: 0,
        };
        assert_eq!(a.clone(), a);
    }
}
