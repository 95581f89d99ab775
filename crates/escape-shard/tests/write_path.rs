//! The client write path on the real TCP stack: one-hop write replies
//! under deep pipelining, and the leader's WAL barrier overlapping the
//! followers' (Ongaro, *Consensus*, 2014, §10.2.1).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::statemachine::StateMachine;
use escape_core::storage::Storage;
use escape_core::types::{GroupId, LogIndex, Role, ServerId, Term};
use escape_kv::{KvCommand, KvResponse, KvStateMachine};
use escape_shard::{ShardMap, ShardSpawnOptions, ShardedNode};
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::{loopback_listeners, StorageHook};
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Decode, Encode, FrameReader, RequestBody,
    ResponseBody, CLIENT_HELLO,
};

/// A raw pipelined client connection speaking the wire protocol.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut hello = BytesMut::new();
        write_frame(&mut hello, CLIENT_HELLO);
        stream.write_all(&hello).unwrap();
        Conn {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send_write(&mut self, id: u64, group: GroupId, command: &KvCommand) {
        let request = ClientRequest {
            id,
            body: RequestBody::Write {
                group,
                key: Bytes::copy_from_slice(command.key().as_bytes()),
                command: command.encode(),
            },
        };
        let mut frame = BytesMut::new();
        write_frame(&mut frame, &request.to_bytes());
        self.stream.write_all(&frame).unwrap();
    }

    fn recv(&mut self) -> ClientResponse {
        let mut chunk = [0u8; 16 * 1024];
        self.stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            if let Some(mut frame) = self.reader.next_frame().expect("well-formed stream") {
                return ClientResponse::decode(&mut frame).expect("a response");
            }
            let n = self.stream.read(&mut chunk).expect("response within 10 s");
            assert!(n > 0, "server closed the connection");
            self.reader.extend(&chunk[..n]);
        }
    }
}

fn spawn(
    n: usize,
    spec: ProtocolSpec,
    data: Option<&Path>,
    hook: Option<StorageHook>,
) -> (Vec<Option<ShardedNode>>, HashMap<ServerId, SocketAddr>) {
    let (addrs, listeners): (
        HashMap<ServerId, SocketAddr>,
        HashMap<ServerId, TcpListener>,
    ) = loopback_listeners(n);
    let nodes = (1..=n as u32)
        .map(|i| {
            let id = ServerId::new(i);
            let dir = data.map(|d| d.join(format!("s{i}")));
            Some(ShardedNode::spawn_with(
                id,
                listeners[&id].try_clone().expect("clone listener"),
                addrs.clone(),
                spec,
                0xD15C,
                ShardMap::uniform(1),
                |_| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
                dir.as_deref(),
                ShardSpawnOptions {
                    storage_hook: hook.clone(),
                    serve_clients: true,
                },
            ))
        })
        .collect();
    (nodes, addrs)
}

/// The index of the group's leader once exactly one server reports it.
fn wait_for_leader(nodes: &[Option<ShardedNode>], group: GroupId) -> usize {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(i) = nodes.iter().position(|n| {
            n.as_ref()
                .and_then(|n| n.status(group))
                .is_some_and(|s| s.role == Role::Leader)
        }) {
            return i;
        }
        assert!(Instant::now() < deadline, "no leader within 15 s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(nodes: Vec<Option<ShardedNode>>) {
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("escape-write-path-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// More writes in flight on one connection than the node loop keeps
/// recent apply results for (1024): each must still be answered with its
/// own result. Writes used to learn their result with a second
/// `AwaitApplied` hop, and under deep pipelining the result had aged out
/// of the window by then (an empty `Written`).
#[test]
fn deeply_pipelined_writes_each_get_their_own_result() {
    const WRITES: u64 = 1500;
    let (nodes, addrs) = spawn(1, ProtocolSpec::escape_local(), None, None);
    let group = ShardMap::uniform(1).groups().next().unwrap();
    let leader = wait_for_leader(&nodes, group);
    let mut conn = Conn::open(addrs[&ServerId::new(leader as u32 + 1)]);
    // Even ids put a fresh value; odd ids read it back through the log,
    // so every odd result names the write just before it.
    let command = |id: u64| {
        if id % 2 == 0 {
            KvCommand::Put {
                key: "k".into(),
                value: Bytes::from(format!("v{id}")),
            }
        } else {
            KvCommand::Get { key: "k".into() }
        }
    };
    for id in 0..WRITES {
        conn.send_write(id, group, &command(id));
    }
    let mut results = HashMap::new();
    for _ in 0..WRITES {
        let response = conn.recv();
        let ResponseBody::Written { result, .. } = response.body else {
            panic!("write {} not written: {:?}", response.id, response.body);
        };
        assert!(!result.is_empty(), "write {} lost its result", response.id);
        results.insert(response.id, KvResponse::decode(&result).unwrap());
    }
    for id in 0..WRITES {
        let expected = if id % 2 == 0 {
            KvResponse::Ok
        } else {
            KvResponse::Value(Some(Bytes::from(format!("v{}", id - 1))))
        };
        assert_eq!(results[&id], expected, "write {id}");
    }
    shutdown(nodes);
}

/// How long a slowed storage barrier takes.
const SLOW_SYNC: Duration = Duration::from_millis(300);

/// A WAL whose barriers sleep [`SLOW_SYNC`] while its server is armed —
/// but only barriers that cover log entries, so heartbeats and
/// configuration adoptions keep their normal pace.
#[derive(Debug)]
struct SlowSync {
    inner: Box<dyn Storage>,
    armed: Arc<AtomicBool>,
    entries: bool,
}

impl Storage for SlowSync {
    fn persist_hard_state(
        &mut self,
        term: Term,
        voted_for: Option<ServerId>,
    ) -> std::io::Result<()> {
        self.inner.persist_hard_state(term, voted_for)
    }

    fn persist_entry(&mut self, entry: &Entry) -> std::io::Result<()> {
        self.entries = true;
        self.inner.persist_entry(entry)
    }

    fn persist_entries(&mut self, entries: &[Entry]) -> std::io::Result<()> {
        self.entries = true;
        self.inner.persist_entries(entries)
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> std::io::Result<()> {
        self.entries |= !entries.is_empty();
        self.inner.persist_appended(prev_index, prev_term, entries)
    }

    fn persist_config(&mut self, config: Configuration) -> std::io::Result<()> {
        self.inner.persist_config(config)
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> std::io::Result<()> {
        self.inner.persist_snapshot(index, term, data, tail)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if std::mem::take(&mut self.entries) && self.armed.load(Ordering::Acquire) {
            std::thread::sleep(SLOW_SYNC);
        }
        self.inner.sync()
    }
}

/// A durable 3-server group whose servers' entry barriers can be slowed
/// one by one (`armed`, indexed like `nodes`).
struct SlowCluster {
    nodes: Vec<Option<ShardedNode>>,
    addrs: HashMap<ServerId, SocketAddr>,
    armed: Vec<Arc<AtomicBool>>,
    dir: PathBuf,
}

/// Spawns a [`SlowCluster`]. Election timeouts start at 1 s, so a node
/// thread stalled in a slowed barrier never looks dead to its peers.
fn slow_cluster(tag: &str) -> SlowCluster {
    let armed: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let flags = armed.clone();
    let hook: StorageHook = Arc::new(move |server, _group, wal| {
        Box::new(SlowSync {
            inner: Box::new(wal),
            armed: Arc::clone(&flags[server.index()]),
            entries: false,
        }) as Box<dyn Storage>
    });
    let dir = scratch_dir(tag);
    let spec = ProtocolSpec::Escape {
        base_time: escape_core::time::Duration::from_millis(1000),
        spacing: escape_core::time::Duration::from_millis(200),
    };
    let (nodes, addrs) = spawn(3, spec, Some(&dir), Some(hook));
    SlowCluster {
        nodes,
        addrs,
        armed,
        dir,
    }
}

/// One write through `leader`, timed from send to `Written`.
fn timed_write(addr: SocketAddr, group: GroupId, id: u64) -> Duration {
    let mut conn = Conn::open(addr);
    let started = Instant::now();
    conn.send_write(
        id,
        group,
        &KvCommand::Put {
            key: format!("k{id}"),
            value: Bytes::from_static(b"v"),
        },
    );
    let response = conn.recv();
    let elapsed = started.elapsed();
    assert!(
        matches!(response.body, ResponseBody::Written { .. }),
        "write {id}: {:?}",
        response.body
    );
    elapsed
}

/// The leader ships a batch before its own barrier, so its barrier and
/// the followers' run side by side: with every server's entry barrier
/// slowed to 300 ms, a write takes about one barrier, not the two in
/// series it took when the leader synced before sending.
#[test]
fn leader_and_follower_barriers_overlap() {
    let SlowCluster {
        nodes,
        addrs,
        armed,
        dir,
    } = slow_cluster("overlap");
    let group = ShardMap::uniform(1).groups().next().unwrap();
    let leader = wait_for_leader(&nodes, group);
    let addr = addrs[&ServerId::new(leader as u32 + 1)];
    timed_write(addr, group, 0); // warm the connection path
    for flag in &armed {
        flag.store(true, Ordering::Release);
    }
    let elapsed = timed_write(addr, group, 1);
    for flag in &armed {
        flag.store(false, Ordering::Release);
    }
    assert!(
        elapsed >= SLOW_SYNC,
        "every quorum includes a slowed barrier: {elapsed:?}"
    );
    assert!(
        elapsed < SLOW_SYNC * 2 - Duration::from_millis(100),
        "the barriers ran in series: {elapsed:?}"
    );
    shutdown(nodes);
    let _ = std::fs::remove_dir_all(dir);
}

/// With one follower down, the leader's own copy is part of every
/// quorum, so the ack must wait for its barrier even though the live
/// follower acked long before.
#[test]
fn leader_barrier_gates_the_ack_when_its_vote_is_needed() {
    let SlowCluster {
        mut nodes,
        addrs,
        armed,
        dir,
    } = slow_cluster("needed");
    let group = ShardMap::uniform(1).groups().next().unwrap();
    let leader = wait_for_leader(&nodes, group);
    let addr = addrs[&ServerId::new(leader as u32 + 1)];
    let follower = (leader + 1) % 3;
    if let Some(node) = nodes[follower].take() {
        node.kill();
    }
    timed_write(addr, group, 0);
    armed[leader].store(true, Ordering::Release);
    let elapsed = timed_write(addr, group, 1);
    armed[leader].store(false, Ordering::Release);
    assert!(
        elapsed >= SLOW_SYNC,
        "acked before the leader's own barrier completed: {elapsed:?}"
    );
    shutdown(nodes);
    let _ = std::fs::remove_dir_all(dir);
}
