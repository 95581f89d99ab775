//! The traced run's in-process layer measurements: each times the
//! benchmark's own calls into one crate's public functions, on inputs
//! built from the workload (the same keys and ~100 B values).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::Duration;

use bytes::Bytes;
use escape_core::engine::{Action, Node, TimerKind};
use escape_core::log::{Entry, Payload};
use escape_core::policy::RaftPolicy;
use escape_core::statemachine::StateMachine;
use escape_core::storage::Storage;
use escape_core::time::{Duration as SimDuration, Time};
use escape_core::types::{LogIndex, Role, ServerId, Term};
use escape_kv::{KvCommand, KvStateMachine};
use escape_shard::{ShardMap, ShardSpawnOptions, ShardedNode};
use escape_storage::WalStorage;
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::loopback_listeners;

use crate::load::{key_name, value_bytes};
use crate::trace::Tracer;

fn put(i: u64) -> (String, Bytes) {
    let key = (i % crate::load::KEYS) as u32;
    let name = key_name(key);
    let cmd = KvCommand::Put {
        key: name.clone(),
        value: value_bytes(i + 1, key),
    }
    .encode();
    (name, cmd)
}

fn get(i: u64) -> (String, Bytes) {
    let name = key_name((i % crate::load::KEYS) as u32);
    let query = KvCommand::Get { key: name.clone() }.encode();
    (name, query)
}

/// An in-process group of `n` sharded servers (one group) on loopback.
fn spawn_group(n: usize, data: Option<&Path>) -> Result<(Vec<ShardedNode>, usize), String> {
    let (addrs, listeners): (
        HashMap<ServerId, SocketAddr>,
        HashMap<ServerId, TcpListener>,
    ) = loopback_listeners(n);
    let map = ShardMap::uniform(1);
    let nodes: Vec<ShardedNode> = (1..=n as u32)
        .map(|i| {
            let id = ServerId::new(i);
            let listener = listeners[&id].try_clone().expect("clone listener");
            let dir = data.map(|d| d.join(format!("inproc-{n}-s{i}")));
            ShardedNode::spawn_with(
                id,
                listener,
                addrs.clone(),
                ProtocolSpec::escape_local(),
                1,
                map.clone(),
                |_| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
                dir.as_deref(),
                ShardSpawnOptions::default(),
            )
        })
        .collect();
    let group = map.groups().next().ok_or("empty map")?;
    let deadline = crate::clock::now_ns() + 10_000_000_000;
    loop {
        if let Some(i) = nodes
            .iter()
            .position(|node| node.status(group).is_some_and(|s| s.role == Role::Leader))
        {
            return Ok((nodes, i));
        }
        if crate::clock::now_ns() > deadline {
            return Err("in-process group did not elect".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `ShardedNode::propose` + `await_applied`, then `ShardedNode::read`,
/// closed loop on the leader of an in-process `n`-server group. Returns
/// the median write and read in µs.
pub fn node_calls(
    n: usize,
    data: Option<&Path>,
    reps: u64,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let (nodes, leader) = spawn_group(n, data)?;
    let node = &nodes[leader];
    let write_name = if n == 1 {
        "shard.node_write_1"
    } else {
        "shard.node_write"
    };
    let read_name = if n == 1 {
        "shard.node_read_1"
    } else {
        "shard.node_read"
    };
    let mut result = Ok(());
    for i in 0..reps {
        let (key, cmd) = put(i);
        let ok = tracer.span(write_name, 0, i, || {
            node.propose(key.as_bytes(), cmd)
                .and_then(|(group, index)| node.await_applied(group, index))
                .is_ok()
        });
        if !ok {
            result = Err(format!("in-process write {i} failed"));
            break;
        }
    }
    if result.is_ok() {
        for i in 0..reps {
            let (key, query) = get(i);
            let ok = tracer.span(read_name, 0, i, || node.read(key.as_bytes(), query).is_ok());
            if !ok {
                result = Err(format!("in-process read {i} failed"));
                break;
            }
        }
    }
    for node in nodes {
        node.shutdown();
    }
    result?;
    let us = |name| tracer.median_ns(name).unwrap_or(0.0) / 1e3;
    Ok((us(write_name), us(read_name)))
}

fn batch_entries(batch: usize, round: u64) -> Vec<Entry> {
    (0..batch as u64)
        .map(|i| {
            let n = round * batch as u64 + i;
            Entry {
                term: Term::new(1),
                index: LogIndex::new(n + 1),
                payload: Payload::Command(put(n).1),
            }
        })
        .collect()
}

/// `WalStorage::persist_entries` of a batch of `batch` workload entries,
/// then `sync`. Returns the median append and sync in µs.
pub fn storage_calls(
    dir: &Path,
    batch: usize,
    reps: u64,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let (mut wal, _) = WalStorage::open(dir.join("wal-layer")).map_err(|e| e.to_string())?;
    for round in 0..reps {
        let entries = batch_entries(batch, round);
        tracer
            .span("storage.append", 0, round, || wal.persist_entries(&entries))
            .map_err(|e| e.to_string())?;
        tracer
            .span("storage.sync", 0, round, || wal.sync())
            .map_err(|e| e.to_string())?;
    }
    let us = |name| tracer.median_ns(name).unwrap_or(0.0) / 1e3;
    Ok((us("storage.append"), us("storage.sync")))
}

/// In-memory `Node::propose_batch` of `batch` workload commands on a
/// single-node leader. Returns the median in µs.
pub fn propose_batch_calls(batch: usize, reps: u64, tracer: &mut Tracer) -> f64 {
    let id = ServerId::new(1);
    let mut node = Node::builder(id, vec![id])
        .policy(Box::new(RaftPolicy::randomized(
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            1,
        )))
        .build();
    let actions = node.start(Time::ZERO);
    if let Some((token, deadline)) = actions.iter().find_map(|a| match a {
        Action::SetTimer { token, deadline } if token.kind == TimerKind::Election => {
            Some((*token, *deadline))
        }
        _ => None,
    }) {
        node.handle_timer(token, deadline);
    }
    let now = Time::from_millis(1000);
    for round in 0..reps {
        let commands: Vec<Bytes> = (0..batch as u64)
            .map(|i| put(round * batch as u64 + i).1)
            .collect();
        let accepted = tracer.span("core.propose_batch", 0, round, || {
            node.propose_batch(commands, now).is_ok()
        });
        if !accepted {
            break;
        }
    }
    tracer.median_ns("core.propose_batch").unwrap_or(0.0) / 1e3
}

/// `KvStateMachine::apply` of workload `Put`s and `query` of `Get`s.
/// Returns the medians in ns.
pub fn kv_calls(reps: u64, tracer: &mut Tracer) -> (f64, f64) {
    let mut sm = KvStateMachine::new();
    for i in 0..reps {
        let cmd = put(i).1;
        let out = tracer.span("kv.apply", 0, i, || sm.apply(LogIndex::new(i + 1), &cmd));
        std::hint::black_box(out);
    }
    for i in 0..reps {
        let query = get(i).1;
        let out = tracer.span("kv.query", 0, i, || sm.query(&query));
        std::hint::black_box(out);
    }
    (
        tracer.median_ns("kv.apply").unwrap_or(0.0),
        tracer.median_ns("kv.query").unwrap_or(0.0),
    )
}
