//! The open-loop load driver: one pipelined `escape-wire` client
//! connection, a sender on the calling thread that paces arrivals, and one
//! receiver thread. Every operation is due at a scheduled time whether or
//! not earlier ones finished, and its latency counts from that time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use escape_client::Zipfian;
use escape_core::rand::{Rng64, SplitMix64};
use escape_core::types::GroupId;
use escape_kv::{KvCommand, KvResponse};
use escape_shard::Router;
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Decode, Encode, FrameReader, RequestBody,
    ResponseBody, CLIENT_HELLO,
};

use crate::clock;
use crate::trace::{Span, Tracer};

/// Keys in the key space; popularity is zipfian over them.
pub const KEYS: u64 = 10_000;
/// Zipf exponent.
pub const THETA: f64 = 0.99;
/// Bytes in every `Put` value.
pub const VALUE_BYTES: usize = 100;
/// How long a phase waits for outstanding responses after its last send.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No answer yet; at the end of a phase this means the outcome is
    /// unknown (lost with its connection or past the drain).
    Pending,
    /// The `Put` committed and applied.
    Acked,
    /// The server answered `Written` but without the state machine's
    /// result: the write applied, and its result had already aged out of
    /// the server's window of recent results when the reply was built.
    AckedNoResult,
    /// The server refused the request before proposing it.
    Refused,
    /// The server answered `Unavailable`: the outcome is unknown.
    Unavailable,
    /// A `Get` answered with this value id (`None` = absent key).
    Read(Option<u64>),
    /// An answer that no correct server gives.
    Bad,
}

/// One operation of a phase.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
    /// The unique value id a `Put` writes (0 for a `Get`).
    pub value: u64,
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub outcome: Outcome,
}

impl Op {
    pub fn ok(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::Acked | Outcome::AckedNoResult | Outcome::Read(_)
        )
    }

    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }
}

pub fn key_name(key: u32) -> String {
    format!("key{key}")
}

/// A `Put` value: the value id and the key it was written to, padded to
/// [`VALUE_BYTES`]. Ids are unique per cluster, so a read names the write
/// it observed.
pub fn value_bytes(value: u64, key: u32) -> Bytes {
    let mut v = format!("{value:016x}/{key:05}/").into_bytes();
    v.resize(VALUE_BYTES, b'v');
    Bytes::from(v)
}

/// The (value id, key) a value read back names, if it is one of ours.
pub fn parse_value(bytes: &[u8]) -> Option<(u64, u32)> {
    let text = std::str::from_utf8(bytes.get(..23)?).ok()?;
    let id = u64::from_str_radix(text.get(..16)?, 16).ok()?;
    let key = text.get(17..22)?.parse().ok()?;
    Some((id, key))
}

/// Where a phase's operations come from.
#[derive(Debug)]
pub enum Source {
    /// Arrivals every `1 / rate` seconds, zipfian keys, `Get` with
    /// probability `read_frac`.
    Mix { rate: f64, read_frac: f64 },
    /// One operation of `kind` per listed key, at a fixed spacing.
    Keys {
        keys: Vec<u32>,
        pos: usize,
        spacing_ns: u64,
        kind: Kind,
    },
}

/// The arrival schedule plus the state that makes it reproducible.
#[derive(Debug)]
pub struct Schedule {
    pub source: Source,
    pub next_due: u64,
    rng: SplitMix64,
    zipf: std::sync::Arc<Zipfian>,
}

impl Schedule {
    pub fn new(source: Source, start: u64, seed: u64, zipf: std::sync::Arc<Zipfian>) -> Schedule {
        let mut s = Schedule {
            source,
            next_due: start,
            rng: SplitMix64::new(seed),
            zipf,
        };
        if let Source::Mix { .. } = s.source {
            s.next_due += s.gap();
        }
        s
    }

    pub fn exhausted(&self) -> bool {
        matches!(&self.source, Source::Keys { keys, pos, .. } if *pos >= keys.len())
    }

    fn gap(&mut self) -> u64 {
        match self.source {
            Source::Mix { rate, .. } => (1e9 / rate) as u64,
            Source::Keys { spacing_ns, .. } => spacing_ns,
        }
    }

    /// The next operation (kind, key) and its due time.
    fn take(&mut self) -> (Kind, u32, u64) {
        let due = self.next_due;
        let (kind, key) = match &mut self.source {
            Source::Mix { read_frac, .. } => {
                let read_frac = *read_frac;
                let key = self.zipf.sample(&mut self.rng) as u32;
                let kind = if self.rng.gen_bool(read_frac) {
                    Kind::Get
                } else {
                    Kind::Put
                };
                (kind, key)
            }
            Source::Keys {
                keys, pos, kind, ..
            } => {
                let key = keys[*pos];
                *pos += 1;
                (*kind, key)
            }
        };
        self.next_due += self.gap();
        (kind, key, due)
    }
}

/// One pipelined client connection.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    group: GroupId,
    router: Router,
}

impl Conn {
    pub fn open(port: u16, router: Router) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        let mut hello = BytesMut::new();
        write_frame(&mut hello, CLIENT_HELLO);
        stream.write_all(&hello)?;
        let group = router.map().groups().next().expect("one group");
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
            group,
            router,
        })
    }
}

/// What a phase did.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub ops: Vec<Op>,
    /// Requests sent but unanswered when the schedule ended.
    pub in_flight_end: u64,
    /// Request bytes written plus response bytes read.
    pub wire_bytes: u64,
    pub start: u64,
    pub end: u64,
    /// When the phase's [`Kill`] was delivered.
    pub killed_at: Option<u64>,
    pub tracer: Tracer,
}

impl PhaseResult {
    pub fn lateness_ns(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.sent > 0)
            .map(|o| o.sent.saturating_sub(o.due) as f64)
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok()).count()
    }

    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.kind == kind && o.ok())
            .map(|o| o.latency_ns() as f64 / 1e6)
            .collect()
    }

    /// When the first `Put` of the phase was acknowledged.
    pub fn first_ack(&self) -> Option<u64> {
        self.ops
            .iter()
            .filter(|o| o.kind == Kind::Put && o.ok())
            .map(|o| o.done)
            .min()
    }
}

/// The most threads and sockets the driver process held while a phase
/// ran (checked against `nproc` at the end of the run).
pub static PEAK_THREADS: AtomicU64 = AtomicU64::new(0);
pub static PEAK_SOCKETS: AtomicU64 = AtomicU64::new(0);

fn sample_process() {
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0);
    // A connection the receiver reads through a cloned descriptor is still
    // one socket: count distinct socket inodes, past the standard streams
    // (which a caller may have connected to a socket).
    let sockets = std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.flatten()
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .and_then(|n| n.parse::<u32>().ok())
                        .is_some_and(|fd| fd > 2)
                })
                .filter_map(|e| std::fs::read_link(e.path()).ok())
                .map(|t| t.to_string_lossy().into_owned())
                .filter(|t| t.starts_with("socket:"))
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64
        })
        .unwrap_or(0);
    PEAK_THREADS.fetch_max(threads, Ordering::Relaxed);
    PEAK_SOCKETS.fetch_max(sockets, Ordering::Relaxed);
}

struct Shared {
    sent: AtomicU64,
    received: AtomicU64,
    done: AtomicBool,
}

/// A SIGKILL the sender delivers from inside a phase: `run` is called
/// right after the first operation due at or after `at` went out, so that
/// operation (and any other unanswered one) is in flight at the kill. The
/// phase then ends; what was in flight stays [`Outcome::Pending`].
pub struct Kill<'a> {
    pub at: u64,
    pub run: &'a mut dyn FnMut(),
}

/// Runs `schedule` on `conn` until `until` (or until a key list runs
/// out, or `kill` fired), then waits for the outstanding responses.
/// `next_value` hands out unique `Put` value ids.
pub fn run_phase(
    conn: &mut Conn,
    schedule: &mut Schedule,
    until: u64,
    next_value: &mut u64,
    trace: bool,
    mut kill: Option<Kill>,
) -> PhaseResult {
    let shared = Shared {
        sent: AtomicU64::new(0),
        received: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let base_id = conn.next_id;
    let mut result = PhaseResult {
        start: clock::now_ns(),
        tracer: Tracer::new(trace),
        ..PhaseResult::default()
    };
    let Ok(rx_stream) = conn.stream.try_clone() else {
        return result;
    };
    let _ = rx_stream.set_read_timeout(Some(Duration::from_millis(20)));
    let Conn {
        stream,
        reader,
        next_id,
        group,
        router,
    } = conn;

    let mut op_spans = Vec::new();
    let (answers, rx_tracer, rx_bytes) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(rx_stream, reader, &shared, trace));
        let mut tracer = Tracer::new(trace);
        let mut buf = BytesMut::new();
        let mut bytes_out = 0u64;
        let mut kill_now = false;
        loop {
            let now = clock::now_ns();
            while schedule.next_due <= now
                && schedule.next_due < until
                && !schedule.exhausted()
                && !kill_now
            {
                let (kind, key, due) = schedule.take();
                kill_now = kill.as_ref().is_some_and(|k| due >= k.at);
                let id = *next_id;
                *next_id += 1;
                let name = key_name(key);
                let value = match kind {
                    Kind::Put => {
                        *next_value += 1;
                        *next_value
                    }
                    Kind::Get => 0,
                };
                let op_span = if trace { Tracer::new_id() } else { 0 };
                let checked = tracer.span("shard.route", op_span, id, || {
                    router.check(*group, name.as_bytes())
                });
                let group = checked.unwrap_or(*group);
                tracer.span("wire.encode", op_span, id, || {
                    let body = match kind {
                        Kind::Put => RequestBody::Write {
                            group,
                            key: Bytes::from(name.clone()),
                            command: KvCommand::Put {
                                key: name,
                                value: value_bytes(value, key),
                            }
                            .encode(),
                        },
                        Kind::Get => RequestBody::Read {
                            group,
                            key: Bytes::from(name.clone()),
                            query: KvCommand::Get { key: name }.encode(),
                        },
                    };
                    let payload = ClientRequest { id, body }.to_bytes();
                    write_frame(&mut buf, &payload);
                });
                result.ops.push(Op {
                    kind,
                    key,
                    value,
                    due,
                    sent: clock::now_ns(),
                    done: 0,
                    outcome: Outcome::Pending,
                });
                op_spans.push(op_span);
            }
            if !buf.is_empty() {
                bytes_out += buf.len() as u64;
                if stream.write_all(&buf).is_err() {
                    break;
                }
                buf.clear();
                shared.sent.store(*next_id - base_id, Ordering::Release);
            }
            if kill_now {
                if let Some(k) = kill.take() {
                    result.killed_at = Some(clock::now_ns());
                    (k.run)();
                }
                break;
            }
            if schedule.next_due >= until || schedule.exhausted() {
                break;
            }
            let wait = schedule.next_due.saturating_sub(clock::now_ns());
            if wait > 0 {
                std::thread::sleep(Duration::from_nanos(wait));
            }
        }
        shared.sent.store(*next_id - base_id, Ordering::Release);
        // Sampled while this phase's receiver runs, well after the previous
        // phase's receiver exited.
        sample_process();
        result.in_flight_end = (*next_id - base_id) - shared.received.load(Ordering::Acquire);
        shared.done.store(true, Ordering::Release);
        let (answers, mut rx_tracer, rx_bytes) = receiver.join().expect("receiver thread");
        rx_tracer.absorb(tracer);
        (answers, rx_tracer, rx_bytes + bytes_out)
    });

    for (id, at, body) in answers {
        let Some(op) = id
            .checked_sub(base_id)
            .and_then(|i| result.ops.get_mut(i as usize))
        else {
            continue;
        };
        op.done = at;
        op.outcome = outcome(op, &body);
    }
    let mut tracer = rx_tracer;
    if trace {
        // The receiver knew only request ids; hang its decode spans under
        // their operation's span.
        for s in tracer.spans.iter_mut().filter(|s| s.name == "wire.decode") {
            if let Some(&span) =
                s.op.checked_sub(base_id)
                    .and_then(|i| op_spans.get(i as usize))
            {
                s.parent = span;
            }
        }
        for (i, (op, &span)) in result.ops.iter().zip(&op_spans).enumerate() {
            if op.done > 0 {
                tracer.record(Span {
                    id: span,
                    parent: 0,
                    op: base_id + i as u64,
                    name: if op.kind == Kind::Put {
                        "client.put"
                    } else {
                        "client.get"
                    },
                    start: op.due,
                    end: op.done,
                });
            }
        }
    }
    result.tracer = tracer;
    result.wire_bytes = rx_bytes;
    result.end = clock::now_ns();
    result
}

fn outcome(op: &Op, body: &ResponseBody) -> Outcome {
    match (op.kind, body) {
        (Kind::Put, ResponseBody::Written { result, .. }) if result.is_empty() => {
            Outcome::AckedNoResult
        }
        (Kind::Put, ResponseBody::Written { result, .. }) => match KvResponse::decode(result) {
            Ok(KvResponse::Ok) => Outcome::Acked,
            _ => Outcome::Bad,
        },
        (Kind::Get, ResponseBody::Value(raw)) => match KvResponse::decode(raw) {
            Ok(KvResponse::Value(None)) => Outcome::Read(None),
            Ok(KvResponse::Value(Some(v))) => match parse_value(&v) {
                Some((id, key)) if key == op.key => Outcome::Read(Some(id)),
                _ => Outcome::Bad,
            },
            _ => Outcome::Bad,
        },
        (_, ResponseBody::NotLeader { .. } | ResponseBody::Redirect { .. }) => Outcome::Refused,
        (_, ResponseBody::Unavailable) => Outcome::Unavailable,
        _ => Outcome::Bad,
    }
}

type Answers = (Vec<(u64, u64, ResponseBody)>, Tracer, u64);

fn receive(
    mut stream: TcpStream,
    reader: &mut FrameReader,
    shared: &Shared,
    trace: bool,
) -> Answers {
    let mut tracer = Tracer::new(trace);
    let mut answers = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut bytes_in = 0u64;
    let mut drain_deadline = None;
    loop {
        let received = answers.len() as u64;
        if shared.done.load(Ordering::Acquire) {
            if received >= shared.sent.load(Ordering::Acquire) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(clock::now_ns() + DRAIN.as_nanos() as u64);
            if clock::now_ns() > deadline {
                break;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                bytes_in += n as u64;
                reader.extend(&chunk[..n]);
                let at = clock::now_ns();
                loop {
                    let start = clock::now_ns();
                    let decoded = match reader.next_frame() {
                        Ok(Some(mut frame)) => ClientResponse::decode(&mut frame).ok(),
                        _ => break,
                    };
                    let end = clock::now_ns();
                    if let Some(resp) = decoded {
                        tracer.record(Span {
                            id: Tracer::new_id(),
                            parent: 0,
                            op: resp.id,
                            name: "wire.decode",
                            start,
                            end,
                        });
                        answers.push((resp.id, at, resp.body));
                    }
                }
                shared
                    .received
                    .store(answers.len() as u64, Ordering::Release);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    (answers, tracer, bytes_in)
}
