//! Rule 3 — write-before-send: engine functions persist before they
//! stage outbound messages.
//!
//! The durability argument from PR 2: a node must never tell a peer
//! about state it could forget in a crash. In the sans-IO engine that
//! means any function that calls a `persist_*` helper must make that
//! call at a byte offset *before* any send-staging call. The check is a
//! heuristic over source order (good enough because the engine stages
//! sends linearly — no callbacks), with a waiver escape hatch for the
//! refusal paths that reply without mutating anything.
//!
//! A second sub-check pins the hard-state invariant directly: an
//! assignment to `current_term` or `voted_for` must be followed (same
//! function) by a `persist_hard_state` call — double-voting after a
//! restart is the one mistake Raft never forgives.
//!
//! A third sub-check pins where the barrier runs: every public engine
//! entry point that returns actions must reach `sync_storage` (directly
//! or through another function of the same file), so what the runtime
//! transmits is durable first. The one exemption is the append half of a
//! proposal, [`BARRIER_EXEMPT`]: it ships the leader's own new entries
//! before their barrier, which is safe because the leader counts itself
//! toward their commit quorum only once a barrier covers them (Ongaro,
//! *Consensus: Bridging Theory and Practice*, 2014, §10.2.1). Votes,
//! terms, configurations and follower acks get no such refinement.

use crate::lexer::SourceFile;
use crate::report::{Finding, Rule};
use crate::rules::{is_punct, text};

/// Public entry points allowed to return actions without reaching the
/// barrier: only the append half of a proposal (see the module docs).
pub const BARRIER_EXEMPT: [&str; 1] = ["propose_append"];

/// Durability helpers — reaching storage through anything else is new
/// code the lint should be taught about.
const PERSIST: [&str; 7] = [
    "persist_hard_state",
    "persist_last_entry",
    "persist_tail_entries",
    "persist_appended",
    "persist_current_config",
    "persist_snapshot",
    "sync_storage",
];

/// Calls that stage outbound messages onto the action list.
const STAGE: [&str; 6] = [
    "send",
    "send_heartbeat",
    "heartbeat_round",
    "pump_peer",
    "flush_replication",
    "confirm_round",
];

/// Only the engine proper is in scope.
fn in_scope(file: &SourceFile) -> bool {
    file.crate_name == "escape-core" && file.path.contains("/engine/")
}

pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(file) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for func in &file.functions {
        let Some((open, close)) = func.body else { continue };
        if file.is_test_code(func.start) {
            continue;
        }
        let mut persists: Vec<usize> = Vec::new(); // byte offsets
        let mut stages: Vec<(usize, usize)> = Vec::new(); // (offset, line)
        let mut hard_state_writes: Vec<(usize, usize, String)> = Vec::new();
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.start <= open || t.end >= close {
                continue;
            }
            let s = file.tok_str(t);
            if PERSIST.contains(&s) && is_punct(file, i + 1, b'(') {
                persists.push(t.start);
            } else if STAGE.contains(&s)
                && is_punct(file, i + 1, b'(')
                && i > 0
                && is_punct(file, i - 1, b'.')
                && func.name != s
            {
                stages.push((t.start, t.line));
            } else if s == "Send"
                && i >= 2
                && is_punct(file, i - 1, b':')
                && is_punct(file, i - 2, b':')
                && text(file, i - 3) == "Action"
            {
                // Direct `Action::Send` construction (the `send` helper
                // itself, or anything bypassing it).
                stages.push((t.start, t.line));
            } else if (s == "current_term" || s == "voted_for")
                && is_punct(file, i + 1, b'=')
                && !is_punct(file, i + 2, b'=')
                && i > 0
                && is_punct(file, i - 1, b'.')
            {
                hard_state_writes.push((t.start, t.line, s.to_string()));
            }
        }

        // (a) source-order check: no staging before the first persist.
        if let Some(&first_persist) = persists.iter().min() {
            for &(offset, line) in &stages {
                if offset < first_persist {
                    findings.push(Finding::new(
                        Rule::WriteBeforeSend,
                        &file.path,
                        line,
                        format!(
                            "`{}` stages an outbound message before its first \
                             persist call — write-before-send requires durability \
                             first (waive if this path mutates nothing)",
                            func.name
                        ),
                    ));
                }
            }
        }

        // (b) hard-state writes need a later persist_hard_state.
        for (offset, line, field) in &hard_state_writes {
            let persisted_later = file.tokens.iter().enumerate().any(|(i, t)| {
                t.start > *offset
                    && t.end < close
                    && file.tok_str(t) == "persist_hard_state"
                    && is_punct(file, i + 1, b'(')
            });
            if !persisted_later {
                findings.push(Finding::new(
                    Rule::WriteBeforeSend,
                    &file.path,
                    *line,
                    format!(
                        "`{}` assigns `{field}` without a later \
                         persist_hard_state() in the same function — a crash \
                         here can double-vote",
                        func.name
                    ),
                ));
            }
        }
    }
    findings.extend(unbarriered_entry_points(file));
    findings
}

/// (c) Public entry points returning actions that never reach
/// `sync_storage`, following calls between functions of this file.
fn unbarriered_entry_points(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.tokens;
    let bodies: Vec<(&str, (usize, usize))> = file
        .functions
        .iter()
        .filter(|f| !file.is_test_code(f.start))
        .filter_map(|f| f.body.map(|body| (f.name.as_str(), body)))
        .collect();
    // Names each function calls (`name(`), from its body's tokens.
    let calls = |(open, close): (usize, usize)| -> Vec<&str> {
        toks.iter()
            .enumerate()
            .filter(|(i, t)| t.start > open && t.end < close && is_punct(file, i + 1, b'('))
            .map(|(_, t)| file.tok_str(t))
            .collect()
    };
    let mut reaches: Vec<&str> = vec!["sync_storage"];
    loop {
        let before = reaches.len();
        for &(name, body) in &bodies {
            if !reaches.contains(&name) && calls(body).iter().any(|c| reaches.contains(c)) {
                reaches.push(name);
            }
        }
        if reaches.len() == before {
            break;
        }
    }
    let mut findings = Vec::new();
    for func in &file.functions {
        let Some((open, _)) = func.body else { continue };
        if file.is_test_code(func.start)
            || BARRIER_EXEMPT.contains(&func.name.as_str())
            || reaches.contains(&func.name.as_str())
        {
            continue;
        }
        let Some(fn_tok) = toks.iter().position(|t| t.start == func.start) else {
            continue;
        };
        // Exactly `pub fn` (not `pub(super)`), returning something that
        // names `Action`.
        let public = fn_tok > 0 && text(file, fn_tok - 1) == "pub";
        let returns_actions = toks
            .iter()
            .enumerate()
            .skip(fn_tok)
            .take_while(|(_, t)| t.start < open)
            .skip_while(|&(i, _)| !(is_punct(file, i, b'-') && is_punct(file, i + 1, b'>')))
            .any(|(_, t)| file.tok_str(t) == "Action");
        if public && returns_actions {
            findings.push(Finding::new(
                Rule::WriteBeforeSend,
                &file.path,
                toks[fn_tok].line,
                format!(
                    "`{}` returns actions without reaching sync_storage — what the \
                     runtime transmits could outrun the WAL (only the append half, \
                     {BARRIER_EXEMPT:?}, may return before its barrier)",
                    func.name
                ),
            ));
        }
    }
    findings
}
