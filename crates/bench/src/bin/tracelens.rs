//! Offline queries over `simrun` trace output — both the JSONL event
//! stream (`--timeline`) and the Chrome trace-event array (`--trace-out`).
//! The format is sniffed from the first byte (`[` = Chrome array).
//!
//! ```text
//! tracelens FILE                # per-kind event counts + time range
//! tracelens FILE --hottest 10   # most-migrated pages, with ping-pong trips
//! tracelens FILE --aborts       # abort -> retry -> rollback chains by frame pair
//! tracelens FILE --shards       # per-shard batch/work attribution (exec spans)
//! tracelens FILE --self-check   # structural validation; non-zero exit on failure
//! ```
//!
//! `--self-check` is the CI gate behind the smoke-trace artifact: it fails
//! on unparseable input, malformed span intervals (`end < start`), a
//! reserved zero span id, or unbalanced Chrome `"b"`/`"e"` async pairs.

use std::collections::HashMap;
use std::process::ExitCode;

use serde_json::Value;

/// One normalized record from either format.
struct Rec {
    /// Event time: picoseconds (JSONL) or microseconds×1e6 — comparable
    /// within one file, never across formats.
    t: u64,
    /// Event kind (JSONL `kind` tag) or Chrome record name.
    kind: String,
    /// Chrome phase (`X`/`b`/`e`/`i`/`C`/`M`), empty for JSONL.
    ph: String,
    /// The full record, for field queries.
    v: Value,
}

struct TraceFile {
    chrome: bool,
    recs: Vec<Rec>,
    /// Structural problems found while loading (self-check currency).
    problems: Vec<String>,
}

fn kind_of(v: &Value) -> String {
    match v.get("kind") {
        Some(Value::String(s)) => s.clone(),
        Some(k) => k
            .as_object()
            .and_then(|m| m.keys().next().cloned())
            .unwrap_or_else(|| "?".to_string()),
        None => "?".to_string(),
    }
}

fn load(path: &str) -> Result<TraceFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace file {path}: {e}"))?;
    let mut problems = Vec::new();
    let chrome = text.trim_start().starts_with('[');
    let mut recs = Vec::new();
    if chrome {
        match serde_json::from_str::<Value>(&text) {
            Ok(v) => {
                for r in v.as_array().map(Vec::as_slice).unwrap_or_default() {
                    let ph = r
                        .get("ph")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string();
                    if ph.is_empty() {
                        problems.push("record without a ph phase".to_string());
                    }
                    let t = r.get("ts").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                    let kind = r
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    recs.push(Rec {
                        t,
                        kind,
                        ph,
                        v: r.clone(),
                    });
                }
            }
            Err(e) => problems.push(format!("not a valid JSON array: {e:?}")),
        }
    } else {
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Value>(line) {
                Ok(v) => {
                    let t = v.get("t_ps").and_then(Value::as_u64);
                    if t.is_none() || v.get("kind").is_none() {
                        problems.push(format!("line {}: missing t_ps/kind", i + 1));
                    }
                    recs.push(Rec {
                        t: t.unwrap_or(0),
                        kind: kind_of(&v),
                        ph: String::new(),
                        v,
                    });
                }
                Err(e) => problems.push(format!("line {}: invalid JSON ({e:?})", i + 1)),
            }
        }
    }
    Ok(TraceFile {
        chrome,
        recs,
        problems,
    })
}

/// The span payload of a record, if it is one: JSONL `kind.Span` objects,
/// or Chrome `"X"` complete events (reconstructed interval).
fn span_fields(r: &Rec, chrome: bool) -> Option<(String, u64, u64, u64, u64, u64)> {
    if chrome {
        if r.ph != "X" {
            return None;
        }
        let start = r.v.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        let dur = r.v.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        let args = r.v.get("args")?;
        let id = args
            .get("id")
            .or_else(|| args.get("span"))
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .unwrap_or(1);
        let shard = r.v.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let aux = args.get("items").and_then(Value::as_u64).unwrap_or(0);
        Some((
            r.kind.clone(),
            id,
            (start * 1e6) as u64,
            ((start + dur) * 1e6) as u64,
            shard,
            aux,
        ))
    } else {
        let s = r.v.get("kind")?.get("Span")?;
        Some((
            s.get("name").and_then(Value::as_str)?.to_string(),
            s.get("id").and_then(Value::as_u64)?,
            s.get("start_ps").and_then(Value::as_u64)?,
            s.get("end_ps").and_then(Value::as_u64)?,
            s.get("shard").and_then(Value::as_u64).unwrap_or(0),
            s.get("aux").and_then(Value::as_u64).unwrap_or(0),
        ))
    }
}

fn summary(tf: &TraceFile) {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for r in &tf.recs {
        let label = if tf.chrome {
            format!("{} ({})", r.kind, r.ph)
        } else if let Some((name, ..)) = span_fields(r, false) {
            format!("Span/{name}")
        } else {
            r.kind.clone()
        };
        *counts.entry(label).or_default() += 1;
        if r.ph != "M" {
            lo = lo.min(r.t);
            hi = hi.max(r.t);
        }
    }
    let unit = if tf.chrome { "us" } else { "ps" };
    println!(
        "{} records ({}), t = [{}, {}] {unit}",
        tf.recs.len(),
        if tf.chrome { "chrome trace" } else { "jsonl" },
        if lo == u64::MAX { 0 } else { lo },
        hi,
    );
    let mut rows: Vec<(&String, &u64)> = counts.iter().collect();
    rows.sort_by_key(|&(k, n)| (std::cmp::Reverse(*n), k.clone()));
    for (kind, n) in rows {
        println!("{n:>10}  {kind}");
    }
}

fn hottest(tf: &TraceFile, top: usize) {
    // Per-page move counts from RemapSwap events (JSONL) or migration
    // async-begin records (Chrome, frame-keyed), plus ping-pong trips.
    let mut moves: HashMap<u64, u64> = HashMap::new();
    let mut trips: HashMap<u64, u64> = HashMap::new();
    let frame_keyed = tf.chrome;
    for r in &tf.recs {
        if tf.chrome {
            if r.ph == "b" && r.kind == "Migration" {
                if let Some(f) =
                    r.v.get("args")
                        .and_then(|a| a.get("frame"))
                        .and_then(Value::as_u64)
                {
                    *moves.entry(f).or_default() += 1;
                }
            }
            if r.ph == "i" && r.kind == "PagePingPong" {
                if let Some(p) =
                    r.v.get("args")
                        .and_then(|a| a.get("page"))
                        .and_then(Value::as_u64)
                {
                    *trips.entry(p).or_default() += 1;
                }
            }
        } else if let Some(swap) = r.v.get("kind").and_then(|k| k.get("RemapSwap")) {
            for key in ["page_a", "page_b"] {
                if let Some(p) = swap.get(key).and_then(Value::as_u64) {
                    *moves.entry(p).or_default() += 1;
                }
            }
        } else if let Some(pong) = r.v.get("kind").and_then(|k| k.get("PagePingPong")) {
            if let Some(p) = pong.get("page").and_then(Value::as_u64) {
                *trips.entry(p).or_default() += 1;
            }
        }
    }
    let mut rows: Vec<(u64, u64)> = moves.into_iter().collect();
    rows.sort_by_key(|&(page, n)| (std::cmp::Reverse(n), page));
    let label = if frame_keyed { "frame" } else { "page" };
    println!("hottest {label}s by migration involvement:");
    for (page, n) in rows.into_iter().take(top) {
        let t = trips.get(&page).copied().unwrap_or(0);
        println!("{n:>8} moves  {label} {page:<12} {t} ping-pong trips");
    }
}

fn aborts(tf: &TraceFile) {
    // Chains keyed by the swapped frame pair; each event annotated with
    // its time so the abort -> retry -> rollback sequence reads in order.
    let mut chains: HashMap<(u64, u64), Vec<(u64, String)>> = HashMap::new();
    for r in &tf.recs {
        let (name, body) = if tf.chrome {
            if r.ph != "i" {
                continue;
            }
            match r.v.get("args") {
                Some(a) => (r.kind.clone(), a),
                None => continue,
            }
        } else {
            match r.v.get("kind").and_then(Value::as_object) {
                Some(m) => match m.iter().next() {
                    Some((k, body)) => (k.clone(), body),
                    None => continue,
                },
                None => continue,
            }
        };
        if !matches!(
            name.as_str(),
            "MigrationAbort" | "MigrationRetry" | "MigrationRollback"
        ) {
            continue;
        }
        let fa = body.get("frame_a").and_then(Value::as_u64).unwrap_or(0);
        let fb = body.get("frame_b").and_then(Value::as_u64).unwrap_or(0);
        let detail = match name.as_str() {
            "MigrationAbort" => format!(
                "abort (attempt {})",
                body.get("attempt").and_then(Value::as_u64).unwrap_or(0)
            ),
            "MigrationRetry" => format!(
                "retry (attempt {}, backoff {} ps)",
                body.get("attempt").and_then(Value::as_u64).unwrap_or(0),
                body.get("backoff_ps").and_then(Value::as_u64).unwrap_or(0)
            ),
            _ => format!(
                "rollback after {} attempts",
                body.get("attempts").and_then(Value::as_u64).unwrap_or(0)
            ),
        };
        chains.entry((fa, fb)).or_default().push((r.t, detail));
    }
    if chains.is_empty() {
        println!("no abort/retry/rollback events in this trace");
        return;
    }
    let mut keys: Vec<(u64, u64)> = chains.keys().copied().collect();
    keys.sort_by_key(|k| (std::cmp::Reverse(chains[k].len()), *k));
    for key in keys {
        let mut events = chains.remove(&key).expect("keyed");
        events.sort();
        println!("frames {} <-> {} ({} events):", key.0, key.1, events.len());
        for (t, detail) in events {
            println!("    t={t:<16} {detail}");
        }
    }
}

fn shards(tf: &TraceFile) {
    // Execution-span attribution: work items routed per shard, batch
    // participation, and the simulated span of each shard's activity.
    struct ShardRow {
        batches: u64,
        items: u64,
        sim_span: u64,
    }
    let mut rows: HashMap<u64, ShardRow> = HashMap::new();
    let mut barriers = 0u64;
    for r in &tf.recs {
        let Some((name, _id, start, end, shard, aux)) = span_fields(r, tf.chrome) else {
            continue;
        };
        match name.as_str() {
            "ShardBatch" => {
                let row = rows.entry(shard).or_insert(ShardRow {
                    batches: 0,
                    items: 0,
                    sim_span: 0,
                });
                row.batches += 1;
                row.items += aux;
                row.sim_span += end.saturating_sub(start);
            }
            "Barrier" => barriers += 1,
            _ => {}
        }
    }
    if rows.is_empty() {
        println!("no execution spans in this trace (rerun with --exec-spans)");
        return;
    }
    let total_items: u64 = rows.values().map(|r| r.items).sum();
    let mut ids: Vec<u64> = rows.keys().copied().collect();
    ids.sort_unstable();
    println!("{barriers} barriers; per-shard work attribution:");
    for id in &ids {
        let row = &rows[id];
        let share = if total_items > 0 {
            100.0 * row.items as f64 / total_items as f64
        } else {
            0.0
        };
        println!(
            "shard {id}: {} batches, {} work items ({share:.1}%), {} sim-time covered",
            row.batches, row.items, row.sim_span
        );
    }
    if let Some(straggler) = ids.iter().max_by_key(|id| rows[id].items) {
        println!(
            "straggler  : shard {straggler} carries the most routed work ({} items)",
            rows[straggler].items
        );
    }
}

fn self_check(tf: &TraceFile) -> Result<String, String> {
    let mut problems = tf.problems.clone();
    let mut spans = 0u64;
    let mut async_open: HashMap<String, i64> = HashMap::new();
    for r in &tf.recs {
        if let Some((name, id, start, end, _, _)) = span_fields(r, tf.chrome) {
            spans += 1;
            if end < start {
                problems.push(format!("span {name} id {id:#x}: end {end} < start {start}"));
            }
            if !tf.chrome && id == 0 {
                problems.push(format!("span {name}: reserved zero id was emitted"));
            }
        }
        if tf.chrome && (r.ph == "b" || r.ph == "e") {
            let key =
                r.v.get("id")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
            *async_open.entry(key).or_default() += if r.ph == "b" { 1 } else { -1 };
        }
    }
    for (id, n) in &async_open {
        if *n != 0 {
            problems.push(format!("async pair {id}: {n:+} unbalanced begin/end"));
        }
    }
    if tf.recs.is_empty() {
        problems.push("trace contains no records".to_string());
    }
    if problems.is_empty() {
        Ok(format!(
            "self-check: ok ({} records, {spans} spans, {} async ids)",
            tf.recs.len(),
            async_open.len()
        ))
    } else {
        Err(problems.join("\n"))
    }
}

const USAGE: &str = "usage: tracelens FILE [--hottest N | --aborts | --shards | --self-check]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut file: Option<String> = None;
    let mut top = 10usize;
    let mut mode = "summary".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hottest" => {
                mode = "hottest".to_string();
                if let Some(v) = args.next() {
                    top = v
                        .parse()
                        .map_err(|_| format!("--hottest expects an integer, got {v:?}"))?;
                }
            }
            "--aborts" => mode = "aborts".to_string(),
            "--shards" => mode = "shards".to_string(),
            "--self-check" => mode = "self-check".to_string(),
            other if !other.starts_with("--") && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let file = file.ok_or_else(|| format!("missing FILE\n{USAGE}"))?;
    let tf = load(&file)?;
    match mode.as_str() {
        "hottest" => hottest(&tf, top),
        "aborts" => aborts(&tf),
        "shards" => shards(&tf),
        "self-check" => match self_check(&tf) {
            Ok(msg) => println!("{msg}"),
            Err(problems) => {
                eprintln!("self-check FAILED:\n{problems}");
                return Ok(ExitCode::FAILURE);
            }
        },
        _ => summary(&tf),
    }
    Ok(ExitCode::SUCCESS)
}
