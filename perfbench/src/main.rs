//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <bulk|storm|many_models|finetune> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's world from the seed several times (the median
//! is `setup_s`), runs its closed loop for `--seconds` of host time,
//! then power-fails the device, recovers the daemon and restores every
//! model's latest acknowledged version bit for bit. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` splits the time into an untraced
//! and a traced half and reports the per-layer metrics. Human-readable
//! lines come first; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this
//! package.

mod attrib;
mod layers;
mod stats;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use portus_sim::{chrome_trace_json, SimTime, SpanRecord, Stage, TraceEvent};

use crate::layers::{per, Counters, Replays};
use crate::stats::{median_f64, quantile, tail};
use crate::workloads::Workload;
use crate::world::{durability_gate, peak_rss_mib, BenchResult, Ledger};

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?.clone();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match kv.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host-time windows a timed phase is cut into; host throughputs are
/// the median over windows, so a burst of interference from outside
/// the process moves one window, not the figure.
const WINDOWS: u32 = 10;

/// Completed ops and moved bytes of one host-time window, and the
/// space efficiency at its end.
struct Window {
    ops: u64,
    bytes: u64,
    host_s: f64,
    stored_per_logical: f64,
}

/// One timed phase: the ledger plus both clocks' spans.
struct Phase {
    l: Ledger,
    windows: Vec<Window>,
    virtual_s: f64,
}

impl Phase {
    /// Runs rounds for `seconds` of host time. With `keep_spans`, every
    /// benchmark host span is kept for the Chrome trace.
    fn run(w: &mut dyn Workload, seconds: f64, keep_spans: bool) -> Phase {
        let mut l = Ledger {
            span_epoch: keep_spans.then(Instant::now),
            ..Ledger::default()
        };
        let mut windows = Vec::new();
        let v0 = w.world().vnow();
        let t0 = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let window = budget / WINDOWS;
        let (mut w0, mut ops0, mut bytes0) = (t0, 0, 0);
        while t0.elapsed() < budget {
            w.round(&mut l);
            if w0.elapsed() >= window {
                let bytes = l.ckpt_bytes + l.restore_bytes;
                windows.push(Window {
                    ops: l.ops - ops0,
                    bytes: bytes - bytes0,
                    host_s: w0.elapsed().as_secs_f64(),
                    stored_per_logical: w.world().stored_per_logical(),
                });
                (w0, ops0, bytes0) = (Instant::now(), l.ops, bytes);
            }
        }
        Phase {
            windows,
            virtual_s: (w.world().vnow() - v0) as f64 / 1e9,
            l,
        }
    }

    /// Median over windows of `f(window) / window seconds`.
    fn host_rate(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let rates: Vec<f64> = self.windows.iter().map(|w| f(w) / w.host_s).collect();
        median_f64(&rates).unwrap_or(0.0)
    }

    fn host_ops_per_s(&self) -> f64 {
        self.host_rate(|w| w.ops as f64)
    }

    /// Median over the windows' ends of PMem used bytes per logical
    /// byte (the device fills and drains as models come and go).
    fn stored_per_logical(&self) -> f64 {
        let v: Vec<f64> = self.windows.iter().map(|w| w.stored_per_logical).collect();
        median_f64(&v).unwrap_or(0.0)
    }
}

/// Metrics in output order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(p: &Phase, setup_s: f64, lines: &mut Vec<String>) -> Metrics {
    let mut ck = p.l.ckpt_vns.clone();
    ck.sort_unstable();
    let mut rs = p.l.restore_vns.clone();
    rs.sort_unstable();
    for (what, v) in [("ckpt", &ck), ("restore", &rs)] {
        if let Some(t) = tail(v) {
            lines.push(format!(
                "{what}: n={} p50={:.4} vms tail=p{} {:.4} vms ({} samples beyond)",
                t.count,
                ms(quantile(v, 500).unwrap_or(0)),
                t.percentile,
                ms(t.value),
                t.beyond
            ));
        }
    }
    let rates: Vec<String> = p
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.ops as f64 / w.host_s))
        .collect();
    lines.push(format!("host ops/s per window: [{}]", rates.join(", ")));
    let failed_frac = per(p.l.failed as f64, p.l.attempted as f64);
    lines.push(format!(
        "failed_frac={failed_frac} ({} of {} attempted; {} throttled checkpoints retried)",
        p.l.failed, p.l.attempted, p.l.throttle_retries
    ));
    vec![
        ("setup_s", setup_s, "s"),
        ("ckpt_p50_vms", ms(quantile(&ck, 500).unwrap_or(0)), "vms"),
        ("ckpt_tail_vms", ms(tail(&ck).map_or(0, |t| t.value)), "vms"),
        (
            "restore_p50_vms",
            ms(quantile(&rs, 500).unwrap_or(0)),
            "vms",
        ),
        (
            "restore_tail_vms",
            ms(tail(&rs).map_or(0, |t| t.value)),
            "vms",
        ),
        (
            "ckpt_gib_per_vs",
            per(p.l.ckpt_bytes as f64 / GIB, p.virtual_s),
            "GiB/vs",
        ),
        (
            "host_gib_per_s",
            p.host_rate(|w| w.bytes as f64 / GIB),
            "GiB/s",
        ),
        ("host_ops_per_s", p.host_ops_per_s(), "ops/s"),
        ("stored_per_logical", p.stored_per_logical(), "ratio"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of a traced phase.
fn per_layer(
    p: &Phase,
    untraced: &Phase,
    spans: &layers::SpanTotals,
    c: &Counters,
    r: &Replays,
    host: (f64, f64, f64),
) -> Metrics {
    let (slot_checksum_gib_s, recover_host_s, lookup_host_us) = host;
    let h = |k: &str, unit: f64| p.l.host.get(k).map_or(0.0, |a| a.mean(unit));
    let reqs = spans.requests as f64;
    let s = &c.stats;
    let (throttled, shed, admitted) = c.qos();
    let moved_mib = (p.l.ckpt_bytes + p.l.restore_bytes) as f64 / MIB;
    let restore_client_ns: u64 = p.l.restore_vns.iter().sum();
    let restores = p.l.restore_vns.len() as f64;
    let m = &c.metrics_end;
    let m0 = &c.metrics_start;
    let (cat_hit, cat_pages, cat_bytes, cat_fallbacks) = match &c.catalog {
        Some((a, b)) => {
            let hits = b.cache_hits - a.cache_hits;
            let misses = b.cache_misses - a.cache_misses;
            (
                per(hits as f64, (hits + misses) as f64),
                b.pages as f64,
                b.cache_bytes as f64,
                (b.model_fallbacks - a.model_fallbacks) as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let chunks = m.dedup_chunks - m0.dedup_chunks;
    let shared = m.dedup_shared_chunks - m0.dedup_shared_chunks;
    vec![
        ("client.ckpt_host_ms", h("client.ckpt", 1e3), "ms"),
        ("client.restore_host_ms", h("client.restore", 1e3), "ms"),
        ("client.delta_host_ms", h("client.delta", 1e3), "ms"),
        ("client.register_host_us", h("client.register", 1e6), "us"),
        ("client.drop_host_us", h("client.drop", 1e6), "us"),
        ("client.rpc_vms", per(ms(spans.rpc_transit_ns), reqs), "vms"),
        (
            "client.mr_register_vms",
            per(
                ms(restore_client_ns.saturating_sub(spans.restore_rpc_ns)),
                restores,
            ),
            "vms",
        ),
        (
            "daemon.dispatch_wait_vms",
            per(ms(spans.dispatch_wait_ns), reqs),
            "vms",
        ),
        (
            "daemon.validate_vms",
            spans.per_op_ms(&[Stage::Validate]),
            "vms",
        ),
        (
            "daemon.wqe_build_vms",
            spans.per_op_ms(&[Stage::WqeBuild]),
            "vms",
        ),
        (
            "daemon.header_flip_vms",
            spans.per_op_ms(&[Stage::HeaderFlip]),
            "vms",
        ),
        (
            "daemon.unattributed_vms",
            per(ms(spans.unattributed_ns), reqs),
            "vms",
        ),
        ("daemon.queue_peak", m.dispatch_queue_peak as f64, "count"),
        (
            "daemon.pipeline_overlap_permille",
            m.pipeline_overlap_permille as f64,
            "permille",
        ),
        ("qos.throttled_ops", throttled as f64, "count"),
        ("qos.shed_ops", shed as f64, "count"),
        ("qos.admitted_gib", admitted as f64 / GIB, "GiB"),
        (
            "rdma.transfer_vms",
            spans.per_op_ms(&[Stage::CqDrain, Stage::DoorbellPost]),
            "vms",
        ),
        (
            "rdma.retry_backoff_vms",
            spans.per_op_ms(&[Stage::RetryBackoff]),
            "vms",
        ),
        (
            "rdma.wqes_per_op",
            per(s.posted_verbs as f64, reqs),
            "count",
        ),
        (
            "rdma.doorbells_per_op",
            per(s.doorbell_batches as f64, reqs),
            "count",
        ),
        (
            "rdma.coalesced_frac",
            per(s.coalesced_verbs as f64, s.posted_verbs as f64),
            "ratio",
        ),
        ("rdma.retried_verbs", s.retried_verbs as f64, "count"),
        ("rdma.read_gather_gib_s", r.read_gather_gib_s, "GiB/s"),
        ("rdma.write_scatter_gib_s", r.write_scatter_gib_s, "GiB/s"),
        (
            "pmem.persist_vms",
            spans.per_op_ms(&[Stage::Persist]),
            "vms",
        ),
        (
            "pmem.flushes_per_mib",
            per(s.pmem_flushes as f64, moved_mib),
            "count",
        ),
        (
            "pmem.fences_per_op",
            per(s.pmem_fences as f64, reqs),
            "count",
        ),
        (
            "pmem.largest_free_frac",
            per(m.pmem_largest_free_extent as f64, m.pmem_free_bytes as f64),
            "ratio",
        ),
        ("pmem.write_gib_s", r.pmem_write_gib_s, "GiB/s"),
        ("pmem.persist_gib_s", r.pmem_persist_gib_s, "GiB/s"),
        (
            "index.checksum_vms",
            spans.per_op_ms(&[Stage::Checksum]),
            "vms",
        ),
        ("index.digest_gib_s", r.digest_gib_s, "GiB/s"),
        ("index.slot_checksum_gib_s", slot_checksum_gib_s, "GiB/s"),
        ("index.recover_host_s", recover_host_s, "s"),
        (
            "catalog.lookup_vms",
            spans.per_op_ms(&[Stage::CatalogLookup]),
            "vms",
        ),
        ("catalog.cache_hit_ratio", cat_hit, "ratio"),
        ("catalog.pages", cat_pages, "count"),
        ("catalog.cache_bytes", cat_bytes, "bytes"),
        ("catalog.fallbacks", cat_fallbacks, "count"),
        ("catalog.lookup_host_us", lookup_host_us, "us"),
        ("dedup.ingest_vms", spans.per_op_ms(&[Stage::Dedup]), "vms"),
        (
            "dedup.carry_copy_vms",
            spans.per_op_ms(&[Stage::CarryCopy]),
            "vms",
        ),
        (
            "dedup.shared_chunk_ratio",
            per(shared as f64, chunks as f64),
            "ratio",
        ),
        (
            "dedup.swept_extents",
            (m.swept_extents - m0.swept_extents) as f64,
            "count",
        ),
        (
            "repack.pass_vms",
            per(ms(spans.repack_ns), spans.repack_passes as f64),
            "vms",
        ),
        ("repack.passes", s.repack_passes as f64, "count"),
        (
            "repack.reclaimed_mib",
            s.reclaimed_bytes as f64 / MIB,
            "MiB",
        ),
        ("dnn.train_step_host_ms", h("dnn.train_step", 1e3), "ms"),
        ("dnn.verify_host_ms", h("dnn.verify", 1e3), "ms"),
        (
            "sim.tracing_overhead_frac",
            1.0 - per(p.host_ops_per_s(), untraced.host_ops_per_s()),
            "ratio",
        ),
    ]
}

/// Spans per clock written to the Chrome trace.
const TRACE_SPANS: usize = 50_000;

/// One Chrome trace of a traced phase: the program's virtual stage
/// spans as process 1 (one thread lane per request id, as
/// `Tracer::to_chrome_trace` lays them out) and the benchmark's host
/// spans around its calls as process 2. The two processes run on
/// different clocks; compare durations within a process only.
fn chrome_trace(spans: &[SpanRecord], host: &[(&'static str, u64, u64)]) -> String {
    let mut events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent {
            name: s.stage.name().to_string(),
            cat: s.op.name().to_string(),
            pid: 1,
            tid: s.req_id,
            start: s.start,
            end: s.end,
            args: vec![
                ("model".to_string(), s.model.clone()),
                ("round".to_string(), s.round.to_string()),
                ("lane".to_string(), s.lane.to_string()),
                ("clock".to_string(), "virtual".to_string()),
            ],
        })
        .collect();
    events.extend(host.iter().map(|&(name, start, end)| TraceEvent {
        name: name.to_string(),
        cat: "host".to_string(),
        pid: 2,
        tid: 0,
        start: SimTime::from_nanos(start),
        end: SimTime::from_nanos(end),
        args: vec![("clock".to_string(), "host".to_string())],
    }));
    chrome_trace_json(&events)
}

/// Result of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    lines: Vec<String>,
}

fn run(args: &Args) -> BenchResult<Outcome> {
    let mut lines = Vec::new();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            let old: Box<dyn Workload> = old;
            old.into_world().shutdown();
        }
        let mut l = Ledger::default();
        let t = Instant::now();
        let w = workloads::setup(&args.workload, args.seed, &mut l)?;
        setup_times.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("SETUPS > 0");
    let setup_s = median_f64(&setup_times).expect("SETUPS > 0");
    lines.push(format!(
        "setup_s samples: {setup_times:?}; peak RSS after set-up {:.1} MiB",
        peak_rss_mib()
    ));

    let ctx = w.world().ctx.clone();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = Phase::run(w.as_mut(), untraced_s, false);
    let mut phases = vec![&untraced];

    // The traced half: spans on, counters diffed around it.
    let traced = args.trace.then(|| {
        let catalog = |w: &dyn Workload| {
            w.world()
                .cfg
                .catalog
                .as_ref()
                .and_then(|_| w.world().daemon.index().catalog())
                .map(portus::Catalog::stats)
        };
        let stats0 = ctx.stats.snapshot();
        let metrics0 = ctx.metrics.snapshot();
        let cat0 = catalog(w.as_ref());
        ctx.tracer.clear();
        ctx.tracer.enable();
        let p = Phase::run(w.as_mut(), args.seconds - untraced_s, true);
        ctx.tracer.disable();
        let spans = ctx.tracer.spans();
        ctx.tracer.clear();
        // One file per workload, overwritten by each traced run, and
        // capped: the start of the phase shows every stage, and a full
        // `many_models` phase would write ~100 MB.
        let trace_path = format!("perfbench/out/trace-{}.json", args.workload);
        let (virt, host) = (
            &spans[..spans.len().min(TRACE_SPANS)],
            &p.l.host_spans[..p.l.host_spans.len().min(TRACE_SPANS)],
        );
        if std::fs::create_dir_all("perfbench/out").is_ok()
            && std::fs::write(&trace_path, chrome_trace(virt, host)).is_ok()
        {
            lines.push(format!(
                "chrome trace: {trace_path} (first {} of {} virtual spans, {} of {} host spans)",
                virt.len(),
                spans.len(),
                host.len(),
                p.l.host_spans.len()
            ));
        }
        let metrics_end = w.world().conns[0]
            .client
            .stats()
            .unwrap_or_else(|_| ctx.metrics.snapshot());
        let counters = Counters {
            stats: ctx.stats.snapshot().since(&stats0),
            metrics_end,
            metrics_start: metrics0,
            catalog: cat0.zip(catalog(w.as_ref())),
        };
        (p, layers::attribute_spans(&spans), counters)
    });
    if let Some((p, _, _)) = &traced {
        phases.push(p);
    }

    // How full the namespace is at the end of the run.
    if let Ok(m) = w.world().conns[0].client.stats() {
        lines.push(format!(
            "space: used {:.1} MiB, free {:.1} MiB, largest free extent {:.1} MiB, {} models",
            m.pmem_used_bytes as f64 / MIB,
            m.pmem_free_bytes as f64 / MIB,
            m.pmem_largest_free_extent as f64 / MIB,
            w.world().models.len()
        ));
    }

    let replays = traced.as_ref().map(|_| {
        let r = layers::replay_layout(&w.layout());
        let daemon = &w.world().daemon;
        (
            r,
            layers::slot_checksum_gib_s(daemon, 64),
            layers::catalog_lookup_us(daemon, &w.name_stream()),
        )
    });

    lines.push(format!(
        "peak RSS after the timed phase {:.1} MiB",
        peak_rss_mib()
    ));
    let mut gate = Ledger::default();
    let durable = durability_gate(w.into_world(), &mut gate)?;
    lines.push(format!(
        "durability: {} models restored after LoseAll crash + recover ({:.3} s), {} failed",
        durable.checked, durable.recover_host_s, durable.failed
    ));

    let mut attempted = gate.attempted;
    let mut failed = gate.failed;
    let mut errors = gate.errors.clone();
    for p in &phases {
        attempted += p.l.attempted;
        failed += p.l.failed;
        errors.extend(p.l.errors.iter().cloned());
    }
    let mut correct = failed == 0 && attempted > 0 && untraced.l.ops > 0;

    let e2e = end_to_end(&untraced, setup_s, &mut lines);
    let metrics = match (&traced, replays) {
        (Some((p, spans, counters)), Some((r, slot_gib_s, lookup_us))) => {
            lines.push(format!(
                "attribution: {} requests, {:.4} vms of total, {} inexact",
                spans.requests,
                ms(spans.total_ns),
                spans.inexact
            ));
            correct &= spans.inexact == 0 && spans.requests > 0;
            for (name, v, unit) in &e2e {
                lines.push(format!("untraced {name} = {v} {unit}"));
            }
            per_layer(
                p,
                &untraced,
                spans,
                counters,
                &r,
                (slot_gib_s, durable.recover_host_s, lookup_us),
            )
        }
        _ => e2e,
    };
    for e in errors.iter().take(8) {
        lines.push(format!("error: {e}"));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which no metric should produce,
/// print as 0 so the line stays valid JSON).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Facts every result records, so a number can be traced to a build
/// and a machine.
fn provenance(seed: u64) -> String {
    format!(
        "{{\"seed\": {seed}, \"nproc\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_GIT_REV")),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench workload={} trace={} provenance={}",
        args.workload,
        u8::from(args.trace),
        provenance(args.seed)
    );
    for l in &out.lines {
        println!("{l}");
    }
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
