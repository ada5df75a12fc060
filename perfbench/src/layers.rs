//! Per-layer numbers for the traced run.
//!
//! Three sources, kept apart by the metric names' tags in the README:
//! the program's own virtual stage spans (attributed exclusively, see
//! [`crate::attrib`]); its counters ([`StatsSnapshot`],
//! [`MetricsSnapshot`], [`CatalogStats`]); and host-clock replays of the
//! workload's tensor layout through each layer's public functions.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use portus::{region_digest, CatalogStats, PortusDaemon};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Access, Fabric, NodeId, QueuePair, RegionTarget, SgEntry, MAX_SGE};
use portus_sim::{MetricsSnapshot, SimContext, SpanRecord, Stage, StatsSnapshot, TraceOp};

use crate::attrib::{attribute, DAEMON_PRECEDENCE, RPC_PRECEDENCE};

const GIB: f64 = (1u64 << 30) as f64;
/// Minimum host time one replay measures.
const REPLAY_MIN: Duration = Duration::from_millis(150);

/// Exclusive virtual time per datapath request, summed over the traced
/// phase.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Datapath requests (checkpoint, delta, restore) with a `total`.
    pub requests: u64,
    /// Exclusive ns per stage inside `total`.
    pub by_stage: HashMap<Stage, u64>,
    /// `total` ns no stage covers.
    pub unattributed_ns: u64,
    /// Summed `total` ns.
    pub total_ns: u64,
    /// Requests whose attributed + unattributed differed from `total`.
    pub inexact: u64,
    /// Dispatch-queue wait ns (before `total`).
    pub dispatch_wait_ns: u64,
    /// Client `rpc` ns outside the daemon's wait and work: the control
    /// round trip.
    pub rpc_transit_ns: u64,
    /// Summed `rpc` ns of restores (the client-visible restore minus
    /// these is the MR registration).
    pub restore_rpc_ns: u64,
    /// Repack passes and their summed span ns.
    pub repack_passes: u64,
    /// Summed repack span ns.
    pub repack_ns: u64,
}

/// Groups spans by request and attributes each request's `total` and
/// `rpc` windows.
pub fn attribute_spans(spans: &[SpanRecord]) -> SpanTotals {
    let mut out = SpanTotals::default();
    let mut by_req: HashMap<(TraceOp, u64, &str), Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if s.op == TraceOp::Repack {
            out.repack_passes += 1;
            out.repack_ns += s.duration().as_nanos();
            continue;
        }
        by_req
            .entry((s.op, s.req_id, s.model.as_str()))
            .or_default()
            .push(s);
    }
    for ((op, _, _), group) in by_req {
        let flat: Vec<(Stage, u64, u64)> = group
            .iter()
            .map(|s| (s.stage, s.start.as_nanos(), s.end.as_nanos()))
            .collect();
        let window = |stage: Stage| {
            group
                .iter()
                .find(|s| s.stage == stage)
                .map(|s| (s.start.as_nanos(), s.end.as_nanos()))
        };
        let Some(total) = window(Stage::Total) else {
            continue;
        };
        out.requests += 1;
        let a = attribute(total, &flat, DAEMON_PRECEDENCE);
        if a.attributed_ns() + a.unattributed_ns != total.1 - total.0 {
            out.inexact += 1;
        }
        for (stage, ns) in a.by_stage {
            *out.by_stage.entry(stage).or_default() += ns;
        }
        out.unattributed_ns += a.unattributed_ns;
        out.total_ns += a.window_ns;
        out.dispatch_wait_ns += flat
            .iter()
            .filter(|s| s.0 == Stage::DispatchWait)
            .map(|s| s.2 - s.1)
            .sum::<u64>();
        if let Some(rpc) = window(Stage::Rpc) {
            out.rpc_transit_ns += attribute(rpc, &flat, RPC_PRECEDENCE).unattributed_ns;
            if op == TraceOp::Restore {
                out.restore_rpc_ns += rpc.1 - rpc.0;
            }
        }
    }
    out
}

impl SpanTotals {
    /// Mean exclusive virtual ms per request of `stages`.
    pub fn per_op_ms(&self, stages: &[Stage]) -> f64 {
        let ns: u64 = stages
            .iter()
            .map(|s| self.by_stage.get(s).copied().unwrap_or(0))
            .sum();
        per(ns as f64 / 1e6, self.requests as f64)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter deltas over the traced phase.
pub struct Counters {
    /// Datapath counters.
    pub stats: StatsSnapshot,
    /// Metrics at the end of the phase (gauges are absolute).
    pub metrics_end: MetricsSnapshot,
    /// Metrics at the start of the phase.
    pub metrics_start: MetricsSnapshot,
    /// Catalog statistics at start and end, when a catalog is mounted.
    pub catalog: Option<(CatalogStats, CatalogStats)>,
}

impl Counters {
    /// Tenant-summed `(throttled, shed, admitted bytes)` added during
    /// the phase.
    pub fn qos(&self) -> (u64, u64, u64) {
        let sum = |m: &MetricsSnapshot| {
            m.tenants.iter().fold((0, 0, 0), |acc, t| {
                (
                    acc.0 + t.throttled_ops,
                    acc.1 + t.shed_ops,
                    acc.2 + t.admitted_bytes,
                )
            })
        };
        let (a, b) = (sum(&self.metrics_start), sum(&self.metrics_end));
        (
            b.0.saturating_sub(a.0),
            b.1.saturating_sub(a.1),
            b.2.saturating_sub(a.2),
        )
    }
}

/// Repeats `pass` (which returns the bytes it moved) until at least
/// [`REPLAY_MIN`] of host time and three passes have elapsed; returns
/// GiB per host second.
fn gib_per_s(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let (mut bytes, mut passes) = (0u64, 0);
    while passes < 3 || start.elapsed() < REPLAY_MIN {
        bytes += pass();
        passes += 1;
    }
    bytes as f64 / GIB / start.elapsed().as_secs_f64()
}

/// Host-clock replays of one workload's layout through `portus-rdma`,
/// `portus-pmem` and the index digest.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replays {
    /// `QueuePair::read_gather` GiB/s (GPU → PMem, runs of `MAX_SGE`).
    pub read_gather_gib_s: f64,
    /// `QueuePair::write_scatter` GiB/s (PMem → GPU).
    pub write_scatter_gib_s: f64,
    /// `PmemDevice::write` GiB/s.
    pub pmem_write_gib_s: f64,
    /// `PmemDevice::persist` GiB/s over the freshly written ranges.
    pub pmem_persist_gib_s: f64,
    /// `region_digest` GiB/s.
    pub digest_gib_s: f64,
}

/// Replays `layout` (tensor byte sizes, in index order) on a private
/// two-node fabric and namespace, so the measured world is untouched.
pub fn replay_layout(layout: &[u64]) -> Replays {
    let total: u64 = layout.iter().sum();
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let gpu_nic = fabric.add_nic(NodeId(0));
    let pm_nic = fabric.add_nic(NodeId(1));
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 * total + (1 << 20));
    let dev = PmemDevice::new(ctx.clone(), PmemMode::DevDax, total);
    let (qp, _peer) = QueuePair::connect(Arc::clone(&pm_nic), Arc::clone(&gpu_nic));
    let mut segs = Vec::with_capacity(layout.len());
    let mut data = Vec::with_capacity(layout.len());
    for (i, &len) in layout.iter().enumerate() {
        let buf = gpu.alloc(len).expect("replay GPU sized to the layout");
        let bytes: Vec<u8> = (0..len)
            .map(|b| (b as u8).wrapping_mul(31) ^ i as u8)
            .collect();
        buf.write_at(0, &bytes).expect("in bounds");
        let mr = gpu_nic.register(
            RegionTarget::Buffer(buf),
            Access {
                remote_read: true,
                remote_write: true,
            },
        );
        segs.push(SgEntry {
            rkey: mr.rkey(),
            offset: 0,
            len,
        });
        data.push(bytes);
    }
    // Runs of up to MAX_SGE tensors, contiguous on the device, as the
    // daemon coalesces them.
    let mut runs = Vec::new();
    let mut off = 0u64;
    for chunk in segs.chunks(MAX_SGE) {
        let len: u64 = chunk.iter().map(|s| s.len).sum();
        runs.push((
            chunk.to_vec(),
            RegionTarget::Pmem {
                dev: Arc::clone(&dev),
                base: off,
                len,
            },
        ));
        off += len;
    }
    let read_gather_gib_s = gib_per_s(|| {
        for (i, (segs, dst)) in runs.iter().enumerate() {
            qp.read_gather(segs, dst, 0, i == 0).expect("replay gather");
        }
        total
    });
    let write_scatter_gib_s = gib_per_s(|| {
        for (i, (segs, src)) in runs.iter().enumerate() {
            qp.write_scatter(segs, src, 0, i == 0)
                .expect("replay scatter");
        }
        total
    });
    let offsets: Vec<u64> = layout
        .iter()
        .scan(0u64, |o, &len| {
            let at = *o;
            *o += len;
            Some(at)
        })
        .collect();
    // Write and persist are timed separately but alternate, so every
    // persist pass flushes freshly written lines.
    let (mut write_t, mut persist_t, mut moved) = (Duration::ZERO, Duration::ZERO, 0u64);
    let start = Instant::now();
    let mut passes = 0;
    while passes < 3 || start.elapsed() < 2 * REPLAY_MIN {
        let t = Instant::now();
        for (bytes, &at) in data.iter().zip(&offsets) {
            dev.write(at, bytes).expect("replay write");
        }
        write_t += t.elapsed();
        let t = Instant::now();
        for (bytes, &at) in data.iter().zip(&offsets) {
            dev.persist(at, bytes.len() as u64).expect("replay persist");
        }
        persist_t += t.elapsed();
        moved += total;
        passes += 1;
    }
    let digest_gib_s = gib_per_s(|| {
        let mut acc = 0u64;
        for (bytes, &at) in data.iter().zip(&offsets) {
            acc = acc.wrapping_add(region_digest(bytes, at));
        }
        std::hint::black_box(acc);
        total
    });
    Replays {
        read_gather_gib_s,
        write_scatter_gib_s,
        pmem_write_gib_s: moved as f64 / GIB / write_t.as_secs_f64(),
        pmem_persist_gib_s: moved as f64 / GIB / persist_t.as_secs_f64(),
        digest_gib_s,
    }
}

/// `Index::slot_checksum` GiB/s over the latest complete version of up
/// to `max_models` live models of the measured daemon.
pub fn slot_checksum_gib_s(daemon: &PortusDaemon, max_models: usize) -> f64 {
    let index = daemon.index();
    let mut slots = Vec::new();
    for (_, off) in index.live_entries().unwrap_or_default() {
        if slots.len() >= max_models {
            break;
        }
        if let Ok(mi) = index.load_mindex(off) {
            if let Some((slot, hdr)) = mi.latest_done() {
                if hdr.data_off != 0 {
                    slots.push((mi, slot));
                }
            }
        }
    }
    if slots.is_empty() {
        return 0.0;
    }
    gib_per_s(|| {
        let mut bytes = 0;
        for (mi, slot) in &slots {
            if let Ok(sum) = index.slot_checksum(mi, *slot) {
                std::hint::black_box(sum);
                bytes += mi.slots[*slot].data_len;
            }
        }
        bytes
    })
}

/// Mean host µs of `Catalog::lookup` over `names` (0 without a catalog
/// or names).
pub fn catalog_lookup_us(daemon: &PortusDaemon, names: &[String]) -> f64 {
    let Some(cat) = daemon.index().catalog() else {
        return 0.0;
    };
    if names.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for n in names {
        std::hint::black_box(cat.lookup(n).ok());
    }
    t.elapsed().as_secs_f64() * 1e6 / names.len() as f64
}
