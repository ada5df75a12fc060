//! The stage-pipelined, multi-QP striped datapath: QP striping across
//! NIC DMA-engine lanes, the pipelined persist+checksum seal with its
//! incremental positional digest, and the guarantee that
//! `qps_per_connection = 1` keeps the classic datapath bit-for-bit.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId, RegionTarget, MAX_SGE};
use portus_sim::{SimContext, Stage};

const DAEMON_NODE: NodeId = NodeId(1);

struct World {
    ctx: SimContext,
    daemon: std::sync::Arc<PortusDaemon>,
    client: PortusClient,
}

/// One daemon + one client, both NICs with `engines` DMA engines, and
/// a registered model of `layers` adjacent tensors of `layer_bytes`,
/// already one train step in.
fn world(
    name: &str,
    layers: usize,
    layer_bytes: u64,
    engines: usize,
    cfg: DaemonConfig,
) -> (World, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic_with_engines(NodeId(0), engines);
    fabric.add_nic_with_engines(DAEMON_NODE, engines);
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    let spec = test_spec(name, layers, layer_bytes);
    let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    (
        World {
            ctx,
            daemon,
            client,
        },
        model,
    )
}

fn striped_cfg(qps: usize) -> DaemonConfig {
    DaemonConfig {
        qps_per_connection: qps,
        ..DaemonConfig::default()
    }
}

/// The replay half of the bit-for-bit guarantee: the exact scenario
/// whose Chrome trace was captured at the pre-striping HEAD, re-run on
/// today's datapath with the default `qps_per_connection = 1`, must
/// serialize to the identical JSON — same spans, same virtual
/// timestamps, byte for byte.
#[test]
fn single_qp_replays_the_golden_trace_bit_for_bit() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    ctx.tracer.enable();
    let client = PortusClient::connect(&daemon, fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("golden", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 17, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("golden").unwrap();
    model.train_step();
    client
        .checkpoint_delta("golden", &[true, false, true, false])
        .unwrap();
    model.train_step();
    client.restore(&model).unwrap();

    let golden = include_str!("golden/single_qp_trace.json");
    assert_eq!(
        ctx.tracer.to_chrome_trace(),
        golden,
        "qps_per_connection = 1 must keep the classic datapath bit-for-bit"
    );
    drop(client);
    daemon.shutdown();
}

/// One striped checkpoint against one classic checkpoint of the same
/// model: the striped datapath must finish strictly sooner in virtual
/// time, its seal must overlap fabric completions (non-zero pipeline
/// gauge), and the trace must show per-lane doorbells with persist
/// running while later completions are still draining.
#[test]
fn striped_checkpoint_overlaps_seal_with_the_fabric() {
    // 128 adjacent 128 KiB tensors = 16 MiB in 8 gather WQEs
    // (MAX_SGE = 16 tensors each): two waves per lane on 4 lanes.
    let layers = 8 * MAX_SGE;
    let (base_w, _m) = world("pipe", layers, 128 * 1024, 1, DaemonConfig::default());
    let classic = base_w.client.checkpoint("pipe").unwrap();

    let (w, _model) = world("pipe", layers, 128 * 1024, 4, striped_cfg(4));
    w.ctx.tracer.enable();
    let striped = w.client.checkpoint("pipe").unwrap();

    assert_eq!(striped.bytes, classic.bytes);
    assert!(
        striped.elapsed < classic.elapsed,
        "striping must beat the classic datapath: {:?} !< {:?}",
        striped.elapsed,
        classic.elapsed
    );

    // The persist+checksum stage ran while later WQEs were in flight.
    let overlap = w.ctx.metrics.snapshot().pipeline_overlap_permille;
    assert!(overlap > 0, "pipelined seal never overlapped the fabric");

    let spans = w.ctx.tracer.spans();
    let lanes: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain))
        .map(|s| s.lane)
        .collect();
    assert!(
        lanes.len() >= 2,
        "expected multi-lane drains, got {lanes:?}"
    );
    let persists: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Persist).collect();
    let checksums = spans.iter().filter(|s| s.stage == Stage::Checksum).count();
    assert_eq!(persists.len(), 8, "one persist span per run");
    assert_eq!(checksums, 8, "one checksum span per run");
    let last_drain_end = spans
        .iter()
        .filter(|s| s.stage == Stage::CqDrain)
        .map(|s| s.end)
        .max()
        .unwrap();
    assert!(
        persists.iter().any(|p| p.start < last_drain_end),
        "no persist span started before the last CQ drain ended"
    );

    drop(base_w.client);
    base_w.daemon.shutdown();
    drop(w.client);
    w.daemon.shutdown();
}

/// The headline number: two concurrent large-model checkpoints on a
/// 4-QP / 4-engine fabric finish in less than half the virtual time the
/// single-QP datapath needs for the same two checkpoints.
#[test]
fn concurrent_striped_checkpoints_double_throughput() {
    let layers = 8 * MAX_SGE;
    let bytes = 128 * 1024;

    // Baseline: classic datapath, the two checkpoints back to back.
    let base = {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let nic_a = fabric.add_nic(NodeId(0));
        let nic_b = fabric.add_nic(NodeId(2));
        fabric.add_nic(DAEMON_NODE);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon =
            PortusDaemon::start(&fabric, DAEMON_NODE, pmem, DaemonConfig::default()).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
        let mut ma = ModelInstance::materialize(
            &test_spec("a", layers, bytes),
            &gpu,
            7,
            Materialization::Owned,
        )
        .unwrap();
        let mut mb = ModelInstance::materialize(
            &test_spec("b", layers, bytes),
            &gpu,
            9,
            Materialization::Owned,
        )
        .unwrap();
        let ca = PortusClient::connect(&daemon, nic_a);
        let cb = PortusClient::connect(&daemon, nic_b);
        ca.register_model(&ma).unwrap();
        cb.register_model(&mb).unwrap();
        ma.train_step();
        mb.train_step();
        let t0 = ctx.clock.now();
        ca.checkpoint("a").unwrap();
        cb.checkpoint("b").unwrap();
        let elapsed = ctx.clock.now().saturating_since(t0);
        drop(ca);
        drop(cb);
        daemon.shutdown();
        elapsed
    };

    // Striped: same two checkpoints, in flight together.
    let striped = {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let nic_a = fabric.add_nic_with_engines(NodeId(0), 4);
        let nic_b = fabric.add_nic_with_engines(NodeId(2), 4);
        fabric.add_nic_with_engines(DAEMON_NODE, 4);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, striped_cfg(4)).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
        let mut ma = ModelInstance::materialize(
            &test_spec("a", layers, bytes),
            &gpu,
            7,
            Materialization::Owned,
        )
        .unwrap();
        let mut mb = ModelInstance::materialize(
            &test_spec("b", layers, bytes),
            &gpu,
            9,
            Materialization::Owned,
        )
        .unwrap();
        let ca = PortusClient::connect(&daemon, nic_a);
        let cb = PortusClient::connect(&daemon, nic_b);
        ca.register_model(&ma).unwrap();
        cb.register_model(&mb).unwrap();
        ma.train_step();
        mb.train_step();
        let t0 = ctx.clock.now();
        let pa = ca.checkpoint_async("a").unwrap();
        let pb = cb.checkpoint_async("b").unwrap();
        ca.wait_checkpoint("a", pa).unwrap();
        cb.wait_checkpoint("b", pb).unwrap();
        let elapsed = ctx.clock.now().saturating_since(t0);
        drop(ca);
        drop(cb);
        daemon.shutdown();
        elapsed
    };

    assert!(
        striped.as_nanos() * 2 <= base.as_nanos(),
        "expected >= 2x virtual-time speedup: striped {striped:?} vs baseline {base:?}"
    );
}

/// Restore validates checkpoints from **both** write paths: striped
/// checkpoints seal with the incrementally combined positional digest,
/// classic ones with the same digest computed over the whole region
/// after the pull — restore recomputes it and both round-trip the
/// model bytes exactly.
#[test]
fn restore_verifies_striped_and_single_qp_seals() {
    // Striped: the header carries the combined per-run digest.
    let (w, mut model) = world("digest", 32, 64 * 1024, 4, striped_cfg(4));
    let saved = model.model_checksum();
    w.client.checkpoint("digest").unwrap();
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (_, hdr) = mi.latest_done().unwrap();
    assert_ne!(hdr.digest, 0);
    model.train_step(); // diverge
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);

    // A striped delta checkpoint (fabric pulls + device-local carries,
    // each contributing its own partial digest) verifies the same way.
    let _ = model.take_dirty(); // v1 covered everything up to here
    let evens: Vec<usize> = (0..32).step_by(2).collect();
    model.train_step_sparse(&evens);
    let saved2 = model.model_checksum();
    let dirty = model.take_dirty();
    w.client.checkpoint_delta("digest", &dirty).unwrap();
    model.train_step();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 2);
    assert_eq!(model.model_checksum(), saved2);
    drop(w.client);
    w.daemon.shutdown();

    // Classic: the single-QP seal writes the same positional digest.
    let (w1, mut m1) = world("classic", 4, 4096, 1, DaemonConfig::default());
    let saved = m1.model_checksum();
    w1.client.checkpoint("classic").unwrap();
    let index = w1.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().unwrap();
    assert_ne!(hdr.digest, 0);
    assert!(index.slot_intact(&mi, slot).unwrap());
    m1.train_step();
    let r = w1.client.restore(&m1).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(m1.model_checksum(), saved);
    // A new version's content seals a different digest.
    m1.train_step();
    w1.client.checkpoint("classic").unwrap();
    let mi = index.load_mindex(off).unwrap();
    let (slot2, hdr2) = mi.latest_done().unwrap();
    assert!(index.slot_intact(&mi, slot2).unwrap());
    assert_ne!(hdr2.digest, hdr.digest, "content changed, digest must too");
    drop(w1.client);
    w1.daemon.shutdown();
}

/// A striped checkpoint of one 12 MiB tensor is one run, so the seal
/// pipe hashes it as one piece read back off PMem — split across cores
/// when the host has them. The sealed digest must equal a fresh
/// [`portus::Index::slot_checksum`], and the restore must verify and
/// round-trip the bytes.
#[test]
fn one_large_striped_run_seals_the_slot_digest() {
    let (w, mut model) = world("wide", 1, 12 << 20, 4, striped_cfg(4));
    let saved = model.model_checksum();
    w.client.checkpoint("wide").unwrap();
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().unwrap();
    assert_eq!(hdr.digest, index.slot_checksum(&mi, slot).unwrap());
    model.train_step(); // diverge
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);
    drop(w.client);
    w.daemon.shutdown();
}

/// The one integrity word end to end: a model's checksum is the
/// positional digest of its tensors laid out as in a slot, so after a
/// checkpoint it equals the sealed header word, a fresh
/// [`portus::Index::slot_checksum`] and the digest of the slot's PMem
/// window — on the one-QP and the striped datapath alike.
#[test]
fn model_digest_equals_the_sealed_slot_digest() {
    for qps in [1, 4] {
        let (w, model) = world("same", 8, 24 * 1024 + 12, 4, striped_cfg(qps));
        w.client.checkpoint("same").unwrap();
        let index = w.daemon.index();
        let (_, off) = index.live_entries().unwrap()[0];
        let mi = index.load_mindex(off).unwrap();
        let (slot, hdr) = mi.latest_done().unwrap();
        let sum = model.model_checksum();
        assert_eq!(sum, index.slot_checksum(&mi, slot).unwrap(), "{qps} QP(s)");
        assert_eq!(sum, hdr.digest, "{qps} QP(s)");
        let window = RegionTarget::Pmem {
            dev: index.device().clone(),
            base: hdr.data_off,
            len: hdr.data_len,
        };
        assert_eq!(window.checksum().unwrap(), sum, "{qps} QP(s)");
        drop(w.client);
        w.daemon.shutdown();
    }
}

/// Striping is config-only: a 4-QP connection over single-engine NICs
/// still produces correct checkpoints (the lanes all queue on the one
/// engine), and a 1-QP connection over many-engine NICs stays on the
/// classic path.
#[test]
fn striping_degrades_gracefully_with_mismatched_engines() {
    let (w, mut model) = world("mismatch", 8, 4096, 1, striped_cfg(4));
    let saved = model.model_checksum();
    w.client.checkpoint("mismatch").unwrap();
    model.train_step();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);
    drop(w.client);
    w.daemon.shutdown();

    let (w2, mut model2) = world("classic", 8, 4096, 4, DaemonConfig::default());
    w2.client.checkpoint("classic").unwrap();
    let index = w2.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().unwrap();
    assert!(index.slot_intact(&mi, slot).unwrap());
    model2.train_step();
    w2.client.checkpoint("classic").unwrap();
    let mi = index.load_mindex(off).unwrap();
    let (slot2, hdr2) = mi.latest_done().unwrap();
    assert!(index.slot_intact(&mi, slot2).unwrap());
    assert_ne!(hdr2.digest, hdr.digest, "content changed, digest must too");
    drop(model2);
    drop(w2.client);
    w2.daemon.shutdown();
}
