//! Edge cases across the stack: degenerate models, capacity limits,
//! contended same-model operations, and typed errors over the wire.

use std::sync::Arc;

use portus::{repack, DaemonConfig, PortusClient, PortusDaemon, PortusError, TenantQos};
use portus_dnn::{test_spec, DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

struct World {
    fabric: Fabric,
    daemon: Arc<PortusDaemon>,
    gpu: Arc<GpuDevice>,
}

fn world(cfg: DaemonConfig, pmem_bytes: u64) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, pmem_bytes);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    World {
        fabric,
        daemon,
        gpu,
    }
}

#[test]
fn single_scalar_tensor_model() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let spec = ModelSpec::new("scalar", vec![TensorMeta::new("step", DType::I64, vec![])]);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    let r = client.checkpoint("scalar").unwrap();
    assert_eq!(r.bytes, 8);
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn mixed_dtype_model_round_trips() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let spec = ModelSpec::new(
        "mixed",
        vec![
            TensorMeta::new("w.f16", DType::F16, vec![33, 7]),
            TensorMeta::new("w.f64", DType::F64, vec![5]),
            TensorMeta::new("w.u8", DType::U8, vec![1023]),
            TensorMeta::new("w.i32", DType::I32, vec![2, 2, 2, 2]),
        ],
    );
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 2, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.tensor_checksums();
    client.checkpoint("mixed").unwrap();
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.tensor_checksums(), want);
}

#[test]
fn pmem_exhaustion_is_a_clean_daemon_error() {
    // Device too small for two slots of this model.
    let w = world(DaemonConfig::default(), 8 << 20);
    let spec = test_spec("hog", 2, 4 << 20); // 8 MiB payload, 16 MiB needed
    let model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let err = client.register_model(&model).unwrap_err();
    assert!(
        err.to_string().contains("out of persistent space"),
        "got: {err}"
    );
    // The daemon is still healthy for smaller models.
    let small = test_spec("small", 2, 64 * 1024);
    let small_model =
        ModelInstance::materialize(&small, &w.gpu, 4, Materialization::Owned).unwrap();
    client.register_model(&small_model).unwrap();
    client.checkpoint("small").unwrap();
}

#[test]
fn model_table_capacity_is_enforced() {
    let cfg = DaemonConfig {
        table_capacity: 2,
        ..DaemonConfig::default()
    };
    let w = world(cfg, 64 << 20);
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    for i in 0..2 {
        let spec = test_spec(&format!("m{i}"), 2, 4096);
        let m = ModelInstance::materialize(&spec, &w.gpu, i, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
    }
    let spec = test_spec("overflow", 2, 4096);
    let m = ModelInstance::materialize(&spec, &w.gpu, 9, Materialization::Owned).unwrap();
    let err = client.register_model(&m).unwrap_err();
    assert!(
        matches!(err, PortusError::CatalogFull { capacity: 2 }),
        "got: {err}"
    );
    // Dropping frees a table slot.
    client.drop_model("m0").unwrap();
    client.register_model(&m).unwrap();
}

#[test]
fn concurrent_checkpoints_of_the_same_model_serialize_safely() {
    // Two clients race checkpoints of one model; the per-model lock
    // must keep versions sequential and both slots valid.
    let w = world(DaemonConfig::default(), 128 << 20);
    let spec = test_spec("contested", 6, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    let c1 = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let c2 = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    c1.register_model(&model).unwrap();
    c2.register_model(&model).unwrap(); // same structure: accepted

    std::thread::scope(|s| {
        let h1 = s.spawn(|| {
            (0..4)
                .map(|_| c1.checkpoint("contested").unwrap().version)
                .collect::<Vec<_>>()
        });
        let h2 = s.spawn(|| {
            (0..4)
                .map(|_| c2.checkpoint("contested").unwrap().version)
                .collect::<Vec<_>>()
        });
        let mut versions: Vec<u64> = h1.join().unwrap();
        versions.extend(h2.join().unwrap());
        versions.sort_unstable();
        assert_eq!(
            versions,
            (1..=8).collect::<Vec<u64>>(),
            "versions must be unique and dense"
        );
    });

    let summary = &c1.list_models().unwrap()[0];
    assert_eq!(summary.latest_version, Some(8));
    assert_eq!(summary.valid_versions, 2);
    // Restore still verifies (checksum) under all that churn.
    c1.restore(&model).unwrap();
}

#[test]
fn checkpoint_restore_checkpoint_interleaving() {
    // Restoring between checkpoints must not disturb the slot rotation.
    let w = world(DaemonConfig::default(), 64 << 20);
    let spec = test_spec("interleave", 3, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 6, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();

    for v in 1..=4u64 {
        model.train_step();
        let r = client.checkpoint("interleave").unwrap();
        assert_eq!(r.version, v);
        let rr = client.restore(&model).unwrap();
        assert_eq!(rr.version, v);
    }
}

/// The model every typed-error case registers.
const TYPED: &str = "typed";

/// A fresh daemon with a client connected and a two-layer `TYPED`
/// model (128 KiB) registered.
fn registered(cfg: DaemonConfig) -> (World, PortusClient, ModelInstance) {
    let w = world(cfg, 32 << 20);
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec(TYPED, 2, 64 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    (w, client, model)
}

fn provoke_model_not_found() -> PortusError {
    let (_w, client, _) = registered(DaemonConfig::default());
    client.checkpoint("ghost").unwrap_err()
}

fn provoke_structure_mismatch() -> PortusError {
    let (_w, client, _) = registered(DaemonConfig::default());
    client.checkpoint_delta(TYPED, &[true; 3]).unwrap_err()
}

fn provoke_no_valid_checkpoint() -> PortusError {
    let (_w, client, model) = registered(DaemonConfig::default());
    client.restore(&model).unwrap_err()
}

fn provoke_name_too_long() -> PortusError {
    let w = world(DaemonConfig::default(), 32 << 20);
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec(&"x".repeat(300), 1, 4096);
    let model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap_err()
}

/// The checkpoint's idle slot is reclaimed, then the heap is filled:
/// the re-allocation finds nothing even after the daemon's own repack.
fn provoke_out_of_space() -> PortusError {
    let (w, client, mut model) = registered(DaemonConfig::default());
    model.train_step();
    client.checkpoint(TYPED).unwrap();
    client.mark_complete(TYPED).unwrap();
    assert_eq!(repack(&w.daemon, false).unwrap().reclaimed_slots, 1);
    let alloc = w.daemon.index().allocator();
    for chunk in [1u64 << 20, 64 << 10, 4 << 10] {
        while alloc.alloc_aligned(chunk, 4096, 0xF1FF).is_ok() {}
    }
    model.train_step();
    client.checkpoint(TYPED).unwrap_err()
}

/// A 4 KiB/s byte bucket admits the first 128 KiB checkpoint into
/// debt and sheds the second.
fn provoke_throttled() -> PortusError {
    let mut cfg = DaemonConfig::default();
    cfg.qos.default_tenant = TenantQos::limited_bytes(4096);
    let (_w, client, _) = registered(cfg);
    client.checkpoint(TYPED).unwrap();
    client.checkpoint(TYPED).unwrap_err()
}

/// Every handler error crosses the control channel as itself: the
/// client matches on the variant the daemon raised, never on a
/// `Daemon(_)` string.
#[test]
fn handler_errors_reach_the_client_as_their_own_variant() {
    type Case = (&'static str, fn() -> PortusError, fn(&PortusError) -> bool);
    let cases: [Case; 6] = [
        (
            "ModelNotFound",
            provoke_model_not_found,
            |e| matches!(e, PortusError::ModelNotFound(m) if m == "ghost"),
        ),
        ("StructureMismatch", provoke_structure_mismatch, |e| {
            matches!(e, PortusError::StructureMismatch(_))
        }),
        (
            "NoValidCheckpoint",
            provoke_no_valid_checkpoint,
            |e| matches!(e, PortusError::NoValidCheckpoint(m) if m == TYPED),
        ),
        ("NameTooLong", provoke_name_too_long, |e| {
            matches!(e, PortusError::NameTooLong(_))
        }),
        (
            "OutOfSpace",
            provoke_out_of_space,
            |e| matches!(e, PortusError::OutOfSpace { needed, free, .. } if free < needed),
        ),
        (
            "Throttled",
            provoke_throttled,
            |e| matches!(e, PortusError::Throttled { retry_after_ns } if *retry_after_ns > 0),
        ),
    ];
    for (variant, provoke, is_variant) in cases {
        let err = provoke();
        assert!(is_variant(&err), "expected {variant}, got {err:?}");
    }
}
