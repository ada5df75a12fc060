//! End-to-end test of the `portusctl` binary itself: build a device
//! image with real checkpoints, then drive the CLI the way a user
//! would.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use portus::{DaemonConfig, DedupConfig, Index, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_format::read_checkpoint;
use portus_mem::GpuDevice;
use portus_pmem::{load_image, save_image, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

/// Checkpoints one six-tensor model under `cfg` and saves the device
/// image into `dir`. Returns the image path and the checkpointed bytes
/// of every tensor, in layer order.
fn build_image(dir: &Path, cfg: DaemonConfig) -> (PathBuf, Vec<Vec<u8>>) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute);
    let spec = test_spec("cli-model", 6, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 9, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("cli-model").unwrap();
    let expect = model.tensors().iter().map(|t| t.buffer.to_vec()).collect();
    let image = dir.join("device.img");
    save_image(&pmem, &image).unwrap();
    (image, expect)
}

fn portusctl(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_portusctl"))
        .args(args)
        .output()
        .unwrap()
}

/// Dumps `cli-model` from `image` through the binary and asserts the
/// container holds exactly the checkpointed bytes.
fn assert_dump_matches(image: &Path, dumped: &Path, expect: &[Vec<u8>]) {
    let out = portusctl(&["dump".as_ref(), image, "cli-model".as_ref(), dumped]);
    assert!(out.status.success(), "dump failed: {out:?}");
    let file = std::fs::read(dumped).unwrap();
    let decoded = read_checkpoint(&file[..]).unwrap();
    assert_eq!(decoded.model_name, "cli-model");
    assert_eq!(decoded.tensors.len(), expect.len());
    for (i, ((_, got), want)) in decoded.tensors.iter().zip(expect).enumerate() {
        assert!(got == want, "tensor {i} differs from the checkpoint");
    }
}

#[test]
fn view_and_dump_via_the_binary() {
    let dir = std::env::temp_dir().join(format!("portusctl-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (image, expect) = build_image(&dir, DaemonConfig::default());

    // portusctl view IMAGE
    let out = portusctl(&["view".as_ref(), &image]);
    assert!(out.status.success(), "view failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cli-model"), "listing: {stdout}");
    assert!(stdout.contains("MODEL"), "header: {stdout}");

    // portusctl dump IMAGE MODEL OUT
    assert_dump_matches(&image, &dir.join("cli-model.ckpt"), &expect);

    // Error paths exit non-zero with a message.
    let out = portusctl(&[
        "dump".as_ref(),
        &image,
        "no-such-model".as_ref(),
        "/dev/null".as_ref(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));

    let out = portusctl(&[]);
    assert_eq!(out.status.code(), Some(2), "usage exit code");

    std::fs::remove_dir_all(&dir).ok();
}

/// A dedup daemon stores the sealed checkpoint as an extent map and
/// detaches its plain region (`data_off == 0`). `dump` must rebuild the
/// bytes from the extents instead of reading from device offset 0.
#[test]
fn dump_of_a_dedup_namespace_exports_the_checkpointed_bytes() {
    let dir = std::env::temp_dir().join(format!("portusctl-cli-dedup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = DaemonConfig {
        dedup: Some(DedupConfig::default()),
        ..DaemonConfig::default()
    };
    let (image, expect) = build_image(&dir, cfg);
    assert_dump_matches(&image, &dir.join("cli-model.ckpt"), &expect);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored checkpoint whose bytes no longer match the slot's integrity
/// word is refused with a typed error, and no container is written.
#[test]
fn dump_refuses_bytes_that_fail_the_integrity_check() {
    let dir = std::env::temp_dir().join(format!("portusctl-cli-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (image, _) = build_image(&dir, DaemonConfig::default());

    // Flip one payload byte on the image.
    let dev = load_image(SimContext::icdcs24(), &image).unwrap();
    let (index, map) = Index::recover(dev.clone()).unwrap();
    let (_, hdr) = index
        .load_mindex(map["cli-model"])
        .unwrap()
        .latest_done()
        .unwrap();
    let mut byte = [0u8; 1];
    dev.read(hdr.data_off, &mut byte).unwrap();
    byte[0] ^= 0xff;
    dev.write(hdr.data_off, &byte).unwrap();
    dev.persist(hdr.data_off, 1).unwrap();
    save_image(&dev, &image).unwrap();

    let dumped = dir.join("cli-model.ckpt");
    let err = portus::portusctl::dump(&image, "cli-model", &dumped).unwrap_err();
    assert!(
        matches!(err, PortusError::ChecksumMismatch { ref model, .. } if model == "cli-model"),
        "got {err:?}"
    );
    assert!(!dumped.exists(), "a corrupt dump must not leave a file");
    std::fs::remove_dir_all(&dir).ok();
}
