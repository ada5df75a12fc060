//! Criterion benchmark for the persistent index structures: the
//! allocator + MIndex operations.

use criterion::{criterion_group, criterion_main, Criterion};
use portus::Index;
use portus_dnn::{DType, TensorMeta};
use portus_pmem::{PmemDevice, PmemMode};
use portus_sim::SimContext;

fn bench_persistent_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_index");
    group.sample_size(20);

    let metas: Vec<TensorMeta> = (0..64)
        .map(|i| TensorMeta::new(format!("layer{i}.weight"), DType::F32, vec![1024]))
        .collect();

    // Steady-state create+remove cycle: criterion's warm-up runs tens of
    // thousands of iterations, which would exhaust any fixed ModelTable.
    group.bench_function("create_and_remove_model_64_layers", |b| {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 30);
        let index = Index::format(dev, 64, 256).unwrap();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let mi = index.create_model(&format!("m{n}"), &metas).unwrap();
            index.remove_model(&mi).unwrap();
        });
    });

    group.bench_function("load_mindex_64_layers", |b| {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 26);
        let index = Index::format(dev, 64, 256).unwrap();
        let mi = index.create_model("m", &metas).unwrap();
        b.iter(|| index.load_mindex(mi.offset).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_persistent_index);
criterion_main!(benches);
