//! The four workloads. Each is a closed loop driven from the calling
//! thread: [`Workload::round`] sends the next requests only after the
//! previous ones completed. Every input — model contents, name
//! streams, Zipf picks, dirty masks — is derived from the seed.

mod bulk;
mod finetune;
mod many_models;
mod storm;

use portus_sim::SimRng;

use crate::world::{BenchResult, Ledger, World};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["bulk", "storm", "many_models", "finetune"];

/// A set-up workload.
pub trait Workload {
    /// One closed-loop round of requests.
    fn round(&mut self, l: &mut Ledger);
    /// The fixture (daemon, clients, models).
    fn world(&self) -> &World;
    /// Hands the fixture over for the durability gate.
    fn into_world(self: Box<Self>) -> World;
    /// Byte sizes of the tensors one round moves, in index order: the
    /// layout the per-layer host replays push through `portus-rdma`,
    /// `portus-pmem` and the index digests.
    fn layout(&self) -> Vec<u64>;
    /// Model names in the order the workload resolves them (replayed
    /// through the catalog); empty when no catalog is configured.
    fn name_stream(&self) -> Vec<String>;
}

/// Builds workload `name` from `seed`, registering and warming up its
/// models. Set-up operations go to `l`.
pub fn setup(name: &str, seed: u64, l: &mut Ledger) -> BenchResult<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "bulk" => Box::new(bulk::Bulk::setup(seed, l)?),
        "storm" => Box::new(storm::Storm::setup(seed, l)?),
        "many_models" => Box::new(many_models::ManyModels::setup(seed, l)?),
        "finetune" => Box::new(finetune::Finetune::setup(seed, l)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    if l.failed > 0 {
        return Err(format!("set-up failed: {:?}", l.errors).into());
    }
    Ok(w)
}

/// Zipf(`s`) sampler over ranks `0..n`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `k` distinct indices out of `0..n`, ascending, drawn from `rng`.
pub fn pick_distinct(rng: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.gen_range((n - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut out = all[..k].to_vec();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(7);
        let mut hits = vec![0u32; 1000];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
    }

    #[test]
    fn same_seed_same_picks() {
        let a = pick_distinct(&mut SimRng::new(3), 50, 5);
        let b = pick_distinct(&mut SimRng::new(3), 50, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
