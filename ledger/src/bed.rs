//! The solve-* test bed: a dataset with both disk-resident indexes, each
//! behind its own 4 MiB buffer pool, and the why-not question draw.
//!
//! Everything that defines the solve-* workloads lives here rather than
//! in a shared harness, so the benchmark changes only when this package
//! does.

use std::sync::Arc;
use std::time::Duration;
use wnsk_core::WhyNotQuestion;
use wnsk_data::workload::{generate_item, WorkloadSpec};
use wnsk_data::{generate, DatasetSpec, GeneratedData};
use wnsk_index::{KcrTree, SetRTree};
use wnsk_obs::{Registry, Tracer};
use wnsk_storage::{
    BufferPool, BufferPoolConfig, FaultBackend, FaultPlan, MemBackend, StorageBackend,
};

/// The paper's node capacity (§VII-A1).
pub const FANOUT: usize = 100;

/// A dataset with a SetR-tree and a KcR-tree over it. Both pools and
/// both trees publish into one registry under the engine's prefixes
/// (`setr.pool.`, `kcr.pool.`, `setr.`, `kcr.`) and trace into one
/// tracer.
pub struct Bed {
    pub data: GeneratedData,
    pub setr: SetRTree,
    pub kcr: KcrTree,
    pub registry: Registry,
}

impl Bed {
    /// Generates the dataset and bulk-loads both trees (4 KiB pages,
    /// 4 MiB pools). Every physical page read sleeps `read_latency`, the
    /// paper's disk-resident regime; zero reads straight from memory.
    /// The build is kept out of the trace, and `tracer` comes back
    /// disabled with its buffers empty.
    pub fn build(
        spec: &DatasetSpec,
        fanout: usize,
        read_latency: Duration,
        tracer: &Tracer,
    ) -> Result<Bed, String> {
        tracer.set_enabled(false);
        let data = generate(spec);
        let registry = Registry::new();
        let pool = |seed: u64, prefix: &str| {
            let backend: Arc<dyn StorageBackend> = if read_latency.is_zero() {
                Arc::new(MemBackend::new())
            } else {
                Arc::new(FaultBackend::new(
                    MemBackend::new(),
                    FaultPlan::new(seed).with_latency(read_latency, Duration::ZERO),
                ))
            };
            Arc::new(BufferPool::new_instrumented(
                backend,
                BufferPoolConfig::default(),
                &registry,
                prefix,
                tracer.clone(),
            ))
        };
        let mut setr = SetRTree::build(pool(1, "setr.pool."), &data.dataset, fanout)
            .map_err(|e| format!("SetR-tree build: {e}"))?;
        setr.register_metrics(&registry, "setr.");
        setr.set_tracer(tracer.clone());
        let mut kcr = KcrTree::build(pool(2, "kcr.pool."), &data.dataset, fanout)
            .map_err(|e| format!("KcR-tree build: {e}"))?;
        kcr.register_metrics(&registry, "kcr.");
        kcr.set_tracer(tracer.clone());
        let _ = tracer.drain();
        Ok(Bed {
            data,
            setr,
            kcr,
            registry,
        })
    }

    /// Draws up to `n` why-not questions from `spec`, one item seed
    /// after another; seeds whose draw cannot satisfy the spec are
    /// skipped.
    pub fn questions(&self, spec: &WorkloadSpec, n: usize, lambda: f64) -> Vec<WhyNotQuestion> {
        let mut out = Vec::with_capacity(n);
        let mut seed = spec.seed;
        for _ in 0..n * 40 {
            if out.len() == n {
                break;
            }
            seed = seed.wrapping_add(0x9E37_79B9);
            let item_spec = WorkloadSpec {
                seed,
                ..spec.clone()
            };
            if let Some(item) = generate_item(&self.data.dataset, &item_spec) {
                out.push(WhyNotQuestion::new(item.query, item.missing, lambda));
            }
        }
        out
    }

    /// Drops every cached page from both pools (the §VII cold protocol).
    pub fn clear_caches(&self) {
        self.setr.pool().clear_cache();
        self.kcr.pool().clear_cache();
    }
}
