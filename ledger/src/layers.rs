//! Per-layer metrics drawn from a traced run's traffic: registry
//! deltas over the traced window, divided by what the clients saw.

use crate::stats::ratio;
use crate::{Metric, PER_LAYER};
use std::collections::BTreeMap;
use wnsk_obs::{names, Snapshot};

/// Named per-layer values, assembled into [`PER_LAYER`] order at the
/// end of a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn into_metrics(self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some(&v) if v.is_finite() => Ok(Metric::new(name, v, unit)),
                Some(v) => Err(format!("layer metric {name} is {v}")),
                None => Err(format!("layer metric {name} was not measured")),
            })
            .collect()
    }
}

/// What the clients of a traced window observed, plus the registry
/// deltas of every registry the window's layers publish into (one per
/// engine; a sharded plane has the coordinator's and one per shard).
#[derive(Debug, Default)]
pub struct Traffic {
    /// Operations completed (top-k, why-not, mutation).
    pub ops: u64,
    /// Σ client-observed operation latency, ns.
    pub op_ns: f64,
    /// Why-not questions answered.
    pub whynots: u64,
    /// Σ duration of the why-not calls into the solver layer as seen
    /// just outside it (the solver call itself, or the server's
    /// execution time for a served question), ns.
    pub whynot_call_ns: f64,
    pub deltas: Vec<Snapshot>,
}

impl Traffic {
    fn counter_suffix(&self, suffix: &str) -> f64 {
        self.deltas
            .iter()
            .flat_map(|d| d.counters.iter())
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, &v)| v as f64)
            .sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.deltas.iter().map(|d| d.counter(name) as f64).sum()
    }

    fn hist_sum_suffix(&self, suffix: &str) -> f64 {
        self.deltas
            .iter()
            .flat_map(|d| d.hists.iter())
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, h)| h.sum as f64)
            .sum()
    }

    fn timer_ns(&self, name: &str) -> f64 {
        self.deltas
            .iter()
            .map(|d| d.timer_total(name).as_nanos() as f64)
            .sum()
    }

    /// The storage, index and core metrics every workload's traffic
    /// produces.
    pub fn fill(&self, layers: &mut Layers) {
        let ops = self.ops as f64;
        let physical = self.counter_suffix(&format!(".pool.{}", names::PHYSICAL_READS));
        let logical = self.counter_suffix(&format!(".pool.{}", names::LOGICAL_READS));
        layers.set("storage.physical_reads", ratio(physical, ops));
        layers.set("storage.hit_frac", 1.0 - ratio(physical, logical));
        layers.set(
            "storage.read_share",
            ratio(
                self.hist_sum_suffix(&format!(".pool.{}", names::READ_LATENCY_NS)),
                self.op_ns,
            ),
        );
        for (metric, suffix) in [
            ("index.node_visits", names::NODE_VISITS),
            ("index.nodes_pruned", names::NODES_PRUNED),
            ("index.prune_maxdom", names::PRUNE_MAXDOM),
            ("index.prune_mindom", names::PRUNE_MINDOM),
        ] {
            layers.set(
                metric,
                ratio(self.counter_suffix(&format!(".{suffix}")), ops),
            );
        }

        let whynots = self.whynots as f64;
        let initial = self.timer_ns(names::PHASE_INITIAL_RANK);
        let enumeration = self.timer_ns(names::PHASE_ENUMERATION);
        let verification = self.timer_ns(names::PHASE_VERIFICATION);
        layers.set("core.initial_rank_ns", ratio(initial, whynots));
        layers.set("core.enumeration_ns", ratio(enumeration, whynots));
        layers.set("core.verification_ns", ratio(verification, whynots));
        // KcRBased enumerates inside its verification phase, so the
        // phases that partition a question's wall time are the initial
        // rank and verification; the rest is context set-up, merging
        // and (when served) cache lookups and rendering.
        layers.set(
            "core.other_ns",
            ratio(self.whynot_call_ns - initial - verification, whynots),
        );
        let candidates = self.counter(names::CORE_CANDIDATES);
        layers.set("core.candidates", ratio(candidates, whynots));
        // KcRBased counts a layer it skips whole as pruned without
        // counting it as generated, so this can exceed 1.
        layers.set(
            "core.prunes_per_candidate",
            ratio(
                self.counter(names::CORE_PRUNED_BOUND) + self.counter(names::CORE_PRUNED_FILTER),
                candidates,
            ),
        );
    }

    /// The serving-plane metrics. `server` is the flight recorder's
    /// Σ queue wait and Σ server time, ns; solve-* workloads have no
    /// server and pass `None`, which reports zero shares.
    pub fn fill_serve(&self, layers: &mut Layers, server: Option<(f64, f64)>) {
        let hits = self.counter(names::SERVE_CACHE_HITS);
        let misses = self.counter(names::SERVE_CACHE_MISSES);
        layers.set("serve.cache_hit_frac", ratio(hits, hits + misses));
        layers.set(
            "serve.cache_invalidated",
            ratio(
                self.counter(names::SERVE_CACHE_INVALIDATED),
                self.ops as f64,
            ),
        );
        let depth = self
            .deltas
            .iter()
            .filter_map(|d| d.hist(names::SERVE_QUEUE_DEPTH))
            .map(|h| h.p99() as f64)
            .fold(0.0, f64::max);
        layers.set("serve.queue_depth_p99", depth);
        let (queue_ns, wire_ns) = match server {
            Some((queue_ns, server_ns)) => (queue_ns, (self.op_ns - server_ns).max(0.0)),
            None => (0.0, 0.0),
        };
        layers.set("serve.queue_share", ratio(queue_ns, self.op_ns));
        layers.set("serve.wire_share", ratio(wire_ns, self.op_ns));
    }
}
