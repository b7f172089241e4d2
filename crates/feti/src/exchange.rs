//! The multi-node backend's PCPG boundary-exchange overlap model.

use sc_core::AssemblyReport;
use sc_fem::HeatProblem;
use sc_gpu::{NodePool, Stream};
use std::sync::{Arc, Mutex};

/// Simulated inter-node boundary exchange of the multi-node backend's
/// PCPG. Per dual-operator application each node receives its subdomains'
/// boundary multiplier values from its peers over its interconnect; the
/// exchange is posted **before** the local SYMVs are submitted, so queued
/// local work overlaps the transfer, and only the remainder a stream could
/// not hide is accumulated as stall time ([`exchange_stall_seconds`]).
/// Built only for a pool of two or more nodes: a single-node solve is
/// bitwise the cluster path.
///
/// [`exchange_stall_seconds`]: crate::PcpgStats::exchange_stall_seconds
pub(crate) struct ExchangeSim {
    pool: Arc<NodePool>,
    /// Per node, the streams carrying device-resident operators — the lanes
    /// whose SYMV results feed the global dual vector.
    streams: Vec<Vec<Stream>>,
    /// Boundary bytes entering each node per application.
    bytes_in: Vec<f64>,
    /// Stall seconds accumulated across applications; drained into the
    /// solve's statistics (uncontended: PCPG applies sequentially). A
    /// poisoned lock is recovered: the counter is a plain sum that every
    /// solve drains before it starts.
    stall: Mutex<f64>,
}

impl ExchangeSim {
    /// Collect each node's dependent streams and incoming boundary bytes
    /// from the multi-node assembly report.
    pub(crate) fn build(
        pool: &Arc<NodePool>,
        devices: &[Arc<sc_gpu::Device>],
        report: &AssemblyReport,
        problem: &HeatProblem,
    ) -> Self {
        let n = pool.n_nodes();
        let mut node_of = vec![0; devices.len()];
        for node in &report.nodes {
            for &d in &node.devices {
                node_of[d] = node.node;
            }
        }
        let mut streams: Vec<Vec<Stream>> = vec![Vec::new(); n];
        let mut seen: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut bytes_in = vec![0.0; n];
        for t in &report.subdomains {
            let Some(p) = t.placement else { continue };
            let node = node_of[p.device];
            // every application refreshes this subdomain's boundary
            // multipliers from the peers: 8 bytes per lambda row
            bytes_in[node] += 8.0 * problem.subdomains[t.index].n_lambda() as f64; // sc-analyze: allow(precision-discipline)
            if !seen[node].contains(&(p.device, p.stream)) {
                seen[node].push((p.device, p.stream));
                streams[node].push(devices[p.device].stream(p.stream));
            }
        }
        ExchangeSim {
            pool: Arc::clone(pool),
            streams,
            bytes_in,
            stall: Mutex::new(0.0),
        }
    }

    /// Post this application's exchanges: each node's incoming boundary
    /// data arrives `link.seconds(bytes_in)` after its streams' current
    /// frontier.
    pub(crate) fn begin(&self) -> Vec<f64> {
        self.pool
            .nodes()
            .iter()
            .enumerate()
            .map(|(d, ns)| {
                let t_send = self.streams[d].iter().map(|s| s.time()).fold(0.0, f64::max);
                t_send + ns.link.seconds(self.bytes_in[d])
            })
            .collect()
    }

    /// Close this application's exchanges after the local SYMVs were
    /// submitted: a stream whose queued work ends before its node's data
    /// arrival stalls for the remainder; work past the arrival hid the
    /// transfer entirely.
    pub(crate) fn finish(&self, arrivals: &[f64]) {
        let mut stalled = 0.0;
        for (d, lanes) in self.streams.iter().enumerate() {
            for s in lanes {
                let wait = arrivals[d] - s.time();
                if wait > 0.0 {
                    stalled += wait;
                    s.advance_to(arrivals[d]);
                }
            }
        }
        *self.stall.lock().unwrap_or_else(|e| e.into_inner()) += stalled;
    }

    /// Take the accumulated stall seconds, resetting the counter.
    pub(crate) fn drain(&self) -> f64 {
        std::mem::take(&mut *self.stall.lock().unwrap_or_else(|e| e.into_inner()))
    }
}
