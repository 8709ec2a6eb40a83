//! The workloads. BENCHMARK.json carries one sentence per workload on why it
//! was chosen; the operating points behind that sentence live here.

use dvbs2::channel::Modulation;
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::Modcod;

/// One MODCOD slot and the Eb/N0 its frames are transmitted at.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// The slot's MODCOD.
    pub modcod: Modcod,
    /// Operating point in dB.
    pub ebn0_db: f64,
}

/// How a workload drives the service tier.
#[derive(Debug, Clone, Copy)]
pub struct Serve {
    /// Pipeline shards behind the tier.
    pub shards: usize,
    /// Decode workers per shard.
    pub workers: usize,
    /// Registered tenants (tenant 0 is `LatencyBound` when set below).
    pub tenants: u32,
    /// Streams per tenant.
    pub streams_per_tenant: u32,
    /// Whether tenant 0 signs up as `LatencyBound`.
    pub latency_bound_tenant: bool,
    /// Outstanding frames in the closed-loop phase.
    pub window: usize,
    /// Offered rate of the open-loop phase, frames/s: about half of the
    /// capacity the closed loop measured on a 2-vCPU AVX-512 host.
    pub open_rate_hz: f64,
    /// Frames that fall due together in the open loop. Frames of a few
    /// milliseconds arriving one by one measure mostly the host's thread
    /// wake-up jitter; arriving in bursts, their latency is set by the
    /// service's own queueing.
    pub burst: u64,
    /// Latency limit of the open-loop phase (due time to in-order
    /// delivery), ms: about twice the p95 measured on a 2-vCPU AVX-512
    /// host, so `in_slo_frac` moves when the tail grows.
    pub latency_limit_ms: f64,
    /// Swap the MODCOD table every this many admitted frames.
    pub swap_every: Option<u64>,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The MODCOD slots, in table order; frames go round robin over them.
    pub slots: Vec<Slot>,
    /// Distinct generated frames per slot.
    pub pool: usize,
    /// Frames per slot the decoder and pipeline rungs of a traced run
    /// decode.
    pub rung_frames: usize,
    /// How the service tier is configured and driven.
    pub serve: Serve,
}

fn slot(modulation: Modulation, rate: CodeRate, frame: FrameSize, ebn0_db: f64) -> Slot {
    Slot { modcod: Modcod::new(modulation, rate, frame), ebn0_db }
}

/// Share of `--seconds` spent in the closed-loop phase; the open-loop
/// phase takes the rest.
pub const CLOSED_SHARE: f64 = 0.4;

/// The cores the load generator and the service are sized for.
pub const CORES: usize = 2;

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    use CodeRate::{R1_2, R3_4, R8_9};
    use FrameSize::Short;
    use Modulation::{Apsk16, Bpsk, Psk8, Qpsk};
    match name {
        // ROADMAP's baseline slots at their waterfalls: ~11 iterations and
        // ~76 ms of decode per frame, so the decoder is ~95 % of worker time.
        "waterfall_short" => Some(Workload {
            name: "waterfall_short",
            slots: vec![
                slot(Bpsk, R1_2, Short, 1.4),
                slot(Bpsk, R3_4, Short, 2.8),
                slot(Bpsk, R8_9, Short, 4.2),
            ],
            pool: 64,
            rung_frames: 16,
            serve: Serve {
                shards: 1,
                workers: CORES,
                tenants: 2,
                streams_per_tenant: 4,
                latency_bound_tenant: false,
                window: 64,
                open_rate_hz: 7.0,
                burst: 1,
                latency_limit_ms: 300.0,
                swap_every: None,
            },
        }),
        // R8/9 well above its waterfall on three constellations: frames
        // converge in <= 2 iterations, so per-frame costs of the pipeline
        // and service (ingress copy, routing, reorder, egress, demux) and
        // the table swaps are a ~20x larger share of the work.
        "clear_sky_swap" => Some(Workload {
            name: "clear_sky_swap",
            slots: vec![
                slot(Qpsk, R8_9, Short, 7.0),
                slot(Psk8, R8_9, Short, 10.0),
                slot(Apsk16, R8_9, Short, 12.0),
            ],
            pool: 64,
            rung_frames: 16,
            serve: Serve {
                shards: 2,
                workers: 1,
                tenants: 4,
                streams_per_tenant: 16,
                latency_bound_tenant: true,
                window: 32,
                open_rate_hz: 250.0,
                burst: 16,
                latency_limit_ms: 60.0,
                swap_every: Some(1500),
            },
        }),
        _ => None,
    }
}

/// Every workload name, as in BENCHMARK.json.
pub const NAMES: [&str; 2] = ["waterfall_short", "clear_sky_swap"];
