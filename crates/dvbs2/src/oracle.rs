//! Differential decode oracle: cross-decoder equivalence fuzzing.
//!
//! The paper's evaluation rests on one invariant — the cycle-accurate core
//! is bit-identical to the algorithmic decoders — and PR 1 added a second
//! (f32) numeric path whose agreement was sampled, not enforced. This module
//! turns the invariant into a standing oracle: a seeded case generator
//! (rate × frame size × Eb/N0 × quantizer × arithmetic) runs one frame
//! through the full decoder matrix and checks explicit pairwise contracts.
//!
//! # Equivalence classes
//!
//! | class | members | contract |
//! |---|---|---|
//! | timed/untimed | [`HardwareDecoder`] ↔ [`GoldenModel`] | full [`DecodeResult`] equality plus per-iteration message-digest equality, bit for bit, converged or not, **with or without an injected [`RamFault`]** (both models carry the same fault) |
//! | boundary-exact | golden ↔ [`QuantizedZigzagDecoder`] in hardware-partitioned mode ([`hw_chain_partition`]) | full [`DecodeResult`] equality — the partition replays the 360 sub-chains and the schedule's per-check input order |
//! | fixed-point | golden ↔ one-lane [`QuantizedZigzagDecoder`] (LUT, the sequential zigzag) | agreement on *decoded words* only — the parallel golden model deliberately deviates from the one-lane chain at the 360 chain boundaries |
//! | float schedules | flooding / zigzag / layered (f64) | all converged members produce the same codeword |
//! | precision | engine f32 ↔ f64 (same schedule/rule) | both-converged ⇒ same codeword |
//! | bit flipping | [`BitFlippingDecoder`] alone | iteration cap; converged ⇒ clean syndrome and syndrome weight not above the channel hard decisions' — *never* word agreement (see `run_case`) |
//! | everyone | every soft decoder | `converged` ⇒ clean syndrome; iterations ≤ cap |
//! | timing | hardware cycle stats | must reproduce the [`simulate_cn_phase`] memory model at the case's fuzzed `p_io` |
//!
//! Converged decoders from *different* classes must also agree on the
//! decoded word: two distinct valid codewords would mean an undetected
//! error, which at DVB-S2 minimum distances does not happen at the
//! operating points the generator draws from.
//!
//! # Reproducing a failure
//!
//! Every violation carries the case's canonical one-line spec
//! ([`CaseSpec`]'s `Display`/`FromStr` round-trip). Feed it back with
//! `cargo run --release -p dvbs2-bench --bin diff_fuzz -- --repro '<spec>'`,
//! or shrink it first with [`shrink_case`].

use crate::{Dvbs2System, SystemConfig};
use dvbs2_channel::{mix_seed, Modulation};
use dvbs2_decoder::{
    syndrome_ok, syndrome_weight, BitFlippingDecoder, ChainPartition, CheckRule, DecodeResult,
    Decoder, DecoderConfig, FloodingDecoder, LayeredDecoder, Precision, QCheckArithmetic,
    QuantizedZigzagDecoder, Quantizer, SimdTier, ZigzagDecoder,
};
use dvbs2_hardware::{
    hw_chain_partition, optimize_schedule, simulate_cn_phase, AccessStats, AnnealOptions,
    Arbitration, CnSchedule, ConnectivityRom, CoreConfig, DecoderFabric, FabricConfig,
    FaultActivation, FaultScenario, FuFault, GoldenModel, HardwareDecoder, HwDecodeOutput,
    MemoryConfig, RamFault, TimedRamFault,
};
use dvbs2_ldpc::{BitVec, CodeRate, DvbS2Code, FrameSize, TannerGraph, PARALLELISM};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Check-node arithmetic selector for the quantized decoders under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithmeticKind {
    /// The paper's QBoxplus correction LUT.
    Lut,
    /// Shift-based normalized min-sum with the given shift (`alpha = 1 - 2^-shift`).
    MinSumShift(u32),
}

impl ArithmeticKind {
    fn build(self, quantizer: Quantizer) -> QCheckArithmetic {
        match self {
            ArithmeticKind::Lut => QCheckArithmetic::lut(quantizer),
            ArithmeticKind::MinSumShift(shift) => QCheckArithmetic::min_sum_shift(quantizer, shift),
        }
    }
}

impl fmt::Display for ArithmeticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithmeticKind::Lut => write!(f, "lut"),
            ArithmeticKind::MinSumShift(shift) => write!(f, "msshift{shift}"),
        }
    }
}

/// Which check-node processing order the timed decoders run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleKind {
    /// Row order as the connectivity ROM lists it.
    #[default]
    Natural,
    /// The annealer's conflict-minimized order (Section 3.2), computed with
    /// a fixed deterministic seed and a bounded move budget so cases stay
    /// reproducible and cheap.
    Annealed,
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::Natural => write!(f, "natural"),
            ScheduleKind::Annealed => write!(f, "annealed"),
        }
    }
}

/// One generated differential test case: everything needed to reproduce a
/// frame and the decoder matrix bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Per-case RNG seed (drives message bits and channel noise).
    pub seed: u64,
    /// Code rate.
    pub rate: CodeRate,
    /// Frame size.
    pub frame: FrameSize,
    /// Channel Eb/N0 in dB.
    pub ebn0_db: f64,
    /// Quantizer resolution in bits (5 or 6, the paper's two options).
    pub quantizer_bits: u32,
    /// Arithmetic for the min-sum quantized decoder under test.
    pub arithmetic: ArithmeticKind,
    /// Iteration cap for every decoder in the matrix.
    pub max_iterations: usize,
    /// Syndrome-based early termination for every decoder in the matrix.
    pub early_stop: bool,
    /// Check-node schedule for the timed decoders (hardware and golden).
    pub schedule: ScheduleKind,
    /// Memory subsystem (banks × write ports × FU latency) of the timed
    /// decoders; the cycle contracts are checked against this configuration,
    /// not the paper default.
    pub memory: MemoryConfig,
    /// I/O parallelism of the timed core — fuzzed so the
    /// `io_cycles == ceil(n / p_io)` contract is exercised at more than the
    /// paper's default of 10.
    pub p_io: usize,
    /// Channel modulation. 8PSK routes the frame through the DVB-S2 block
    /// interleaver and the max-log demapper, so interleaved LLR ordering
    /// reaches every decoder.
    pub modulation: Modulation,
    /// Fault scenario injected into *both* the timed core and the golden
    /// model (empty = healthy hardware): up to four concurrent RAM faults,
    /// each permanent, iteration-windowed, or probabilistically active per
    /// commit, plus an optional stuck FU output lane. Word addresses are
    /// reduced modulo the code's RAM size (and FU units modulo 360) at run
    /// time, so a spec stays valid when the shrinker demotes the frame
    /// size.
    pub fault: FaultScenario,
    /// Core count of the multi-core [`DecoderFabric`] cross-check (1 =
    /// single core, fabric contracts skipped). When above 1, the case frame
    /// plus `fabric - 1` derived frames run through a `fabric`-core fabric
    /// with a modeled interconnect, and every frame must stay bit-exact —
    /// results *and* per-iteration digests — against the single
    /// [`HardwareDecoder`], with cycle counts that decompose exactly and
    /// stay monotone-sane against the serial schedule.
    pub fabric: usize,
    /// SIMD dispatch tier forced on the software quantized lane decoder
    /// (`None` = auto-detect, the legacy behaviour). The generator never
    /// draws this dimension — the partition and fault sweeps fan every case
    /// out across *all* available tiers themselves — but a violation found
    /// at a specific tier records it here so the repro string replays the
    /// exact kernel that diverged.
    pub simd: Option<SimdTier>,
}

impl CaseSpec {
    /// The case's quantizer.
    pub fn quantizer(&self) -> Quantizer {
        match self.quantizer_bits {
            5 => Quantizer::paper_5bit(),
            _ => Quantizer::paper_6bit(),
        }
    }

    /// Deterministically generates case `index` of a run keyed by
    /// `master_seed`. The distribution is chosen to exercise both
    /// convergence regimes: Eb/N0 offsets from −0.4 dB (most frames fail)
    /// to +1.6 dB (most frames decode) around a per-rate anchor near the
    /// waterfall. Every eighth case uses a Normal frame at a reduced
    /// iteration cap; the rest are Short frames. Timed-decoder variation:
    /// about a third of Short-frame cases run an annealed check-node
    /// schedule (Normal frames keep the natural order — annealing them
    /// would dominate a run's cost), and memory configurations are drawn
    /// from a small set spanning starved (2 banks, 1 port) to generous
    /// (8 banks) subsystems.
    pub fn generate(master_seed: u64, index: u64) -> CaseSpec {
        let mut s = mix_seed(master_seed, index);
        let mut next = move || {
            // SplitMix64 output chain keyed off the mixed case seed.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let frame = if index % 8 == 7 { FrameSize::Normal } else { FrameSize::Short };
        let rate = loop {
            let r = CodeRate::ALL[(next() % CodeRate::ALL.len() as u64) as usize];
            // R 9/10 is defined only for Normal frames in the standard.
            if frame == FrameSize::Normal || r != CodeRate::R9_10 {
                break r;
            }
        };
        let offset = [-0.4, 0.0, 0.6, 1.6][(next() % 4) as usize];
        let max_iterations = match frame {
            FrameSize::Short => 4 + (next() % 5) as usize, // 4..=8
            FrameSize::Normal => 2 + (next() % 3) as usize, // 2..=4
        };
        let schedule = if frame == FrameSize::Short && next() % 3 == 0 {
            ScheduleKind::Annealed
        } else {
            ScheduleKind::Natural
        };
        let memory = match next() % 4 {
            0 => MemoryConfig { banks: 2, write_ports: 1, fu_latency: 3 },
            1 => MemoryConfig { banks: 4, write_ports: 2, fu_latency: 8 },
            2 => MemoryConfig { banks: 8, write_ports: 2, fu_latency: 4 },
            _ => MemoryConfig::default(),
        };
        let quantizer_bits = if next() % 4 == 0 { 5 } else { 6 };
        let arithmetic = ArithmeticKind::MinSumShift(1 + (next() % 3) as u32);
        let early_stop = next() % 4 != 0;
        // New dimensions draw strictly after the original ones, so a given
        // (master_seed, index) keeps its pre-PR-4 rate/frame/memory/... .
        let p_io = [4, 7, 16, 10][(next() % 4) as usize];
        // Exactly one draw keeps downstream dimensions aligned with runs
        // recorded before QPSK joined the pool; the APSK arms reuse the
        // values that previously mapped to extra BPSK weight, so the fault
        // draws below still see the same random stream.
        let modulation = match next() % 5 {
            0 => Modulation::Psk8,
            1 => Modulation::Qpsk,
            2 => Modulation::Apsk16,
            3 => Modulation::Apsk32,
            _ => Modulation::Bpsk,
        };
        let mut fault = FaultScenario::none();
        if next() % 4 == 0 {
            let word = (next() % 1024) as usize;
            let primary = if next() % 2 == 0 {
                RamFault::StuckWord { word, value: (next() % 63) as i32 - 31 }
            } else {
                RamFault::FlippedBits { word, mask: 1 + (next() % 31) as i32 }
            };
            // Scenario extensions draw strictly after the original fault
            // draws, so a given (master_seed, index) keeps its pre-PR-7
            // fault word and kind. Half the faulted cases stay permanent;
            // the rest become iteration-windowed or per-commit random
            // upsets.
            let activation = match next() % 4 {
                0 => {
                    let from = (next() % 3) as u32;
                    FaultActivation::Window { from, until: from + 1 + (next() % 4) as u32 }
                }
                1 => FaultActivation::Random {
                    seed: next() as u32,
                    per_mille: 50 + (next() % 451) as u32,
                },
                _ => FaultActivation::Permanent,
            };
            fault.push_ram(TimedRamFault { fault: primary, activation });
            // A third of faulted cases carry a second, independent
            // permanent defect to exercise multi-fault interaction.
            if next() % 3 == 0 {
                let word = (next() % 1024) as usize;
                let second = if next() % 2 == 0 {
                    RamFault::StuckWord { word, value: (next() % 63) as i32 - 31 }
                } else {
                    RamFault::FlippedBits { word, mask: 1 + (next() % 31) as i32 }
                };
                fault.push_ram(TimedRamFault::permanent(second));
            }
        }
        // Independent datapath-defect dimension: one in eight cases runs
        // with a stuck sign or magnitude lane in one functional unit.
        if next() % 8 == 0 {
            let unit = (next() % PARALLELISM as u64) as usize;
            let fu = if next() % 2 == 0 {
                FuFault::StuckSign { unit, negative: next() % 2 == 0 }
            } else {
                FuFault::StuckMag { unit, value: (next() % 32) as i32 }
            };
            fault.set_fu(Some(fu));
        }
        // Fabric dimension, drawn strictly after every earlier dimension
        // (append-only discipline, see the p_io comment above): about a
        // quarter of cases re-run the frame through a multi-core
        // DecoderFabric and cross-check it against the single core. Normal
        // frames cap at two cores — each extra core is a whole extra
        // Normal-frame decode plus its single-core reference.
        let fabric = match next() % 8 {
            0 => 2,
            1 => 4,
            2 => 3,
            _ => 1,
        };
        let fabric = if frame == FrameSize::Normal { fabric.min(2) } else { fabric };
        CaseSpec {
            seed: mix_seed(master_seed ^ 0x0DD5_B2C0_DEC0_DE00, index),
            rate,
            frame,
            // Denser symbol modulations sit further up in Eb/N0: roughly
            // +2 dB for 8PSK, +4.5 dB for 16APSK and +7 dB for 32APSK
            // relative to the BPSK/QPSK anchor at these rates, keeping both
            // convergence regimes populated for every constellation.
            ebn0_db: anchor_ebn0_db(rate) + offset + modulation_offset_db(modulation),
            quantizer_bits,
            arithmetic,
            max_iterations,
            early_stop,
            schedule,
            memory,
            p_io,
            modulation,
            fault,
            fabric,
            // Never drawn (append-only RNG discipline): the sweeps fan each
            // case across every available tier instead of sampling one.
            simd: None,
        }
    }
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frame = match self.frame {
            FrameSize::Normal => "normal",
            FrameSize::Short => "short",
        };
        let modulation = match self.modulation {
            Modulation::Bpsk => "bpsk",
            Modulation::Qpsk => "qpsk",
            Modulation::Psk8 => "8psk",
            Modulation::Apsk16 => "16apsk",
            Modulation::Apsk32 => "32apsk",
        };
        write!(
            f,
            // `{}` on f64 prints the shortest exactly-round-tripping form:
            // the repro string must reproduce the noise realization bit for
            // bit, so ebn0 cannot be rounded for display.
            "seed={} rate={} frame={frame} ebn0={} q={} arith={} iters={} early={} \
             sched={} mem={}x{}x{} pio={} mod={modulation}",
            self.seed,
            self.rate,
            self.ebn0_db,
            self.quantizer_bits,
            self.arithmetic,
            self.max_iterations,
            self.early_stop,
            self.schedule,
            self.memory.banks,
            self.memory.write_ports,
            self.memory.fu_latency,
            self.p_io,
        )?;
        // `fabric=1` (the single core, no fabric cross-check) is omitted so
        // repro strings recorded before the fabric dimension existed stay
        // the canonical spelling of the cases they name.
        if self.fabric > 1 {
            write!(f, " fabric={}", self.fabric)?;
        }
        // `simd=` is omitted when the tier is auto-detected, so repro
        // strings recorded before the SIMD dimension existed stay the
        // canonical spelling of the cases they name.
        if let Some(tier) = self.simd {
            write!(f, " simd={}", tier.name())?;
        }
        if self.fault.is_empty() {
            return Ok(());
        }
        // A single permanent RAM fault prints exactly as it did before the
        // scenario grammar existed, so historical repro strings stay the
        // canonical spelling of the cases they name.
        write!(f, " fault=")?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ",")
            }
        };
        for timed in self.fault.ram_faults() {
            sep(f)?;
            match timed.fault {
                RamFault::StuckWord { word, value } => write!(f, "stuck@{word}:{value}")?,
                RamFault::FlippedBits { word, mask } => write!(f, "flip@{word}:{mask}")?,
            }
            match timed.activation {
                FaultActivation::Permanent => {}
                FaultActivation::Window { from, until } => write!(f, "~{from}..{until}")?,
                FaultActivation::Random { seed, per_mille } => {
                    write!(f, "~p{per_mille}:{seed}")?;
                }
            }
        }
        if let Some(fu) = self.fault.fu_fault() {
            sep(f)?;
            match fu {
                FuFault::StuckSign { unit, negative } => {
                    write!(f, "fusign@{unit}:{}", if negative { '-' } else { '+' })?;
                }
                FuFault::StuckMag { unit, value } => write!(f, "fumag@{unit}:{value}")?,
            }
        }
        Ok(())
    }
}

/// Error parsing a [`CaseSpec`] repro string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError(String);

impl fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid case spec: {}", self.0)
    }
}

impl std::error::Error for ParseCaseError {}

impl FromStr for CaseSpec {
    type Err = ParseCaseError;

    /// Parses the `Display` form, e.g.
    /// `seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=msshift2 iters=6 early=true`.
    ///
    /// The `sched=`, `mem=BxPxL`, `pio=`, `mod=`, `fabric=`, `simd=` and
    /// `fault=` keys are optional and default to the natural schedule, the
    /// paper memory configuration, `p_io = 10`, BPSK, a single core (no
    /// fabric cross-check), an auto-detected SIMD tier, and healthy
    /// hardware, so repro strings recorded before those dimensions existed
    /// still parse. `simd=scalar|avx2|avx512` forces that dispatch tier on
    /// the software quantized lane decoder (replay panics if the host CPU
    /// lacks it, like `DVBS2_SIMD`).
    ///
    /// `fault=` takes a comma-separated list of fault atoms
    /// (`fault=none` is also accepted):
    ///
    /// * `stuck@WORD:VALUE` / `flip@WORD:MASK` — a RAM defect, permanent
    ///   unless followed by an activation suffix: `~FROM..UNTIL` confines
    ///   it to a half-open iteration window, `~pPER_MILLE:SEED` makes each
    ///   commit independently corrupt with probability `PER_MILLE/1000`;
    /// * `fusign@UNIT:+` / `fusign@UNIT:-` — a functional unit whose
    ///   output sign lane is stuck;
    /// * `fumag@UNIT:VALUE` — a functional unit whose output magnitude
    ///   lanes are stuck at `VALUE`.
    ///
    /// Pre-scenario strings (`fault=stuck@W:V`, `fault=flip@W:M`) are a
    /// strict subset of this grammar and keep their exact meaning.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let err = |what: &str| ParseCaseError(format!("{what} in {text:?}"));
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| err("missing '='"))?;
            fields.insert(key, value);
        }
        let get = |key: &str| fields.get(key).copied().ok_or_else(|| err(key));
        let arith = match get("arith")? {
            "lut" => ArithmeticKind::Lut,
            other => match other.strip_prefix("msshift").and_then(|s| s.parse().ok()) {
                Some(shift) => ArithmeticKind::MinSumShift(shift),
                None => return Err(err("arith")),
            },
        };
        let schedule = match fields.get("sched").copied() {
            None | Some("natural") => ScheduleKind::Natural,
            Some("annealed") => ScheduleKind::Annealed,
            Some(_) => return Err(err("sched")),
        };
        let memory = match fields.get("mem").copied() {
            None => MemoryConfig::default(),
            Some(spec) => {
                let mut parts = spec.split('x').map(|p| p.parse::<usize>());
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(Ok(banks)), Some(Ok(write_ports)), Some(Ok(fu_latency)), None)
                        if banks > 0 && write_ports > 0 =>
                    {
                        MemoryConfig { banks, write_ports, fu_latency }
                    }
                    _ => return Err(err("mem")),
                }
            }
        };
        let p_io = match fields.get("pio").copied() {
            None => 10,
            Some(spec) => match spec.parse::<usize>() {
                Ok(p) if p > 0 => p,
                _ => return Err(err("pio")),
            },
        };
        let modulation = match fields.get("mod").copied() {
            None | Some("bpsk") => Modulation::Bpsk,
            Some("qpsk") => Modulation::Qpsk,
            Some("8psk") => Modulation::Psk8,
            Some("16apsk") => Modulation::Apsk16,
            Some("32apsk") => Modulation::Apsk32,
            Some(_) => return Err(err("mod")),
        };
        let fabric = match fields.get("fabric").copied() {
            None => 1,
            Some(spec) => match spec.parse::<usize>() {
                Ok(p) if p > 0 => p,
                _ => return Err(err("fabric")),
            },
        };
        let simd = match fields.get("simd").copied() {
            None => None,
            Some("scalar") => Some(SimdTier::Scalar),
            Some("avx2") => Some(SimdTier::Avx2),
            Some("avx512") => Some(SimdTier::Avx512),
            Some(_) => return Err(err("simd")),
        };
        let fault = match fields.get("fault").copied() {
            None | Some("none") => FaultScenario::none(),
            Some(spec) => {
                let parse_pair = |body: &str| -> Option<(usize, i32)> {
                    let (word, arg) = body.split_once(':')?;
                    Some((word.parse().ok()?, arg.parse().ok()?))
                };
                let parse_activation = |suffix: &str| -> Option<FaultActivation> {
                    if let Some(body) = suffix.strip_prefix('p') {
                        let (per_mille, seed) = body.split_once(':')?;
                        Some(FaultActivation::Random {
                            seed: seed.parse().ok()?,
                            per_mille: per_mille.parse().ok()?,
                        })
                    } else {
                        let (from, until) = suffix.split_once("..")?;
                        Some(FaultActivation::Window {
                            from: from.parse().ok()?,
                            until: until.parse().ok()?,
                        })
                    }
                };
                let mut scenario = FaultScenario::none();
                for atom in spec.split(',') {
                    if let Some(body) = atom.strip_prefix("fusign@") {
                        let fu = match body.split_once(':') {
                            Some((unit, "+")) => FuFault::StuckSign {
                                unit: unit.parse().map_err(|_| err("fault"))?,
                                negative: false,
                            },
                            Some((unit, "-")) => FuFault::StuckSign {
                                unit: unit.parse().map_err(|_| err("fault"))?,
                                negative: true,
                            },
                            _ => return Err(err("fault")),
                        };
                        scenario.set_fu(Some(fu));
                    } else if let Some((unit, value)) =
                        atom.strip_prefix("fumag@").and_then(parse_pair)
                    {
                        scenario.set_fu(Some(FuFault::StuckMag { unit, value }));
                    } else {
                        let (base, activation) = match atom.split_once('~') {
                            Some((base, suffix)) => {
                                (base, parse_activation(suffix).ok_or_else(|| err("fault"))?)
                            }
                            None => (atom, FaultActivation::Permanent),
                        };
                        let ram = if let Some((word, value)) =
                            base.strip_prefix("stuck@").and_then(parse_pair)
                        {
                            RamFault::StuckWord { word, value }
                        } else if let Some((word, mask)) =
                            base.strip_prefix("flip@").and_then(parse_pair)
                        {
                            RamFault::FlippedBits { word, mask }
                        } else {
                            return Err(err("fault"));
                        };
                        if !scenario.push_ram(TimedRamFault { fault: ram, activation }) {
                            return Err(err("fault"));
                        }
                    }
                }
                scenario
            }
        };
        Ok(CaseSpec {
            seed: get("seed")?.parse().map_err(|_| err("seed"))?,
            rate: get("rate")?.parse().map_err(|_| err("rate"))?,
            frame: match get("frame")? {
                "normal" => FrameSize::Normal,
                "short" => FrameSize::Short,
                _ => return Err(err("frame")),
            },
            ebn0_db: get("ebn0")?.parse().map_err(|_| err("ebn0"))?,
            quantizer_bits: get("q")?.parse().map_err(|_| err("q"))?,
            arithmetic: arith,
            max_iterations: get("iters")?.parse().map_err(|_| err("iters"))?,
            early_stop: get("early")?.parse().map_err(|_| err("early"))?,
            schedule,
            memory,
            p_io,
            modulation,
            fault,
            fabric,
            simd,
        })
    }
}

/// Rough Eb/N0 (dB) of each rate's waterfall region — anchor for the
/// generator's offsets, not a calibrated threshold.
/// Generator Eb/N0 offset per modulation: denser constellations need more
/// SNR to keep the decodes-mostly/fails-mostly mix the offsets produce on
/// BPSK. QPSK shares the BPSK anchor (per-dimension identical channel).
fn modulation_offset_db(modulation: Modulation) -> f64 {
    match modulation {
        Modulation::Bpsk | Modulation::Qpsk => 0.0,
        Modulation::Psk8 => 2.0,
        Modulation::Apsk16 => 4.5,
        Modulation::Apsk32 => 7.0,
    }
}

fn anchor_ebn0_db(rate: CodeRate) -> f64 {
    match rate {
        CodeRate::R1_4 => 0.8,
        CodeRate::R1_3 => 0.9,
        CodeRate::R2_5 => 1.0,
        CodeRate::R1_2 => 1.4,
        CodeRate::R3_5 => 1.9,
        CodeRate::R2_3 => 2.4,
        CodeRate::R3_4 => 2.8,
        CodeRate::R4_5 => 3.2,
        CodeRate::R5_6 => 3.5,
        CodeRate::R8_9 => 4.2,
        CodeRate::R9_10 => 4.4,
    }
}

/// One violated contract, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the case in its run (0-based).
    pub case_index: u64,
    /// The generating case (its `Display` form is the repro string).
    pub case: CaseSpec,
    /// Short identifier of the violated contract.
    pub contract: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} [{}] {}: {}", self.case_index, self.contract, self.case, self.detail)
    }
}

/// Options for an oracle run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Seed of the whole run (each case derives its own stream).
    pub master_seed: u64,
    /// Number of generated cases.
    pub cases: u64,
    /// Worker threads (cases are independent; results are deterministic
    /// regardless of this value).
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { master_seed: 0xD1FF, cases: 64, threads: dvbs2_channel::default_threads() }
    }
}

/// Outcome of an oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Cases executed.
    pub cases: u64,
    /// Distinct code rates covered.
    pub rates_covered: Vec<CodeRate>,
    /// Distinct frame sizes covered.
    pub frames_covered: Vec<FrameSize>,
    /// All contract violations, ordered by case index.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// `true` when no contract was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Immutable per-(rate, frame) machinery: building the code, graph and ROM
/// dominates a case's cost, so these are shared by every schedule/memory
/// variant of the code point.
struct CodeContext {
    system: Dvbs2System,
    graph: Arc<TannerGraph>,
    rom: ConnectivityRom,
}

impl CodeContext {
    fn new(rate: CodeRate, frame: FrameSize) -> Self {
        let system = Dvbs2System::new(SystemConfig { rate, frame, ..SystemConfig::default() })
            .expect("generator only emits defined rate/frame combinations");
        let graph = Arc::clone(system.graph());
        let rom = ConnectivityRom::build(system.params(), system.code().table());
        CodeContext { system, graph, rom }
    }
}

/// Per-(rate, frame, schedule, memory) machinery layered over a shared
/// [`CodeContext`]: the check-node schedule (annealing one is itself
/// expensive) and the memory-model stats the timing contracts compare
/// against, both under the case's [`MemoryConfig`].
struct CaseContext {
    code: Arc<CodeContext>,
    schedule: CnSchedule,
    /// Check-phase stats of one iteration under this context's schedule
    /// and memory configuration.
    check_phase: AccessStats,
    /// Hardware chain partition for this schedule — lets the software
    /// decoder replay the golden model bit for bit (`hw_chain_partition`
    /// walks every check once, so it is cached with the schedule).
    partition: ChainPartition,
}

impl CaseContext {
    fn new(code: Arc<CodeContext>, kind: ScheduleKind, memory: MemoryConfig) -> Self {
        let schedule = match kind {
            ScheduleKind::Natural => CnSchedule::natural(&code.rom),
            // Fixed seed + bounded move budget: deterministic for a given
            // (rate, frame, memory) and cheap enough for fuzz runs while
            // still reordering rows substantially.
            ScheduleKind::Annealed => {
                optimize_schedule(
                    &code.rom,
                    memory,
                    AnnealOptions { moves: 600, ..AnnealOptions::default() },
                )
                .schedule
            }
        };
        let check_phase = simulate_cn_phase(memory, &schedule.read_sequence(), code.rom.row_len());
        let partition = hw_chain_partition(&code.rom, &schedule, &code.graph);
        CaseContext { code, schedule, check_phase, partition }
    }

    fn system(&self) -> &Dvbs2System {
        &self.code.system
    }

    fn graph(&self) -> &Arc<TannerGraph> {
        &self.code.graph
    }

    fn code(&self) -> &DvbS2Code {
        self.code.system.code()
    }
}

type CodeKey = ((u32, u32), usize);
type CaseKey = (CodeKey, ScheduleKind, (usize, usize, usize));

/// Two-level cache: code contexts by (rate, frame), case contexts by
/// (rate, frame, schedule, memory). A run mixing schedules and memory
/// configurations builds each expensive code context exactly once.
#[derive(Default)]
struct ContextCache {
    codes: Mutex<HashMap<CodeKey, Arc<CodeContext>>>,
    cases: Mutex<HashMap<CaseKey, Arc<CaseContext>>>,
}

fn code_key(rate: CodeRate, frame: FrameSize) -> CodeKey {
    (rate.fraction(), frame.codeword_len())
}

fn code_context_for(cache: &ContextCache, rate: CodeRate, frame: FrameSize) -> Arc<CodeContext> {
    let key = code_key(rate, frame);
    if let Some(ctx) = cache.codes.lock().expect("no panics hold the lock").get(&key) {
        return Arc::clone(ctx);
    }
    // Build outside the lock: Normal-frame contexts take a while and other
    // workers should not serialize on them.
    let built = Arc::new(CodeContext::new(rate, frame));
    let mut map = cache.codes.lock().expect("no panics hold the lock");
    Arc::clone(map.entry(key).or_insert(built))
}

fn context_for(
    cache: &ContextCache,
    rate: CodeRate,
    frame: FrameSize,
    kind: ScheduleKind,
    memory: MemoryConfig,
) -> Arc<CaseContext> {
    let key = (code_key(rate, frame), kind, (memory.banks, memory.write_ports, memory.fu_latency));
    if let Some(ctx) = cache.cases.lock().expect("no panics hold the lock").get(&key) {
        return Arc::clone(ctx);
    }
    let code = code_context_for(cache, rate, frame);
    let built = Arc::new(CaseContext::new(code, kind, memory));
    let mut map = cache.cases.lock().expect("no panics hold the lock");
    Arc::clone(map.entry(key).or_insert(built))
}

/// One decoder's outcome inside the matrix.
struct MatrixEntry {
    name: &'static str,
    result: DecodeResult,
    /// Whether this entry joins the converged-word agreement pool. Faulted
    /// timed decoders opt out: a corrupted RAM may legitimately settle on a
    /// different valid codeword than the healthy decoders.
    word_contract: bool,
}

/// Reduces a scenario's fault words into the code's RAM (and FU units into
/// the 360-wide array) so one repro string stays valid across frame sizes
/// (the shrinker demotes Normal to Short).
fn clamp_fault(fault: FaultScenario, words: usize) -> FaultScenario {
    let mut out = FaultScenario::none();
    for timed in fault.ram_faults() {
        let clamped = match timed.fault {
            RamFault::StuckWord { word, value } => {
                RamFault::StuckWord { word: word % words, value }
            }
            RamFault::FlippedBits { word, mask } => {
                RamFault::FlippedBits { word: word % words, mask }
            }
        };
        out.push_ram(TimedRamFault { fault: clamped, activation: timed.activation });
    }
    if let Some(fu) = fault.fu_fault() {
        out.set_fu(Some(match fu {
            FuFault::StuckSign { unit, negative } => {
                FuFault::StuckSign { unit: unit % PARALLELISM, negative }
            }
            FuFault::StuckMag { unit, value } => {
                FuFault::StuckMag { unit: unit % PARALLELISM, value }
            }
        }));
    }
    out
}

/// Runs the full decoder matrix on one generated case and returns any
/// contract violations (empty = clean).
pub fn run_case(case_index: u64, case: &CaseSpec) -> Vec<Violation> {
    let cache = ContextCache::default();
    run_case_with(case_index, case, &cache)
}

fn run_case_with(case_index: u64, case: &CaseSpec, cache: &ContextCache) -> Vec<Violation> {
    let ctx = context_for(cache, case.rate, case.frame, case.schedule, case.memory);
    let mut violations = Vec::new();
    let mut violate = |contract: &'static str, detail: String| {
        violations.push(Violation { case_index, case: *case, contract, detail });
    };

    let mut rng = SmallRng::seed_from_u64(case.seed);
    let frame = ctx.system().transmit_frame_with(&mut rng, case.ebn0_db, case.modulation);
    let quantizer = case.quantizer();
    let float_config = DecoderConfig {
        max_iterations: case.max_iterations,
        early_stop: case.early_stop,
        rule: CheckRule::SumProduct,
        precision: Precision::F64,
        simd: case.simd,
    };

    // --- the decoder matrix -------------------------------------------------
    let mut entries: Vec<MatrixEntry> = Vec::new();
    {
        let g = |precision| float_config.with_precision(precision);
        let mut push = |name: &'static str, result: DecodeResult| {
            entries.push(MatrixEntry { name, result, word_contract: true });
        };
        push(
            "flooding-f64",
            FloodingDecoder::new(Arc::clone(ctx.graph()), g(Precision::F64)).decode(&frame.llrs),
        );
        push(
            "flooding-f32",
            FloodingDecoder::new(Arc::clone(ctx.graph()), g(Precision::F32)).decode(&frame.llrs),
        );
        push(
            "zigzag-f64",
            ZigzagDecoder::new(Arc::clone(ctx.graph()), g(Precision::F64)).decode(&frame.llrs),
        );
        push(
            "zigzag-f32",
            ZigzagDecoder::new(Arc::clone(ctx.graph()), g(Precision::F32)).decode(&frame.llrs),
        );
        push(
            "layered-f64",
            LayeredDecoder::new(Arc::clone(ctx.graph()), g(Precision::F64)).decode(&frame.llrs),
        );
        // Min-sum engine kernel, both precisions (flooding routes min-sum
        // rules through the blocked two-pass kernel).
        let ms = float_config.with_rule(CheckRule::NormalizedMinSum(0.75));
        push(
            "flooding-ms-f64",
            FloodingDecoder::new(Arc::clone(ctx.graph()), ms).decode(&frame.llrs),
        );
        push(
            "flooding-ms-f32",
            FloodingDecoder::new(Arc::clone(ctx.graph()), ms.with_precision(Precision::F32))
                .decode(&frame.llrs),
        );
        // Fixed-point decoders.
        push(
            "qzigzag-lut",
            QuantizedZigzagDecoder::new(Arc::clone(ctx.graph()), quantizer, float_config)
                .decode(&frame.llrs),
        );
        push(
            "qzigzag-minsum",
            QuantizedZigzagDecoder::with_arithmetic(
                Arc::clone(ctx.graph()),
                case.arithmetic.build(quantizer),
                float_config,
            )
            .decode(&frame.llrs),
        );
    }

    // --- timed/untimed bit-exact class --------------------------------------
    let core_config = CoreConfig {
        quantizer,
        max_iterations: case.max_iterations,
        early_stop: case.early_stop,
        memory: case.memory,
        p_io: case.p_io,
    };
    let fault = clamp_fault(case.fault, ctx.code.rom.words());
    let mut hw = HardwareDecoder::new(ctx.code(), ctx.schedule.clone(), core_config);
    let mut golden = GoldenModel::new(
        ctx.code(),
        ctx.schedule.clone(),
        quantizer,
        case.max_iterations,
        case.early_stop,
    );
    hw.set_scenario(fault);
    golden.set_scenario(fault);
    let channel = hw.quantize_channel(&frame.llrs);
    let mut hw_trace = Vec::new();
    let mut golden_trace = Vec::new();
    let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
    let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
    if hw_out.result != golden_out {
        violate(
            "hw-golden-bitexact",
            format!(
                "hardware (converged={} iters={}) != golden (converged={} iters={}), {} differing bits",
                hw_out.result.converged,
                hw_out.result.iterations,
                golden_out.converged,
                golden_out.iterations,
                count_diff(&hw_out.result.bits, &golden_out.bits),
            ),
        );
    }
    if hw_trace != golden_trace {
        violate(
            "hw-golden-trace",
            format!(
                "per-iteration message digests diverged at iteration {} of {}",
                hw_trace.iter().zip(&golden_trace).position(|(a, b)| a != b).unwrap_or(0) + 1,
                hw_trace.len().max(golden_trace.len()),
            ),
        );
    }
    if case_index.is_multiple_of(16) {
        // Determinism spot check: an identical rerun must be bit-identical.
        let again = hw.decode_quantized(&channel);
        if again.result != hw_out.result || again.cycles != hw_out.cycles {
            violate("hw-determinism", "rerun of the same channel frame diverged".to_owned());
        }
    }
    // A faulted core opts out of the cross-decoder word pool: corrupted
    // messages may legitimately converge to a different valid codeword.
    entries.push(MatrixEntry {
        name: "hardware",
        result: hw_out.result.clone(),
        word_contract: fault.is_empty(),
    });

    // --- boundary-exact class: golden vs partitioned software decoder ------
    // The partitioned software decoder has no RAM to corrupt, so the
    // bit-exact comparison only holds against a healthy golden model.
    if fault.is_empty() {
        let mut partitioned = QuantizedZigzagDecoder::with_partition(
            Arc::clone(ctx.graph()),
            QCheckArithmetic::lut(quantizer),
            float_config,
            ctx.partition.clone(),
        );
        let part_out = partitioned.decode_quantized(&channel);
        if part_out != golden_out {
            violate(
                "golden-partitioned-bitexact",
                format!(
                    "partitioned qzigzag (converged={} iters={}) != golden (converged={} iters={}), {} differing bits",
                    part_out.converged,
                    part_out.iterations,
                    golden_out.converged,
                    golden_out.iterations,
                    count_diff(&part_out.bits, &golden_out.bits),
                ),
            );
        }
        entries.push(MatrixEntry {
            name: "qzigzag-partitioned",
            result: part_out,
            word_contract: true,
        });
    }

    // --- bit flipping: explicit weaker contract -----------------------------
    // Gallager-B is *deliberately* excluded from the converged-word pool:
    // when it converges, its hard decisions form a valid codeword, but from
    // a hard-decision channel several dB past its own threshold that
    // codeword is regularly a *different* one than the soft decoders agree
    // on (miscorrection), so word agreement would raise false alarms on
    // correct behavior. It also early-stops unconditionally (there is no
    // fixed-iteration mode to contract on). What it must guarantee: the cap
    // is respected, and a converged word leaves no unsatisfied check —
    // i.e. the syndrome weight never ends above the channel hard
    // decisions' starting weight.
    {
        let mut bitflip = BitFlippingDecoder::new(Arc::clone(ctx.graph()), float_config);
        let bf_out = bitflip.decode(&frame.llrs);
        if bf_out.iterations > case.max_iterations {
            violate(
                "iteration-cap",
                format!(
                    "bit-flipping: {} iterations > cap {}",
                    bf_out.iterations, case.max_iterations
                ),
            );
        }
        if bf_out.converged {
            let start: BitVec = frame.llrs.iter().map(|&l| l < 0.0).collect();
            let start_weight = syndrome_weight(ctx.graph(), &start);
            let end_weight = syndrome_weight(ctx.graph(), &bf_out.bits);
            if end_weight > start_weight {
                violate(
                    "bitflip-syndrome-weight",
                    format!(
                        "converged with syndrome weight {end_weight} above the channel's {start_weight}"
                    ),
                );
            }
            if end_weight != 0 {
                violate(
                    "converged-syndrome",
                    format!("bit-flipping: converged with {end_weight} unsatisfied checks"),
                );
            }
        }
    }

    // --- per-decoder contracts ----------------------------------------------
    for e in &entries {
        if e.result.iterations > case.max_iterations {
            violate(
                "iteration-cap",
                format!(
                    "{}: {} iterations > cap {}",
                    e.name, e.result.iterations, case.max_iterations
                ),
            );
        }
        if !case.early_stop && e.result.iterations != case.max_iterations {
            violate(
                "fixed-iterations",
                format!(
                    "{}: ran {} iterations with early_stop off (cap {})",
                    e.name, e.result.iterations, case.max_iterations
                ),
            );
        }
        if e.result.converged && !syndrome_ok(ctx.graph(), &e.result.bits) {
            violate("converged-syndrome", format!("{}: converged with a dirty syndrome", e.name));
        }
    }

    // --- cross-decoder agreement on converged words -------------------------
    if let Some(first) = entries.iter().find(|e| e.word_contract && e.result.converged) {
        for e in entries.iter().filter(|e| e.word_contract && e.result.converged) {
            if e.result.bits != first.result.bits {
                violate(
                    "converged-agreement",
                    format!(
                        "{} and {} both converged but differ in {} bits",
                        first.name,
                        e.name,
                        count_diff(&first.result.bits, &e.result.bits),
                    ),
                );
            }
        }
    }

    // --- timing contracts ----------------------------------------------------
    let cycles = &hw_out.cycles;
    let n = ctx.system().params().n;
    if cycles.io_cycles != n.div_ceil(core_config.p_io) {
        violate(
            "cycle-io",
            format!("io_cycles {} != ceil({n}/{})", cycles.io_cycles, core_config.p_io),
        );
    }
    if cycles.total_cycles
        != cycles.io_cycles + cycles.info_phase_cycles + cycles.check_phase_cycles
    {
        violate("cycle-total", format!("total {} is not io+info+check", cycles.total_cycles));
    }
    let per_iter = ctx.check_phase.total_cycles;
    if cycles.check_phase_cycles != cycles.iterations * per_iter {
        violate(
            "cycle-check-phase",
            format!(
                "check_phase_cycles {} != {} iterations x {per_iter} (simulate_cn_phase)",
                cycles.check_phase_cycles, cycles.iterations
            ),
        );
    }
    if cycles.max_buffer < ctx.check_phase.max_buffer {
        violate(
            "cycle-buffer",
            format!(
                "max_buffer {} below the memory model's check-phase bound {}",
                cycles.max_buffer, ctx.check_phase.max_buffer
            ),
        );
    }

    // --- fabric class: multi-core fabric vs the single core ------------------
    if case.fabric > 1 {
        violations.extend(fabric_contracts(
            case_index,
            case,
            &ctx,
            core_config,
            fault,
            &mut rng,
            &channel,
            &mut hw,
            &hw_out,
            &hw_trace,
            &golden_trace,
        ));
    }

    violations
}

/// The fabric contract set for one case with `case.fabric > 1`: the case
/// frame plus `fabric - 1` frames derived from the case's own RNG
/// continuation run through a `fabric`-core [`DecoderFabric`] (modeled
/// interconnect: link latency 2, round-robin bus). Timing and data are
/// separated by construction, so every frame must be bit-exact — full
/// output, cycle breakdown, and per-iteration digests — against a fresh
/// single-core decode, and the measured cycles must decompose exactly and
/// stay monotone-sane against the serial schedule.
#[allow(clippy::too_many_arguments)] // one call site per driver; a struct would just rename the list
fn fabric_contracts(
    case_index: u64,
    case: &CaseSpec,
    ctx: &CaseContext,
    core_config: CoreConfig,
    fault: FaultScenario,
    rng: &mut SmallRng,
    channel: &[i32],
    hw: &mut HardwareDecoder,
    hw_out: &HwDecodeOutput,
    hw_trace: &[u64],
    golden_trace: &[u64],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut violate = |contract: &'static str, detail: String| {
        violations.push(Violation { case_index, case: *case, contract, detail });
    };
    let n = ctx.system().params().n;
    let fabric_config = FabricConfig {
        cores: case.fabric,
        core: core_config,
        link_latency: 2,
        arbitration: Arbitration::RoundRobin { start: 0 },
        double_buffer: false,
    };
    let link = fabric_config.link_latency as u64;
    let mut fabric = DecoderFabric::new(ctx.code(), ctx.schedule.clone(), fabric_config);
    fabric.set_scenario(fault);
    let mut frames: Vec<Vec<i32>> = vec![channel.to_vec()];
    for _ in 1..case.fabric {
        let extra = ctx.system().transmit_frame_with(rng, case.ebn0_db, case.modulation);
        frames.push(hw.quantize_channel(&extra.llrs));
    }
    let mut fabric_traces: Vec<Vec<u64>> = Vec::new();
    let fab = fabric.decode_quantized_batch_traced(&frames, &mut fabric_traces);
    for (i, channel) in frames.iter().enumerate() {
        // Frame 0 already has its single-core reference (`hw_out`);
        // the derived frames get a fresh one from the same decoder.
        let mut single_trace = Vec::new();
        let single = if i == 0 {
            single_trace.extend_from_slice(hw_trace);
            hw_out.clone()
        } else {
            hw.decode_quantized_traced(channel, &mut single_trace)
        };
        if fab.outputs[i] != single {
            violate(
                    "fabric-hw-bitexact",
                    format!(
                        "frame {i}: fabric (converged={} iters={} cycles={}) != single core (converged={} iters={} cycles={}), {} differing bits",
                        fab.outputs[i].result.converged,
                        fab.outputs[i].result.iterations,
                        fab.outputs[i].cycles.total_cycles,
                        single.result.converged,
                        single.result.iterations,
                        single.cycles.total_cycles,
                        count_diff(&fab.outputs[i].result.bits, &single.result.bits),
                    ),
                );
        }
        if fabric_traces[i] != single_trace {
            violate(
                "fabric-hw-trace",
                format!(
                    "frame {i}: fabric digests diverged from the single core at iteration {} of {}",
                    fabric_traces[i]
                        .iter()
                        .zip(single_trace.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or(0)
                        + 1,
                    fabric_traces[i].len().max(single_trace.len()),
                ),
            );
        }
    }
    // Frame 0 must also line up with the untimed golden model's digests
    // (transitively true when fabric == hw and hw == golden, but checked
    // directly so a fabric divergence is attributed even when the
    // hw-golden contract fails in the same case).
    if fabric_traces[0] != golden_trace {
        violate(
            "fabric-golden-trace",
            "fabric frame 0 digests diverged from the golden model".to_owned(),
        );
    }
    // Cycle contracts: every span decomposes exactly into its parts,
    // per-frame decode occupancy matches the core's own breakdown, and
    // the makespan is monotone-sane — never slower than the serial
    // schedule (plus per-frame link crossings), never faster than the
    // shared bus allows.
    for (tm, out) in fab.timings.iter().zip(&fab.outputs) {
        let parts = tm.io_beats as u64
            + tm.load_stall_cycles
            + tm.input_wait_cycles
            + tm.decode_cycles as u64
            + 2 * link;
        if tm.span_cycles() != parts {
            violate(
                "fabric-span-decomposition",
                format!(
                    "frame {}: span {} != io {} + stall {} + wait {} + decode {} + 2x link {link}",
                    tm.frame,
                    tm.span_cycles(),
                    tm.io_beats,
                    tm.load_stall_cycles,
                    tm.input_wait_cycles,
                    tm.decode_cycles,
                ),
            );
        }
        if tm.decode_cycles != out.cycles.info_phase_cycles + out.cycles.check_phase_cycles {
            violate(
                "fabric-decode-cycles",
                format!(
                    "frame {}: fabric decode occupancy {} != core info {} + check {}",
                    tm.frame,
                    tm.decode_cycles,
                    out.cycles.info_phase_cycles,
                    out.cycles.check_phase_cycles,
                ),
            );
        }
        if tm.io_beats != n.div_ceil(core_config.p_io) {
            violate(
                "fabric-io-beats",
                format!("frame {}: {} beats != ceil({n}/{})", tm.frame, tm.io_beats, case.p_io),
            );
        }
    }
    let serial = DecoderFabric::serial_cycles(&fab.outputs) + fab.outputs.len() as u64 * 2 * link;
    if fab.stats.makespan_cycles > serial {
        violate(
            "fabric-makespan-monotone",
            format!(
                "{} cores took {} cycles, above the serial bound {serial}",
                case.fabric, fab.stats.makespan_cycles
            ),
        );
    }
    let total_beats = (frames.len() * n.div_ceil(core_config.p_io)) as u64;
    if fab.stats.bus_busy_cycles != total_beats {
        violate(
            "fabric-bus-beats",
            format!("bus busy {} cycles != {total_beats} frame beats", fab.stats.bus_busy_cycles),
        );
    }
    if fab.stats.makespan_cycles < total_beats {
        violate(
            "fabric-makespan-bus-bound",
            format!(
                "makespan {} below the bus serialization floor {total_beats}",
                fab.stats.makespan_cycles
            ),
        );
    }

    violations
}

fn count_diff(a: &BitVec, b: &BitVec) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    (0..a.len()).filter(|&i| a.get(i) != b.get(i)).count()
}

/// Runs `config.cases` generated cases across worker threads and collects
/// every contract violation. Deterministic for a given `master_seed`
/// regardless of `threads`.
pub fn run(config: &OracleConfig) -> OracleReport {
    let threads = config.threads.max(1);
    let next = AtomicUsize::new(0);
    let violations: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
    let cache = ContextCache::default();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed) as u64;
                if index >= config.cases {
                    break;
                }
                let case = CaseSpec::generate(config.master_seed, index);
                let found = run_case_with(index, &case, &cache);
                if !found.is_empty() {
                    violations.lock().expect("no panics hold the lock").extend(found);
                }
            });
        }
    });
    let mut violations = violations.into_inner().expect("all workers joined");
    violations.sort_by_key(|v| v.case_index);

    let mut rates_covered = Vec::new();
    let mut frames_covered = Vec::new();
    for index in 0..config.cases {
        let case = CaseSpec::generate(config.master_seed, index);
        if !rates_covered.contains(&case.rate) {
            rates_covered.push(case.rate);
        }
        if !frames_covered.contains(&case.frame) {
            frames_covered.push(case.frame);
        }
    }
    OracleReport { cases: config.cases, rates_covered, frames_covered, violations }
}

/// Forces a fault scenario onto a generated case: keeps the generator's
/// scenario when it drew one, otherwise derives a deterministic one from
/// the case seed. This is how the fault-differential sweep guarantees that
/// *every* case exercises the corrupted write path. Derived scenarios span
/// the full dimension: permanent, windowed and random activations, a
/// second concurrent defect, and stuck FU lanes.
fn force_fault(mut case: CaseSpec) -> CaseSpec {
    if case.fault.is_empty() {
        let x = mix_seed(case.seed, 0xFA07);
        let word = (x % 1024) as usize;
        let primary = if x & 1 == 0 {
            RamFault::StuckWord { word, value: ((x >> 10) % 63) as i32 - 31 }
        } else {
            RamFault::FlippedBits { word, mask: 1 + ((x >> 10) % 31) as i32 }
        };
        let activation = match (x >> 16) % 4 {
            0 => {
                let from = ((x >> 18) % 3) as u32;
                FaultActivation::Window { from, until: from + 1 + ((x >> 20) % 4) as u32 }
            }
            1 => FaultActivation::Random {
                seed: (x >> 24) as u32,
                per_mille: 50 + ((x >> 18) % 451) as u32,
            },
            _ => FaultActivation::Permanent,
        };
        case.fault.push_ram(TimedRamFault { fault: primary, activation });
        if (x >> 5).is_multiple_of(3) {
            let word = ((x >> 32) % 1024) as usize;
            case.fault.push_ram(TimedRamFault::permanent(if (x >> 6) & 1 == 0 {
                RamFault::StuckWord { word, value: ((x >> 42) % 63) as i32 - 31 }
            } else {
                RamFault::FlippedBits { word, mask: 1 + ((x >> 42) % 31) as i32 }
            }));
        }
        if (x >> 7).is_multiple_of(4) {
            let unit = ((x >> 48) % PARALLELISM as u64) as usize;
            case.fault.set_fu(Some(if (x >> 8) & 1 == 0 {
                FuFault::StuckSign { unit, negative: (x >> 9) & 1 == 0 }
            } else {
                FuFault::StuckMag { unit, value: ((x >> 56) % 32) as i32 }
            }));
        }
    }
    case
}

/// One fault-differential case: the faulted timed core against the equally
/// faulted golden model, bit for bit.
fn run_fault_case(case_index: u64, case: &CaseSpec, cache: &ContextCache) -> Vec<Violation> {
    let ctx = context_for(cache, case.rate, case.frame, case.schedule, case.memory);
    let mut violations = Vec::new();
    let mut violate = |contract: &'static str, detail: String| {
        violations.push(Violation { case_index, case: *case, contract, detail });
    };

    let mut rng = SmallRng::seed_from_u64(case.seed);
    let frame = ctx.system().transmit_frame_with(&mut rng, case.ebn0_db, case.modulation);
    let quantizer = case.quantizer();
    let core_config = CoreConfig {
        quantizer,
        max_iterations: case.max_iterations,
        early_stop: case.early_stop,
        memory: case.memory,
        p_io: case.p_io,
    };
    let fault = clamp_fault(case.fault, ctx.code.rom.words());
    let mut hw = HardwareDecoder::new(ctx.code(), ctx.schedule.clone(), core_config);
    let mut golden = GoldenModel::new(
        ctx.code(),
        ctx.schedule.clone(),
        quantizer,
        case.max_iterations,
        case.early_stop,
    );
    hw.set_scenario(fault);
    golden.set_scenario(fault);
    let channel = hw.quantize_channel(&frame.llrs);
    let mut hw_trace = Vec::new();
    let mut golden_trace = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
        let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
        (hw_out, golden_out)
    }));
    let (hw_out, golden_out) = match outcome {
        Err(_) => {
            violate("fault-panic", format!("{fault:?}: faulted decode panicked"));
            return violations;
        }
        Ok(pair) => pair,
    };
    if hw_out.result != golden_out {
        violate(
            "hw-golden-bitexact",
            format!(
                "{fault:?}: hardware (converged={} iters={}) != golden (converged={} iters={}), {} differing bits",
                hw_out.result.converged,
                hw_out.result.iterations,
                golden_out.converged,
                golden_out.iterations,
                count_diff(&hw_out.result.bits, &golden_out.bits),
            ),
        );
    }
    if hw_trace != golden_trace {
        violate(
            "hw-golden-trace",
            format!(
                "{fault:?}: message digests diverged at iteration {} of {}",
                hw_trace.iter().zip(&golden_trace).position(|(a, b)| a != b).unwrap_or(0) + 1,
                hw_trace.len().max(golden_trace.len()),
            ),
        );
    }
    // Graceful degradation still applies under the differential contract.
    if hw_out.result.iterations > case.max_iterations {
        violate("fault-hang", format!("{fault:?}: exceeded the iteration cap"));
    }
    if hw_out.result.converged && !syndrome_ok(ctx.graph(), &hw_out.result.bits) {
        violate("fault-syndrome", format!("{fault:?}: converged with a dirty syndrome"));
    }

    // --- software lane-path differential -------------------------------------
    // The partitioned software decoder has no RAM to corrupt, so the faulted
    // golden model is not its reference — but the fault sweep's config space
    // (arithmetic × quantizer × iteration caps × channel realizations) is
    // exactly where the SIMD lane kernels must stay transparent. Pin the
    // lane path against the scalar sweep at every available dispatch tier,
    // results and per-iteration digests.
    let sw_config = DecoderConfig {
        max_iterations: case.max_iterations,
        early_stop: case.early_stop,
        rule: CheckRule::SumProduct,
        precision: Precision::F64,
        simd: None,
    };
    let mut scalar = QuantizedZigzagDecoder::with_partition_scalar(
        Arc::clone(ctx.graph()),
        case.arithmetic.build(quantizer),
        sw_config,
        ctx.partition.clone(),
    );
    let mut scalar_trace = Vec::new();
    let scalar_out = scalar.decode_quantized_traced(&channel, &mut scalar_trace);
    for tier in SimdTier::available() {
        let mut lane = QuantizedZigzagDecoder::with_partition(
            Arc::clone(ctx.graph()),
            case.arithmetic.build(quantizer),
            sw_config.with_simd_tier(Some(tier)),
            ctx.partition.clone(),
        );
        let mut lane_trace = Vec::new();
        let lane_out = lane.decode_quantized_traced(&channel, &mut lane_trace);
        if lane_out != scalar_out || lane_trace != scalar_trace {
            let mut vcase = *case;
            vcase.simd = Some(tier);
            violations.push(Violation {
                case_index,
                case: vcase,
                contract: "simd-scalar-bitexact",
                detail: format!(
                    "{} lane path (converged={} iters={}) != scalar sweep \
                     (converged={} iters={}), {} differing bits, digests diverged at \
                     iteration {} of {}",
                    tier.name(),
                    lane_out.converged,
                    lane_out.iterations,
                    scalar_out.converged,
                    scalar_out.iterations,
                    count_diff(&lane_out.bits, &scalar_out.bits),
                    lane_trace.iter().zip(&scalar_trace).position(|(a, b)| a != b).unwrap_or(0) + 1,
                    lane_trace.len().max(scalar_trace.len()),
                ),
            });
        }
    }
    violations
}

/// Runs `config.cases` generated cases with a fault scenario forced onto
/// every one and checks the fault-differential contract: the faulted
/// [`HardwareDecoder`] must be bit-exact — decisions *and* per-iteration
/// message digests — against the equally-faulted [`GoldenModel`].
/// Deterministic for a given `master_seed` regardless of `threads`.
pub fn run_fault_differential(config: &OracleConfig) -> OracleReport {
    let threads = config.threads.max(1);
    let next = AtomicUsize::new(0);
    let violations: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
    let cache = ContextCache::default();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed) as u64;
                if index >= config.cases {
                    break;
                }
                let case = force_fault(CaseSpec::generate(config.master_seed, index));
                let found = run_fault_case(index, &case, &cache);
                if !found.is_empty() {
                    violations.lock().expect("no panics hold the lock").extend(found);
                }
            });
        }
    });
    let mut violations = violations.into_inner().expect("all workers joined");
    violations.sort_by_key(|v| v.case_index);

    let mut rates_covered = Vec::new();
    let mut frames_covered = Vec::new();
    for index in 0..config.cases {
        let case = CaseSpec::generate(config.master_seed, index);
        if !rates_covered.contains(&case.rate) {
            rates_covered.push(case.rate);
        }
        if !frames_covered.contains(&case.frame) {
            frames_covered.push(case.frame);
        }
    }
    OracleReport { cases: config.cases, rates_covered, frames_covered, violations }
}

/// Forces the fabric dimension onto a generated case: keeps the
/// generator's core count when it drew one, otherwise derives a
/// deterministic P ∈ {2, 3, 4} from the case seed. Normal frames demote to
/// Short (re-homing the Normal-only R 9/10 onto R 8/9) so a ≥1000-case
/// sweep stays affordable — the main oracle run covers Normal-frame
/// fabrics organically.
fn force_fabric(mut case: CaseSpec) -> CaseSpec {
    if case.fabric < 2 {
        case.fabric = 2 + (mix_seed(case.seed, 0xFAB0) % 3) as usize;
    }
    if case.frame == FrameSize::Normal {
        case.frame = FrameSize::Short;
        if case.rate == CodeRate::R9_10 {
            case.rate = CodeRate::R8_9;
        }
    }
    case
}

/// One fabric-differential case: the timed core and golden model must
/// agree as usual, and the multi-core fabric must satisfy the full fabric
/// contract set ([`fabric_contracts`]) on top.
fn run_fabric_case(case_index: u64, case: &CaseSpec, cache: &ContextCache) -> Vec<Violation> {
    let ctx = context_for(cache, case.rate, case.frame, case.schedule, case.memory);
    let mut violations = Vec::new();

    let mut rng = SmallRng::seed_from_u64(case.seed);
    let frame = ctx.system().transmit_frame_with(&mut rng, case.ebn0_db, case.modulation);
    let quantizer = case.quantizer();
    let core_config = CoreConfig {
        quantizer,
        max_iterations: case.max_iterations,
        early_stop: case.early_stop,
        memory: case.memory,
        p_io: case.p_io,
    };
    let fault = clamp_fault(case.fault, ctx.code.rom.words());
    let mut hw = HardwareDecoder::new(ctx.code(), ctx.schedule.clone(), core_config);
    let mut golden = GoldenModel::new(
        ctx.code(),
        ctx.schedule.clone(),
        quantizer,
        case.max_iterations,
        case.early_stop,
    );
    hw.set_scenario(fault);
    golden.set_scenario(fault);
    let channel = hw.quantize_channel(&frame.llrs);
    let mut hw_trace = Vec::new();
    let mut golden_trace = Vec::new();
    let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
    let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
    if hw_out.result != golden_out || hw_trace != golden_trace {
        violations.push(Violation {
            case_index,
            case: *case,
            contract: "hw-golden-bitexact",
            detail: format!(
                "single core diverged from golden before the fabric ran ({} differing bits)",
                count_diff(&hw_out.result.bits, &golden_out.bits),
            ),
        });
    }
    violations.extend(fabric_contracts(
        case_index,
        case,
        &ctx,
        core_config,
        fault,
        &mut rng,
        &channel,
        &mut hw,
        &hw_out,
        &hw_trace,
        &golden_trace,
    ));
    violations
}

/// Runs `config.cases` generated cases with the fabric dimension forced
/// onto every one — odd indices additionally carry a forced fault
/// scenario, so roughly half the sweep exercises the corrupted write path
/// through the fabric — and checks the single-core differential plus the
/// full fabric contract set. Deterministic for a given `master_seed`
/// regardless of `threads`.
pub fn run_fabric_sweep(config: &OracleConfig) -> OracleReport {
    let threads = config.threads.max(1);
    let next = AtomicUsize::new(0);
    let violations: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
    let cache = ContextCache::default();
    let case_for = |index: u64| {
        let case = force_fabric(CaseSpec::generate(config.master_seed, index));
        if index % 2 == 1 {
            force_fault(case)
        } else {
            case
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed) as u64;
                if index >= config.cases {
                    break;
                }
                let case = case_for(index);
                let found = run_fabric_case(index, &case, &cache);
                if !found.is_empty() {
                    violations.lock().expect("no panics hold the lock").extend(found);
                }
            });
        }
    });
    let mut violations = violations.into_inner().expect("all workers joined");
    violations.sort_by_key(|v| v.case_index);

    let mut rates_covered = Vec::new();
    let mut frames_covered = Vec::new();
    for index in 0..config.cases {
        let case = case_for(index);
        if !rates_covered.contains(&case.rate) {
            rates_covered.push(case.rate);
        }
        if !frames_covered.contains(&case.frame) {
            frames_covered.push(case.frame);
        }
    }
    OracleReport { cases: config.cases, rates_covered, frames_covered, violations }
}

/// Verifies the boundary-exact equivalence class across **every defined
/// rate/frame code point** — all 11 Normal-frame rates plus the 10
/// Short-frame rates (R 9/10 is Normal-only in the standard): the LUT
/// [`QuantizedZigzagDecoder`] over the hardware's 360-lane partition must reproduce
/// the [`GoldenModel`]'s full [`DecodeResult`] — decoded word, iteration
/// count and convergence flag — at two operating points per code point
/// (early-stopping above the waterfall, fixed-iteration below it). Each
/// point additionally runs the SIMD lane path at **every available dispatch
/// tier**, which must match the golden result and the scalar sweep's
/// per-iteration message digests; violations record the tier in the repro
/// string.
pub fn run_partition_sweep(master_seed: u64, threads: usize) -> OracleReport {
    const CONFIGS: [(f64, bool, usize); 2] = [(0.4, true, 8), (-0.4, false, 4)];
    let mut points: Vec<(CodeRate, FrameSize)> =
        CodeRate::ALL.iter().map(|&r| (r, FrameSize::Normal)).collect();
    points.extend(
        CodeRate::ALL.iter().filter(|&&r| r != CodeRate::R9_10).map(|&r| (r, FrameSize::Short)),
    );
    let total = (points.len() * CONFIGS.len()) as u64;
    let threads = threads.max(1);
    let next = AtomicUsize::new(0);
    let violations: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
    let cache = ContextCache::default();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed) as u64;
                if index >= total {
                    break;
                }
                let (rate, frame) = points[(index as usize) / CONFIGS.len()];
                let (offset, early_stop, max_iterations) = CONFIGS[(index as usize) % CONFIGS.len()];
                let case = CaseSpec {
                    seed: mix_seed(master_seed, index),
                    rate,
                    frame,
                    ebn0_db: anchor_ebn0_db(rate) + offset,
                    quantizer_bits: 6,
                    arithmetic: ArithmeticKind::Lut,
                    max_iterations,
                    early_stop,
                    schedule: ScheduleKind::Natural,
                    memory: MemoryConfig::default(),
                    p_io: 10,
                    modulation: Modulation::Bpsk,
                    fault: FaultScenario::none(),
                    fabric: 1,
                    simd: None,
                };
                let ctx =
                    context_for(&cache, case.rate, case.frame, case.schedule, case.memory);
                let mut rng = SmallRng::seed_from_u64(case.seed);
                let frame = ctx.system().transmit_frame(&mut rng, case.ebn0_db);
                let quantizer = case.quantizer();
                let mut golden = GoldenModel::new(
                    ctx.code(),
                    ctx.schedule.clone(),
                    quantizer,
                    case.max_iterations,
                    case.early_stop,
                );
                let sw_config = DecoderConfig {
                    max_iterations: case.max_iterations,
                    early_stop: case.early_stop,
                    rule: CheckRule::SumProduct,
                    precision: Precision::F64,
                    simd: None,
                };
                // Scalar sweep: the boundary-exact reference for both the
                // golden comparison and the per-tier digest comparison
                // (golden traces hash hardware RAM state, a different format,
                // so lane digests are pinned against the scalar sweep's).
                let mut scalar = QuantizedZigzagDecoder::with_partition_scalar(
                    Arc::clone(ctx.graph()),
                    QCheckArithmetic::lut(quantizer),
                    sw_config,
                    ctx.partition.clone(),
                );
                let channel = golden.quantize_channel(&frame.llrs);
                let golden_out = golden.decode_quantized(&channel);
                let mut scalar_trace = Vec::new();
                let scalar_out = scalar.decode_quantized_traced(&channel, &mut scalar_trace);
                if scalar_out != golden_out {
                    let v = Violation {
                        case_index: index,
                        case,
                        contract: "golden-partitioned-bitexact",
                        detail: format!(
                            "partitioned qzigzag (converged={} iters={}) != golden (converged={} iters={}), {} differing bits",
                            scalar_out.converged,
                            scalar_out.iterations,
                            golden_out.converged,
                            golden_out.iterations,
                            count_diff(&scalar_out.bits, &golden_out.bits),
                        ),
                    };
                    violations.lock().expect("no panics hold the lock").push(v);
                }
                // Every available SIMD dispatch tier must reproduce the
                // golden DecodeResult *and* the scalar sweep's per-iteration
                // message digests; a divergence records the tier in the
                // repro string.
                for tier in SimdTier::available() {
                    let mut lane = QuantizedZigzagDecoder::with_partition(
                        Arc::clone(ctx.graph()),
                        QCheckArithmetic::lut(quantizer),
                        sw_config.with_simd_tier(Some(tier)),
                        ctx.partition.clone(),
                    );
                    let mut lane_trace = Vec::new();
                    let lane_out = lane.decode_quantized_traced(&channel, &mut lane_trace);
                    if lane_out == golden_out
                        && lane_out == scalar_out
                        && lane_trace == scalar_trace
                    {
                        continue;
                    }
                    let v = Violation {
                        case_index: index,
                        case: CaseSpec { simd: Some(tier), ..case },
                        contract: "simd-partitioned-bitexact",
                        detail: format!(
                            "{} lane path (converged={} iters={}) != golden (converged={} iters={}) / scalar, {} differing bits vs golden, digests diverged at iteration {} of {}",
                            tier.name(),
                            lane_out.converged,
                            lane_out.iterations,
                            golden_out.converged,
                            golden_out.iterations,
                            count_diff(&lane_out.bits, &golden_out.bits),
                            lane_trace
                                .iter()
                                .zip(&scalar_trace)
                                .position(|(a, b)| a != b)
                                .unwrap_or(0)
                                + 1,
                            lane_trace.len().max(scalar_trace.len()),
                        ),
                    };
                    violations.lock().expect("no panics hold the lock").push(v);
                }
            });
        }
    });
    let mut violations = violations.into_inner().expect("all workers joined");
    violations.sort_by_key(|v| v.case_index);
    OracleReport {
        cases: total,
        rates_covered: CodeRate::ALL.to_vec(),
        frames_covered: vec![FrameSize::Normal, FrameSize::Short],
        violations,
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Outcome of the fault-injection sweep: decoders must degrade gracefully —
/// wrong bits at worst, never a panic, a hang, or a `converged` flag on a
/// dirty syndrome.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Fault scenarios executed.
    pub scenarios: usize,
    /// Contract violations (panics are caught and reported here).
    pub violations: Vec<Violation>,
}

impl FaultReport {
    /// `true` when every scenario degraded gracefully.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the fault-injection suite on one (rate, frame) point:
///
/// * stuck and bit-flipped RAM words in the hardware model, plus
///   multi-word, iteration-windowed, per-commit-random, and stuck-FU-lane
///   scenarios;
/// * an all-zero LLR frame (erased channel) through the whole matrix —
///   degrades to the all-zero codeword, which is valid, so decoders
///   legitimately report convergence;
/// * all-saturated LLR frames with adversarial random signs (floats use
///   large-but-finite magnitudes: infinities would turn check-node
///   gathers into `inf - inf = NaN`);
/// * a near-threshold noisy frame 0.4 dB below the rate's anchor.
pub fn run_fault_suite(rate: CodeRate, frame: FrameSize, master_seed: u64) -> FaultReport {
    let cache = ContextCache::default();
    let ctx = context_for(&cache, rate, frame, ScheduleKind::Natural, MemoryConfig::default());
    let mut report = FaultReport::default();
    let quantizer = Quantizer::paper_6bit();
    let core_config =
        CoreConfig { quantizer, max_iterations: 6, early_stop: true, ..CoreConfig::default() };
    let base = CaseSpec {
        seed: master_seed,
        rate,
        frame,
        ebn0_db: anchor_ebn0_db(rate),
        quantizer_bits: 6,
        arithmetic: ArithmeticKind::Lut,
        max_iterations: core_config.max_iterations,
        early_stop: true,
        schedule: ScheduleKind::Natural,
        memory: MemoryConfig::default(),
        p_io: 10,
        modulation: Modulation::Bpsk,
        fault: FaultScenario::none(),
        fabric: 1,
        simd: None,
    };
    let mut violate = |index: usize, contract: &'static str, detail: String| {
        report.violations.push(Violation {
            case_index: index as u64,
            case: base,
            contract,
            detail,
        });
    };

    let n = ctx.system().params().n;
    let mut rng = SmallRng::seed_from_u64(master_seed);
    let noisy = ctx.system().transmit_frame(&mut rng, base.ebn0_db - 0.4);

    // Fault scenarios on the near-threshold frame (the interesting regime:
    // the fault competes with real noise): stuck/flipped RAM words at
    // several positions, then multi-word, iteration-windowed, per-commit
    // random, and stuck-FU-lane scenarios.
    let words = ctx.code.rom.words();
    let singles = [
        RamFault::StuckWord { word: 0, value: quantizer.max_mag() },
        RamFault::StuckWord { word: words / 2, value: -quantizer.max_mag() },
        RamFault::StuckWord { word: words - 1, value: 0 },
        RamFault::FlippedBits { word: words / 3, mask: 0b1 },
        RamFault::FlippedBits { word: 2 * words / 3, mask: 0b11111 },
    ];
    let mut scenarios: Vec<FaultScenario> = singles.into_iter().map(FaultScenario::from).collect();
    scenarios.push(
        FaultScenario::single(RamFault::StuckWord { word: 0, value: quantizer.max_mag() })
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits {
                word: words / 2,
                mask: 0b111,
            })),
    );
    scenarios.push(FaultScenario::none().with_ram(TimedRamFault {
        fault: RamFault::StuckWord { word: words / 4, value: -quantizer.max_mag() },
        activation: FaultActivation::Window { from: 1, until: 3 },
    }));
    scenarios.push(FaultScenario::none().with_ram(TimedRamFault {
        fault: RamFault::FlippedBits { word: words / 5, mask: 0b1111 },
        activation: FaultActivation::Random { seed: master_seed as u32, per_mille: 250 },
    }));
    scenarios
        .push(FaultScenario::none().with_fu(Some(FuFault::StuckSign { unit: 17, negative: true })));
    scenarios.push(
        FaultScenario::single(RamFault::FlippedBits { word: words / 7, mask: 0b10 })
            .with_fu(Some(FuFault::StuckMag { unit: PARALLELISM - 1, value: 0 })),
    );
    for (i, fault) in scenarios.into_iter().enumerate() {
        report.scenarios += 1;
        let mut hw = HardwareDecoder::new(ctx.code(), ctx.schedule.clone(), core_config);
        hw.set_scenario(fault);
        let outcome = catch_unwind(AssertUnwindSafe(|| hw.decode(&noisy.llrs)));
        match outcome {
            Err(_) => violate(i, "fault-panic", format!("{fault:?}: decode panicked")),
            Ok(out) => {
                if out.result.iterations > core_config.max_iterations {
                    violate(i, "fault-hang", format!("{fault:?}: exceeded the iteration cap"));
                }
                if out.result.converged && !syndrome_ok(ctx.graph(), &out.result.bits) {
                    violate(
                        i,
                        "fault-syndrome",
                        format!("{fault:?}: converged with a dirty syndrome"),
                    );
                }
            }
        }
    }

    // Degenerate channel frames through the full matrix (no RAM fault).
    let zeros = vec![0.0f64; n];
    let mut saturated = vec![0.0f64; n];
    for (i, llr) in saturated.iter_mut().enumerate() {
        // Large but finite: +/-1e4 saturates every quantizer and drives the
        // float decoders to their plateaus without producing inf - inf.
        *llr = if mix_seed(master_seed, i as u64) & 1 == 0 { 1e4 } else { -1e4 };
    }
    for (name, llrs) in [("all-zero", &zeros), ("all-saturated", &saturated)] {
        report.scenarios += 1;
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let mut sub = Vec::new();
            let float_config = DecoderConfig {
                max_iterations: base.max_iterations,
                early_stop: true,
                rule: CheckRule::SumProduct,
                precision: Precision::F64,
                simd: None,
            };
            sub.push(FloodingDecoder::new(Arc::clone(ctx.graph()), float_config).decode(llrs));
            sub.push(
                ZigzagDecoder::new(
                    Arc::clone(ctx.graph()),
                    float_config.with_precision(Precision::F32),
                )
                .decode(llrs),
            );
            sub.push(LayeredDecoder::new(Arc::clone(ctx.graph()), float_config).decode(llrs));
            sub.push(
                QuantizedZigzagDecoder::new(Arc::clone(ctx.graph()), quantizer, float_config)
                    .decode(llrs),
            );
            let mut hw = HardwareDecoder::new(ctx.code(), ctx.schedule.clone(), core_config);
            sub.push(hw.decode(llrs).result);
            sub
        }));
        match checked {
            Err(_) => violate(10, "fault-panic", format!("{name} frame: a decoder panicked")),
            Ok(results) => {
                for r in results {
                    if r.iterations > base.max_iterations {
                        violate(10, "fault-hang", format!("{name}: exceeded the iteration cap"));
                    }
                    if r.converged && !syndrome_ok(ctx.graph(), &r.bits) {
                        violate(
                            10,
                            "fault-syndrome",
                            format!("{name}: converged with a dirty syndrome"),
                        );
                    }
                }
            }
        }
    }

    report
}

// ---------------------------------------------------------------------------
// Failure shrinking
// ---------------------------------------------------------------------------

/// Greedily reduces a failing case to a minimal reproducer, preserving its
/// identity (seed, rate, arithmetic — the parts that select *which* bug
/// fires) while shrinking everything that only makes the report bigger:
/// fewer iterations, Short instead of Normal frames, the default 6-bit
/// quantizer, fixed-iteration (`early_stop = false`) operation, the
/// natural schedule, the default memory configuration, the default
/// `p_io = 10`, BPSK modulation, and a simpler (or absent) fault scenario —
/// the FU fault drops first, then RAM faults drop one at a time,
/// activations simplify toward permanent, a stuck word shrinks toward
/// value `0`, and a flipped word toward mask `1`.
///
/// `still_fails` must return `true` when a candidate case still reproduces
/// the original failure; the shrinker keeps the smallest candidate that does.
pub fn shrink_case<F: FnMut(&CaseSpec) -> bool>(
    failing: &CaseSpec,
    mut still_fails: F,
) -> CaseSpec {
    let mut best = *failing;
    loop {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if best.max_iterations > 1 {
            candidates.push(CaseSpec { max_iterations: best.max_iterations / 2, ..best });
            candidates.push(CaseSpec { max_iterations: best.max_iterations - 1, ..best });
        }
        if best.frame == FrameSize::Normal && best.rate != CodeRate::R9_10 {
            candidates.push(CaseSpec { frame: FrameSize::Short, ..best });
        }
        if best.early_stop {
            candidates.push(CaseSpec { early_stop: false, ..best });
        }
        if best.quantizer_bits != 6 {
            candidates.push(CaseSpec { quantizer_bits: 6, ..best });
        }
        if best.schedule != ScheduleKind::Natural {
            candidates.push(CaseSpec { schedule: ScheduleKind::Natural, ..best });
        }
        if best.memory != MemoryConfig::default() {
            candidates.push(CaseSpec { memory: MemoryConfig::default(), ..best });
        }
        if best.p_io != 10 {
            candidates.push(CaseSpec { p_io: 10, ..best });
        }
        if best.modulation != Modulation::Bpsk {
            candidates.push(CaseSpec { modulation: Modulation::Bpsk, ..best });
        }
        if best.fabric > 1 {
            // Prefer dropping the fabric dimension outright; otherwise
            // shave one core at a time so a contention-dependent failure
            // keeps the smallest fabric that still shows it.
            candidates.push(CaseSpec { fabric: 1, ..best });
            candidates.push(CaseSpec { fabric: best.fabric - 1, ..best });
        }
        if best.simd.is_some() {
            // A failure that survives at the auto-detected tier is not
            // kernel-specific; drop the forced tier from the repro string.
            candidates.push(CaseSpec { simd: None, ..best });
        }
        if best.fault.fu_fault().is_some() {
            candidates.push(CaseSpec { fault: best.fault.with_fu(None), ..best });
        }
        let rams: Vec<TimedRamFault> = best.fault.ram_faults().copied().collect();
        let rebuild = |rams: &[TimedRamFault]| {
            let mut s = FaultScenario::none();
            for t in rams {
                s.push_ram(*t);
            }
            s.with_fu(best.fault.fu_fault())
        };
        for i in 0..rams.len() {
            // Drop fault `i` entirely (one fault shrinks to no fault).
            let mut fewer = rams.clone();
            fewer.remove(i);
            candidates.push(CaseSpec { fault: rebuild(&fewer), ..best });
            // Simplify fault `i` in place: activation toward permanent,
            // stuck value toward 0, flip mask toward 1.
            if rams[i].activation != FaultActivation::Permanent {
                let mut simpler = rams.clone();
                simpler[i].activation = FaultActivation::Permanent;
                candidates.push(CaseSpec { fault: rebuild(&simpler), ..best });
            }
            match rams[i].fault {
                RamFault::StuckWord { word, value } if value != 0 => {
                    let mut simpler = rams.clone();
                    simpler[i].fault = RamFault::StuckWord { word, value: 0 };
                    candidates.push(CaseSpec { fault: rebuild(&simpler), ..best });
                }
                RamFault::FlippedBits { word, mask } if mask != 1 => {
                    let mut simpler = rams.clone();
                    simpler[i].fault = RamFault::FlippedBits { word, mask: 1 };
                    candidates.push(CaseSpec { fault: rebuild(&simpler), ..best });
                }
                _ => {}
            }
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => best = smaller,
            None => return best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_draws_every_modulation_with_the_right_anchor() {
        let mut seen = [false; 5]; // [bpsk, qpsk, 8psk, 16apsk, 32apsk]
        for index in 0..200u64 {
            let case = CaseSpec::generate(0xC0FE, index);
            match case.modulation {
                Modulation::Bpsk => seen[0] = true,
                Modulation::Qpsk => seen[1] = true,
                Modulation::Psk8 => seen[2] = true,
                Modulation::Apsk16 => seen[3] = true,
                Modulation::Apsk32 => seen[4] = true,
            }
            // QPSK shares the BPSK anchor (per-dimension identical channel,
            // so no dB shift); the symbol modulations keep their density
            // offsets (+2 / +4.5 / +7 dB).
            let delta =
                case.ebn0_db - anchor_ebn0_db(case.rate) - modulation_offset_db(case.modulation);
            let offsets: &[f64] = &[-0.4, 0.0, 0.6, 1.6];
            assert!(
                offsets.iter().any(|&o| (delta - o).abs() < 1e-9),
                "index {index}: {} offset {delta}",
                case.modulation as u8,
            );
        }
        assert!(seen.iter().all(|&s| s), "modulation coverage: {seen:?}");
    }

    #[test]
    fn qpsk_cases_round_trip_through_their_repro_string() {
        let case = CaseSpec { modulation: Modulation::Qpsk, ..CaseSpec::generate(7, 3) };
        let parsed: CaseSpec = case.to_string().parse().unwrap();
        assert_eq!(parsed, case);
    }

    #[test]
    fn apsk_cases_round_trip_through_their_repro_string() {
        for modulation in [Modulation::Apsk16, Modulation::Apsk32] {
            let case = CaseSpec { modulation, ..CaseSpec::generate(7, 3) };
            let parsed: CaseSpec = case.to_string().parse().unwrap();
            assert_eq!(parsed, case);
            assert!(case.to_string().contains("apsk"), "{case}");
        }
    }

    #[test]
    fn pre_scenario_fault_strings_parse_to_the_same_single_fault() {
        // Backward-compatibility pin: every pre-scenario `fault=` spelling
        // must parse to a scenario holding exactly that single permanent
        // RAM fault — structurally equal to what the old `Option<RamFault>`
        // API injected (`set_fault` is defined as that conversion, so
        // structural equality pins behavioral identity) — and must print
        // back byte-identically.
        let base = CaseSpec { fault: FaultScenario::none(), ..CaseSpec::generate(7, 3) };
        for (spec, fault) in [
            ("stuck@421:-31", RamFault::StuckWord { word: 421, value: -31 }),
            ("stuck@0:0", RamFault::StuckWord { word: 0, value: 0 }),
            ("flip@97:31", RamFault::FlippedBits { word: 97, mask: 31 }),
            ("flip@1023:1", RamFault::FlippedBits { word: 1023, mask: 1 }),
        ] {
            let text = format!("{base} fault={spec}");
            let parsed: CaseSpec = text.parse().unwrap();
            assert_eq!(parsed.fault.as_single_permanent(), Some(fault), "{spec}");
            assert_eq!(parsed.fault, FaultScenario::from(fault), "{spec}");
            assert_eq!(parsed.to_string(), text, "legacy spelling must stay canonical");
        }
        let healthy: CaseSpec = format!("{base} fault=none").parse().unwrap();
        assert!(healthy.fault.is_empty());
    }

    #[test]
    fn scenario_fault_strings_round_trip() {
        let base = CaseSpec::generate(7, 3);
        let scenarios = [
            // Multi-fault with a window, plus a stuck FU sign lane.
            FaultScenario::none()
                .with_ram(TimedRamFault {
                    fault: RamFault::StuckWord { word: 12, value: -3 },
                    activation: FaultActivation::Window { from: 1, until: 4 },
                })
                .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 900, mask: 17 }))
                .with_fu(Some(FuFault::StuckSign { unit: 359, negative: true })),
            // Per-commit random upset.
            FaultScenario::none().with_ram(TimedRamFault {
                fault: RamFault::FlippedBits { word: 7, mask: 1 },
                activation: FaultActivation::Random { seed: 77, per_mille: 333 },
            }),
            // FU-only scenarios.
            FaultScenario::none().with_fu(Some(FuFault::StuckMag { unit: 0, value: 9 })),
            FaultScenario::none().with_fu(Some(FuFault::StuckSign { unit: 17, negative: false })),
            // A window that covers the power-on fill.
            FaultScenario::none().with_ram(TimedRamFault {
                fault: RamFault::StuckWord { word: 0, value: 31 },
                activation: FaultActivation::Window { from: 0, until: 1 },
            }),
        ];
        for scenario in scenarios {
            let case = CaseSpec { fault: scenario, ..base };
            let parsed: CaseSpec = case.to_string().parse().unwrap();
            assert_eq!(parsed, case, "{case}");
        }
    }

    #[test]
    fn generated_fault_scenarios_round_trip_and_cover_the_dimension() {
        let (mut multi, mut window, mut random, mut fu) = (false, false, false, false);
        for index in 0..400u64 {
            let case = CaseSpec::generate(0xFA01_7EE7, index);
            let parsed: CaseSpec = case.to_string().parse().unwrap();
            assert_eq!(parsed, case, "index {index}");
            multi |= case.fault.ram_fault_count() > 1;
            fu |= case.fault.fu_fault().is_some();
            for t in case.fault.ram_faults() {
                match t.activation {
                    FaultActivation::Window { .. } => window = true,
                    FaultActivation::Random { .. } => random = true,
                    FaultActivation::Permanent => {}
                }
            }
        }
        assert!(
            multi && window && random && fu,
            "coverage: multi={multi} window={window} random={random} fu={fu}"
        );
    }

    #[test]
    fn forced_faults_are_never_empty_and_span_the_dimension() {
        let (mut extended, mut fu) = (false, false);
        for index in 0..200u64 {
            let case = force_fault(CaseSpec::generate(0xD1FF, index));
            assert!(!case.fault.is_empty(), "index {index}");
            extended |= case.fault.as_single_permanent().is_none();
            fu |= case.fault.fu_fault().is_some();
        }
        assert!(extended && fu, "forced coverage: extended={extended} fu={fu}");
    }

    #[test]
    fn fabric_dimension_round_trips_and_is_forced_in_the_sweep() {
        let mut multi = false;
        for index in 0..200u64 {
            let case = CaseSpec::generate(0xFAB, index);
            let parsed: CaseSpec = case.to_string().parse().unwrap();
            assert_eq!(parsed, case, "index {index}");
            multi |= case.fabric > 1;
            if case.fabric > 1 {
                assert!(case.to_string().contains(" fabric="), "{case}");
            } else {
                assert!(!case.to_string().contains("fabric="), "{case}");
            }
            let forced = force_fabric(case);
            assert!((2..=4).contains(&forced.fabric), "index {index}: P={}", forced.fabric);
            assert_eq!(forced.frame, FrameSize::Short, "the sweep demotes Normal frames");
            assert_ne!(forced.rate, CodeRate::R9_10, "R9/10 re-homes with the frame");
        }
        assert!(multi, "the generator must draw multi-core fabrics");
        // Legacy strings parse with fabric defaulting to the single core;
        // a zero core count is rejected, not defaulted.
        let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=true";
        assert_eq!(legacy.parse::<CaseSpec>().unwrap().fabric, 1);
        assert_eq!(format!("{legacy} fabric=4").parse::<CaseSpec>().unwrap().fabric, 4);
        assert!(format!("{legacy} fabric=0").parse::<CaseSpec>().is_err(), "zero cores");
    }

    #[test]
    fn simd_dimension_round_trips_and_defaults_to_auto() {
        // The generator never draws the dimension (append-only RNG
        // discipline: adding `simd=` must not shift any existing stream),
        // so a generated case omits the key and its string stays the
        // pre-SIMD canonical spelling.
        let case = CaseSpec::generate(0x51D, 11);
        assert_eq!(case.simd, None);
        assert!(!case.to_string().contains("simd="), "{case}");
        // A forced tier prints, round-trips, and shrinks back to auto.
        for (tier, name) in
            [(SimdTier::Scalar, "scalar"), (SimdTier::Avx2, "avx2"), (SimdTier::Avx512, "avx512")]
        {
            let forced = CaseSpec { simd: Some(tier), ..case };
            assert!(forced.to_string().contains(&format!(" simd={name}")), "{forced}");
            let parsed: CaseSpec = forced.to_string().parse().unwrap();
            assert_eq!(parsed, forced);
            assert_eq!(shrink_case(&forced, |_| true).simd, None, "tier must shrink away");
        }
        // Legacy strings parse with the tier defaulting to auto-detect;
        // an unknown tier is rejected, not defaulted.
        let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=true";
        assert_eq!(legacy.parse::<CaseSpec>().unwrap().simd, None);
        assert_eq!(
            format!("{legacy} simd=avx2").parse::<CaseSpec>().unwrap().simd,
            Some(SimdTier::Avx2)
        );
        assert!(format!("{legacy} simd=sse2").parse::<CaseSpec>().is_err(), "unknown tier");
    }

    #[test]
    fn shrinker_reduces_a_scenario_one_dimension_at_a_time() {
        // A failure that only needs one permanent stuck word must shrink a
        // three-part scenario down to exactly that fault.
        let start = CaseSpec {
            fault: FaultScenario::none()
                .with_ram(TimedRamFault {
                    fault: RamFault::StuckWord { word: 5, value: -9 },
                    activation: FaultActivation::Window { from: 0, until: 9 },
                })
                .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 80, mask: 6 }))
                .with_fu(Some(FuFault::StuckMag { unit: 12, value: 3 })),
            ..CaseSpec::generate(7, 3)
        };
        let shrunk = shrink_case(&start, |c| {
            c.fault.ram_faults().any(|t| matches!(t.fault, RamFault::StuckWord { word: 5, .. }))
        });
        assert_eq!(shrunk.fault.fu_fault(), None, "FU fault must shrink away");
        assert_eq!(shrunk.fault.ram_fault_count(), 1, "second RAM fault must shrink away");
        let kept = shrunk.fault.ram_faults().next().unwrap();
        assert_eq!(kept.activation, FaultActivation::Permanent, "activation must simplify");
        assert_eq!(kept.fault, RamFault::StuckWord { word: 5, value: 0 }, "value must shrink");
    }

    #[test]
    fn qpsk_demapper_path_matches_bpsk_per_dimension() {
        // QPSK maps and demaps per real dimension exactly like BPSK (same
        // ±1 samples, same noise sigma, same exact 2y/σ² LLR), so the same
        // RNG stream must yield the identical transmitted frame — and that
        // frame must decode through the standard chain.
        let system = Dvbs2System::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            ..SystemConfig::default()
        })
        .unwrap();
        let mk = |modulation| {
            let mut rng = SmallRng::seed_from_u64(0x9A57);
            system.transmit_frame_with(&mut rng, 3.0, modulation)
        };
        let qpsk = mk(Modulation::Qpsk);
        assert_eq!(qpsk, mk(Modulation::Bpsk), "QPSK and BPSK paths must agree per dimension");
        let out = system.make_decoder().decode(&qpsk.llrs);
        assert_eq!(out.bits, qpsk.codeword, "QPSK frame must decode at 3 dB");
    }
}
