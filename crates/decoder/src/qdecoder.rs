//! Fixed-point zigzag decoder — the bit-exact golden model of the hardware
//! functional units.
//!
//! Identical schedule to [`crate::ZigzagDecoder`] but with every message a
//! saturating `bits`-wide integer and the check rule evaluated by
//! [`QBoxplus`](crate::QBoxplus). The cycle-accurate core in
//! `dvbs2-hardware` must reproduce this decoder's decisions exactly; the
//! `quantization` bench compares its BER against the float reference to
//! reproduce the paper's 6-bit ≈ 0.1 dB claim.

#![allow(clippy::needless_range_loop)] // one index drives several parallel slices

use crate::qsimd::SimdQuant;
use crate::quant::{QCheckArithmetic, Quantizer};
use crate::simd::SimdTier;
use crate::stopping::{hard_decisions_int, hard_decisions_int_into, syndrome_ok};
use crate::{DecodeResult, Decoder, DecoderConfig};
use dvbs2_ldpc::{BitVec, TannerGraph};
use std::sync::Arc;

/// Hardware chain partitioning for [`QuantizedZigzagDecoder`]: cuts the
/// degree-2 parity chain into `lanes` parallel sub-chains with exactly the
/// boundary semantics of the hardware functional-unit array (forward
/// boundary one iteration staler, backward boundary one iteration fresher),
/// and optionally replays the hardware's per-check message input ordering.
///
/// With `lanes = 360` and an edge order derived from the core's connectivity
/// ROM and check-node schedule (`dvbs2_hardware::hw_chain_partition`), the
/// software decoder becomes **bit-exact** against the hardware
/// `GoldenModel` — decoded words, iteration counts and convergence flags —
/// because the order-dependent quantized boxplus then sees identical
/// operands in identical order at every check. With `lanes = 1` and no edge
/// order it is the plain sequential zigzag, which every
/// [`QuantizedZigzagDecoder::new`] decoder runs.
#[derive(Debug, Clone)]
pub struct ChainPartition {
    lanes: usize,
    /// Flat check-major permutation: entry `c * d + i` is the position
    /// (within check `c`'s information edges, graph order) of the `i`-th
    /// message the hardware feeds its boxplus for that check. `None` keeps
    /// the graph's own (ascending variable index) order.
    edge_order: Option<Arc<[u32]>>,
}

impl ChainPartition {
    /// Creates a partition of `lanes` sub-chains with an optional per-check
    /// boxplus input ordering (see the type docs for the layout).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize, edge_order: Option<Vec<u32>>) -> Self {
        assert!(lanes > 0, "a partition needs at least one sub-chain");
        ChainPartition { lanes, edge_order: edge_order.map(Arc::from) }
    }

    /// Number of parallel sub-chains.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The flat per-check input ordering, if one was supplied.
    pub fn edge_order(&self) -> Option<&[u32]> {
        self.edge_order.as_deref()
    }
}

/// Quantized zigzag-schedule decoder.
///
/// # Chain-boundary semantics vs the hardware `GoldenModel`
///
/// Every decoder runs its parity chain as a [`ChainPartition`]: `lanes`
/// sub-chains swept in lockstep, the way the paper's M = 360 functional
/// units run the IRA chain. [`new`](Self::new) and
/// [`with_arithmetic`](Self::with_arithmetic) use **one** sub-chain, which
/// is the ideal sequential zigzag of the paper's Fig. 2b: the forward input
/// of check `c` is check `c − 1`'s output from the *same* iteration, for
/// every `c > 0`, and the backward messages come from the previous
/// iteration. The hardware golden model (`dvbs2_hardware::GoldenModel`)
/// instead runs **360 sub-chains**, which changes the message freshness at
/// the `q = (N − K) / 360` sub-chain boundaries in two ways:
///
/// * the forward message *entering* a sub-chain's first check comes from the
///   **previous iteration** (one sub-chain would use the same iteration's
///   value from the preceding chain segment);
/// * the backward boundary message is written while processing row `0` but
///   read at row `q − 1` of the same sweep, making it **one iteration
///   fresher** than the one-lane sweep's strictly previous-iteration
///   backward update.
///
/// All non-boundary messages — `359/360` of the chain — are computed
/// identically, so the one-lane decoder and the golden model agree on
/// decoded words and differ only in rare per-frame iteration counts near
/// threshold, and the differential oracle holds that pair to a decoded-word
/// agreement contract. With a 360-lane partition built by
/// `dvbs2_hardware::hw_chain_partition`
/// ([`with_partition`](Self::with_partition)), this decoder reproduces the
/// hardware boundary semantics *and* the schedule's per-check input
/// ordering, and the oracle tightens the contract to full bit-exactness
/// against `GoldenModel` (the cycle-accurate `HardwareDecoder` is always
/// held bit-exact to `GoldenModel`). See `DESIGN.md` ("Chain-boundary
/// semantics") for the derivation.
#[derive(Debug, Clone)]
pub struct QuantizedZigzagDecoder {
    graph: Arc<TannerGraph>,
    arithmetic: QCheckArithmetic,
    max_iterations: usize,
    early_stop: bool,
    /// The sub-chains of the check sweep (one lane = sequential zigzag).
    partition: ChainPartition,
    /// Sub-chain-major SIMD lane plan (`None` = scalar sweep only; built by
    /// [`QuantizedZigzagDecoder::with_partition`] when the partition and
    /// arithmetic are lane-expressible).
    simd: Option<Box<SimdQuant>>,
    v2c: Vec<i32>,
    c2v: Vec<i32>,
    backward: Vec<i32>,
    forward: Vec<i32>,
    /// Per-lane forward registers of the check sweep.
    fwd_regs: Vec<i32>,
    /// Chain-boundary forward values from the previous iteration (the
    /// analogue of the functional units' boundary state).
    boundary: Vec<i32>,
    totals: Vec<i32>,
    scratch_in: Vec<i32>,
    scratch_out: Vec<i32>,
    /// Reused hard-decision scratch for the early-stop syndrome test.
    decisions: BitVec,
    /// Reused quantized-channel buffer for the float [`Decoder`] entry.
    qchannel: Vec<i32>,
}

impl QuantizedZigzagDecoder {
    /// Creates a decoder with the given quantizer (see
    /// [`Quantizer::paper_6bit`]) and iteration policy.
    ///
    /// # Panics
    ///
    /// Panics if the graph lacks the IRA parity chain (see
    /// [`TannerGraph::for_code`]).
    pub fn new(graph: Arc<TannerGraph>, quantizer: Quantizer, config: DecoderConfig) -> Self {
        Self::with_arithmetic(graph, QCheckArithmetic::lut(quantizer), config)
    }

    /// Creates a decoder with an explicit check-node arithmetic — the
    /// LUT-free [`QCheckArithmetic::min_sum_shift`] trades ~0.1–0.2 dB for
    /// a smaller functional unit. The parity chain is one sub-chain (the
    /// sequential zigzag).
    ///
    /// # Panics
    ///
    /// Same as [`QuantizedZigzagDecoder::new`].
    pub fn with_arithmetic(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
    ) -> Self {
        Self::with_partition_scalar(graph, arithmetic, config, ChainPartition::new(1, None))
    }

    /// Creates a decoder that runs the check sweep over `partition`:
    /// `partition.lanes()` parallel sub-chains with the functional units'
    /// boundary freshness semantics, optionally replaying the hardware's
    /// per-check boxplus input ordering. With the LUT arithmetic and a
    /// partition from `dvbs2_hardware::hw_chain_partition`, decode results
    /// are bit-exact against the hardware `GoldenModel`.
    ///
    /// The sub-chains are mapped onto SIMD lanes (sub-chain-major SoA `i16`
    /// planes, the software image of the paper's M = 360 functional-unit
    /// array) with scalar/AVX2/AVX-512 clones dispatched per `config.simd` /
    /// `DVBS2_SIMD` — see [`simd_tier`](Self::simd_tier). A single
    /// sub-chain has nothing to run in lockstep, and some quantizers cannot
    /// be expressed exactly in the lanes; those decoders run the scalar
    /// sweep of [`with_partition_scalar`](Self::with_partition_scalar),
    /// which the lanes are bit-identical to.
    ///
    /// # Panics
    ///
    /// Same as [`with_partition_scalar`](Self::with_partition_scalar), and
    /// if `config.simd` forces a tier this CPU does not support.
    pub fn with_partition(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        partition: ChainPartition,
    ) -> Self {
        let tier = SimdTier::resolve(config.simd);
        let mut dec = Self::with_partition_scalar(graph, arithmetic, config, partition);
        dec.simd =
            SimdQuant::try_build(&dec.graph, &dec.partition, &dec.arithmetic, tier).map(Box::new);
        dec
    }

    /// [`with_partition`](Self::with_partition) pinned to the scalar sweep:
    /// no SIMD lane plan is built (`config.simd` is ignored), and the check
    /// sweep gathers and scatters every message through the partition's
    /// edge order. This is the reference the lane kernels are held
    /// bit-exact against, and the benchmark baseline
    /// `speedup_quantized_simd_vs_scalar` is measured from.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not an IRA graph, if `n_check` is not
    /// divisible by `partition.lanes()`, or if the partition's edge order
    /// does not cover every check's information edges with a per-check
    /// permutation of a uniform information degree.
    pub fn with_partition_scalar(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        partition: ChainPartition,
    ) -> Self {
        let n_check = graph.check_count();
        assert!(
            graph.info_len() < graph.var_count() && graph.var_count() - graph.info_len() == n_check,
            "quantized zigzag decoder needs an IRA graph from TannerGraph::for_code"
        );
        let lanes = partition.lanes();
        assert!(
            n_check.is_multiple_of(lanes),
            "{n_check} checks cannot be cut into {lanes} equal sub-chains"
        );
        if let Some(order) = partition.edge_order() {
            // Every check contributes exactly `check_degree - 2` information
            // edges in an IRA graph (check 0 has one fewer *parity* edge,
            // not fewer information edges).
            let info_d = graph.check_edges(0).len() - 1;
            assert_eq!(
                order.len(),
                n_check * info_d,
                "edge order must cover every check's information edges"
            );
            let mut seen = vec![false; info_d];
            for c in 0..n_check {
                let d = graph.check_edges(c).len() - if c == 0 { 1 } else { 2 };
                assert_eq!(d, info_d, "check {c}: non-uniform information degree");
                seen.fill(false);
                for &pos in &order[c * info_d..(c + 1) * info_d] {
                    let pos = pos as usize;
                    assert!(
                        pos < info_d && !seen[pos],
                        "check {c}: edge order is not a permutation"
                    );
                    seen[pos] = true;
                }
            }
        }
        let edges = graph.edge_count();
        let max_degree = (0..n_check).map(|c| graph.check_degree(c)).max().unwrap_or(0);
        QuantizedZigzagDecoder {
            arithmetic,
            max_iterations: config.max_iterations,
            early_stop: config.early_stop,
            partition,
            simd: None,
            v2c: vec![0; edges],
            c2v: vec![0; edges],
            backward: vec![0; n_check],
            forward: vec![0; n_check],
            fwd_regs: vec![0; lanes],
            boundary: vec![0; lanes],
            totals: vec![0; graph.var_count()],
            scratch_in: vec![0; max_degree],
            scratch_out: vec![0; max_degree],
            decisions: BitVec::zeros(graph.var_count()),
            qchannel: Vec::new(),
            graph,
        }
    }

    /// The sub-chain partition of the check sweep.
    pub fn partition(&self) -> &ChainPartition {
        &self.partition
    }

    /// The SIMD dispatch tier the lane-parallel check sweep runs, or
    /// `None` when decodes take the scalar sweep (a single sub-chain,
    /// [`with_partition_scalar`](Self::with_partition_scalar), or a
    /// partition/arithmetic the lanes cannot express exactly).
    pub fn simd_tier(&self) -> Option<SimdTier> {
        self.simd.as_ref().map(|s| s.tier())
    }

    /// The message quantizer in use.
    pub fn quantizer(&self) -> &Quantizer {
        self.arithmetic.quantizer()
    }

    /// Decodes pre-quantized channel LLRs. This is the entry point the
    /// hardware model is verified against.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized(&mut self, channel: &[i32]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_quantized_into(channel, &mut out);
        out
    }

    /// Decodes pre-quantized channel LLRs into a caller-owned result,
    /// reusing its buffers (no allocation once `out.bits` has the codeword
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized_into(&mut self, channel: &[i32], out: &mut DecodeResult) {
        if self.simd.is_some() && self.decode_simd_into(channel, out, None) {
            return;
        }
        self.decode_scalar_into(channel, out, None);
    }

    /// [`decode_quantized`](Self::decode_quantized) that additionally pushes
    /// one FNV-1a digest of the message state (information-edge c2v messages
    /// in hardware input order, then the forward and backward chain
    /// messages) per completed check sweep. The digest is computed over
    /// canonical (layout-independent) message order, so the SIMD lanes and
    /// the scalar sweep over the same partition produce identical digest
    /// sequences — the per-iteration half of the lanes-vs-scalar
    /// equivalence property.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized_traced(
        &mut self,
        channel: &[i32],
        digests: &mut Vec<u64>,
    ) -> DecodeResult {
        digests.clear();
        let mut out = DecodeResult::default();
        if self.simd.is_some() && self.decode_simd_into(channel, &mut out, Some(digests)) {
            return out;
        }
        digests.clear();
        self.decode_scalar_into(channel, &mut out, Some(digests));
        out
    }

    /// SIMD lane decode. Returns `false` (state untouched) when the
    /// channel is not expressible in the i16 lane domain; the caller then
    /// runs the scalar sweep.
    fn decode_simd_into(
        &mut self,
        channel: &[i32],
        out: &mut DecodeResult,
        trace: Option<&mut Vec<u64>>,
    ) -> bool {
        let graph = Arc::clone(&self.graph);
        // The plan is moved out so its `&mut self`-shaped decode can run
        // against the decoder's shared scratch, then moved back.
        let mut simd = self.simd.take().expect("SIMD plan present");
        let ok = simd.decode_into(
            &graph,
            &self.arithmetic,
            self.max_iterations,
            self.early_stop,
            channel,
            &mut self.totals,
            &mut self.decisions,
            out,
            trace,
        );
        self.simd = Some(simd);
        ok
    }

    /// Scalar decode: the check sweep gathers and scatters every message
    /// through the partition's edge order.
    fn decode_scalar_into(
        &mut self,
        channel: &[i32],
        out: &mut DecodeResult,
        mut trace: Option<&mut Vec<u64>>,
    ) {
        let graph = Arc::clone(&self.graph);
        assert_eq!(channel.len(), graph.var_count(), "LLR length mismatch");
        let k = graph.info_len();
        let n_check = graph.check_count();
        let q = *self.arithmetic.quantizer();

        self.c2v.fill(0);
        self.backward.fill(0);
        self.boundary.fill(0);
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..self.max_iterations {
            iterations += 1;

            // Information variable nodes (Eq. 4, saturating outputs).
            for v in 0..k {
                let edges = graph.var_edges(v);
                let total: i32 =
                    channel[v] + edges.iter().map(|&e| self.c2v[e as usize]).sum::<i32>();
                for &e in edges {
                    self.v2c[e as usize] = q.saturate(total - self.c2v[e as usize]);
                }
            }

            self.check_sweep(&graph, channel, q, k, n_check);
            if let Some(digests) = trace.as_deref_mut() {
                digests.push(self.digest(&graph));
            }

            for v in 0..k {
                self.totals[v] = channel[v]
                    + graph.var_edges(v).iter().map(|&e| self.c2v[e as usize]).sum::<i32>();
            }
            for j in 0..n_check {
                self.totals[k + j] = channel[k + j]
                    + self.forward[j]
                    + if j + 1 < n_check { self.backward[j] } else { 0 };
            }
            if self.early_stop {
                hard_decisions_int_into(&self.totals, &mut self.decisions);
                if syndrome_ok(&graph, &self.decisions) {
                    converged = true;
                    break;
                }
            }
        }
        if out.bits.len() != self.totals.len() {
            out.bits = BitVec::zeros(self.totals.len());
        }
        hard_decisions_int_into(&self.totals, &mut out.bits);
        if !converged {
            converged = syndrome_ok(&graph, &out.bits);
        }
        out.iterations = iterations;
        out.converged = converged;
    }

    /// Check sweep: `lanes` parallel sub-chains of
    /// `q_rows = n_check / lanes` checks each, swept in ascending residue
    /// order exactly like the functional-unit array — lane `u` owns checks
    /// `u·q_rows..(u+1)·q_rows`, its forward register is seeded from the
    /// previous iteration's boundary state, and row-0 backward writes are
    /// consumed at row `q_rows − 1` of the *same* sweep. With an edge order,
    /// each check's boxplus inputs are gathered in the hardware schedule's
    /// order instead of the graph's, which is what makes the order-dependent
    /// quantized arithmetic bit-exact against the golden model. With one
    /// lane and no edge order this is the ideal sequential zigzag of the
    /// paper's Fig. 2b: `boundary[0]` is pinned to 0, so the forward
    /// register threads through the whole chain.
    fn check_sweep(
        &mut self,
        graph: &TannerGraph,
        channel: &[i32],
        q: Quantizer,
        k: usize,
        n_check: usize,
    ) {
        let lanes = self.partition.lanes();
        let q_rows = n_check / lanes;
        let order = self.partition.edge_order();
        // begin_check_phase: seed every lane's forward register from the
        // previous iteration's boundary state.
        self.fwd_regs.copy_from_slice(&self.boundary);
        for r in 0..q_rows {
            for u in 0..lanes {
                let c = u * q_rows + r;
                let range = graph.check_edges(c);
                let info_d = range.len() - if c == 0 { 1 } else { 2 };
                let start = range.start;
                match order {
                    Some(ord) => {
                        let base = c * info_d;
                        for i in 0..info_d {
                            self.scratch_in[i] = self.v2c[start + ord[base + i] as usize];
                        }
                    }
                    None => {
                        for i in 0..info_d {
                            self.scratch_in[i] = self.v2c[start + i];
                        }
                    }
                }
                let mut d = info_d;
                let left_pos = if c > 0 {
                    self.scratch_in[d] = q.sat_add(channel[k + c - 1], self.fwd_regs[u]);
                    d += 1;
                    Some(d - 1)
                } else {
                    None
                };
                self.scratch_in[d] =
                    q.sat_add(channel[k + c], if c + 1 < n_check { self.backward[c] } else { 0 });
                let right_pos = d;
                d += 1;

                self.arithmetic.extrinsic(&self.scratch_in[..d], &mut self.scratch_out[..d]);

                match order {
                    Some(ord) => {
                        let base = c * info_d;
                        for i in 0..info_d {
                            self.c2v[start + ord[base + i] as usize] = self.scratch_out[i];
                        }
                    }
                    None => {
                        for i in 0..info_d {
                            self.c2v[start + i] = self.scratch_out[i];
                        }
                    }
                }
                if let Some(p) = left_pos {
                    self.backward[c - 1] = self.scratch_out[p];
                }
                let fwd = self.scratch_out[right_pos];
                self.fwd_regs[u] = fwd;
                self.forward[c] = fwd;
            }
        }
        // end_check_phase: store the boundary forwards for the next
        // iteration; lane 0 has no predecessor chain.
        for u in (1..lanes).rev() {
            self.boundary[u] = self.fwd_regs[u - 1];
        }
        self.boundary[0] = 0;
    }

    /// Canonical message digest of the scalar sweep's state: per check (in
    /// check order) the information c2v messages in hardware input order,
    /// then the forward, then the backward chain messages.
    fn digest(&self, graph: &TannerGraph) -> u64 {
        let order = self.partition.edge_order();
        let mut h = Fnv::new();
        for c in 0..graph.check_count() {
            let range = graph.check_edges(c);
            let info_d = range.len() - if c == 0 { 1 } else { 2 };
            let start = range.start;
            match order {
                Some(ord) => {
                    let base = c * info_d;
                    for i in 0..info_d {
                        h.write_i32(self.c2v[start + ord[base + i] as usize]);
                    }
                }
                None => {
                    for i in 0..info_d {
                        h.write_i32(self.c2v[start + i]);
                    }
                }
            }
        }
        for &x in &self.forward {
            h.write_i32(x);
        }
        for &x in &self.backward {
            h.write_i32(x);
        }
        h.finish()
    }

    /// Quantizes float channel LLRs.
    ///
    /// Non-finite inputs degrade gracefully through the quantizer's
    /// saturation: `±inf` pins to the extreme level and `NaN` maps to `0`
    /// (an erasure), matching the float decoders' sanitization policy.
    pub fn quantize_channel(&self, channel_llrs: &[f64]) -> Vec<i32> {
        let q = self.arithmetic.quantizer();
        channel_llrs.iter().map(|&l| q.quantize(l)).collect()
    }

    /// Hard decisions of the last decode (full codeword).
    pub fn last_decisions(&self) -> BitVec {
        hard_decisions_int(&self.totals)
    }
}

/// Minimal FNV-1a 64-bit hasher for the per-iteration message digests
/// (shared with the SIMD lane path in `qsimd`, whose digests must match
/// this module's value for value).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn write_i32(&mut self, x: i32) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Decoder for QuantizedZigzagDecoder {
    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_into(channel_llrs, &mut out);
        out
    }

    fn decode_into(&mut self, channel_llrs: &[f64], out: &mut DecodeResult) {
        let q = *self.arithmetic.quantizer();
        // The buffer is moved out so `decode_quantized_into(&mut self, ..)`
        // can run while reading it, then moved back for reuse.
        let mut qchannel = std::mem::take(&mut self.qchannel);
        qchannel.clear();
        qchannel.extend(channel_llrs.iter().map(|&l| q.quantize(l)));
        self.decode_quantized_into(&qchannel, out);
        self.qchannel = qchannel;
    }

    fn set_max_iterations(&mut self, max_iterations: usize) {
        self.max_iterations = max_iterations;
    }

    fn name(&self) -> &'static str {
        "quantized zigzag"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{noisy_llrs, small_code};

    fn decoder(bits: u32) -> (dvbs2_ldpc::DvbS2Code, QuantizedZigzagDecoder) {
        let (code, graph) = small_code();
        let dec = QuantizedZigzagDecoder::new(
            Arc::new(graph),
            Quantizer::new(bits, 0.5),
            DecoderConfig::default(),
        );
        (code, dec)
    }

    #[test]
    fn corrects_noisy_frame_with_6_bits() {
        let (code, mut dec) = decoder(6);
        let (cw, llrs) = noisy_llrs(&code, 3.2, 21);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn corrects_noisy_frame_with_5_bits_at_higher_snr() {
        let (code, mut dec) = decoder(5);
        let (cw, llrs) = noisy_llrs(&code, 4.0, 22);
        let out = dec.decode(&llrs);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn decode_is_deterministic() {
        let (code, mut dec) = decoder(6);
        let (_, llrs) = noisy_llrs(&code, 2.6, 23);
        let a = dec.decode(&llrs);
        let b = dec.decode(&llrs);
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn quantized_channel_is_saturated() {
        let (_, dec) = decoder(6);
        let q = dec.quantize_channel(&[1000.0, -1000.0, 0.2]);
        assert_eq!(q, vec![31, -31, 0]);
    }

    #[test]
    fn min_sum_arithmetic_also_decodes() {
        use crate::quant::QCheckArithmetic;
        let (code, graph) = small_code();
        let mut dec = QuantizedZigzagDecoder::with_arithmetic(
            Arc::new(graph),
            QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2),
            DecoderConfig::default(),
        );
        let (cw, llrs) = noisy_llrs(&code, 3.4, 61);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn lut_arithmetic_beats_min_sum_near_threshold() {
        use crate::quant::QCheckArithmetic;
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let q = Quantizer::paper_6bit();
        let mut lut = QuantizedZigzagDecoder::new(Arc::clone(&graph), q, DecoderConfig::default());
        let mut msd = QuantizedZigzagDecoder::with_arithmetic(
            Arc::clone(&graph),
            QCheckArithmetic::min_sum_shift(q, 2),
            DecoderConfig::default(),
        );
        let mut lut_iters = 0usize;
        let mut ms_iters = 0usize;
        for seed in 0..4 {
            let (_, llrs) = noisy_llrs(&code, 1.6, 7000 + seed);
            lut_iters += lut.decode(&llrs).iterations;
            ms_iters += msd.decode(&llrs).iterations;
        }
        // The exact rule converges at least as fast in aggregate.
        assert!(lut_iters <= ms_iters, "lut {lut_iters} vs min-sum {ms_iters}");
    }

    #[test]
    fn single_lane_partition_matches_sequential() {
        // `new` runs the one-lane partition; an explicit one-lane
        // `with_partition` has nothing to run in lockstep, so it stays on
        // the same scalar sweep and decodes identically.
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let q = Quantizer::paper_6bit();
        let mut seq = QuantizedZigzagDecoder::new(Arc::clone(&graph), q, DecoderConfig::default());
        let mut part = QuantizedZigzagDecoder::with_partition(
            Arc::clone(&graph),
            QCheckArithmetic::lut(q),
            DecoderConfig::default(),
            ChainPartition::new(1, None),
        );
        assert_eq!(part.simd_tier(), None, "one sub-chain builds no lane plan");
        assert_eq!(seq.partition().lanes(), 1);
        for seed in 0..3u64 {
            let (_, llrs) = noisy_llrs(&code, 2.4, 4000 + seed);
            let a = seq.decode(&llrs);
            let b = part.decode(&llrs);
            assert_eq!(a.bits, b.bits, "seed {seed}: decoded words differ");
            assert_eq!(a.iterations, b.iterations, "seed {seed}: iteration counts differ");
            assert_eq!(a.converged, b.converged, "seed {seed}: convergence flags differ");
        }
    }

    #[test]
    fn partitioned_mode_decodes_with_360_lanes() {
        // Without an edge order the 360-lane sweep is not bit-exact to the
        // sequential decoder, but it is still a valid decoder: it must
        // correct a comfortably-above-threshold frame.
        let (code, graph) = small_code();
        let mut dec = QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(360, None),
        );
        let (cw, llrs) = noisy_llrs(&code, 3.2, 41);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    #[should_panic(expected = "equal sub-chains")]
    fn partition_lanes_must_divide_check_count() {
        let (_, graph) = small_code();
        QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(7, None),
        );
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn partition_edge_order_must_be_a_permutation() {
        let (_, graph) = small_code();
        let info_d = graph.check_edges(0).len() - 1;
        let n_check = graph.check_count();
        // Position 0 repeated for every check: covers the length check but
        // fails the per-check permutation test.
        let order = vec![0u32; n_check * info_d];
        QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(360, Some(order)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one sub-chain")]
    fn partition_rejects_zero_lanes() {
        ChainPartition::new(0, None);
    }

    #[test]
    fn tracks_float_zigzag_at_moderate_snr() {
        use crate::zigzag::ZigzagDecoder;
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let mut qdec = QuantizedZigzagDecoder::new(
            Arc::clone(&graph),
            Quantizer::paper_6bit(),
            DecoderConfig::default(),
        );
        let mut fdec = ZigzagDecoder::new(Arc::clone(&graph), DecoderConfig::default());
        let mut agree = 0;
        const TRIALS: usize = 5;
        for seed in 0..TRIALS as u64 {
            let (cw, llrs) = noisy_llrs(&code, 3.4, 3000 + seed);
            let qd = qdec.decode(&llrs);
            let fd = fdec.decode(&llrs);
            if qd.bits == cw && fd.bits == cw {
                agree += 1;
            }
        }
        // 6-bit quantization costs ~0.1 dB: at 3.4 dB both decode reliably.
        assert_eq!(agree, TRIALS);
    }
}
