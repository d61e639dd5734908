//! Functional (data-level) model of the ENMC DIMM.
//!
//! The timing model ([`crate::unit`]) answers *how long* a program takes;
//! this module answers *what it computes*. [`FunctionalDimm`] interprets
//! compiled ENMC instruction streams against a flat rank memory image with
//! the exact arithmetic the hardware performs — INT4 codes multiplied in
//! `i32` accumulators, per-tensor rescale, threshold comparison, Taylor
//! softmax — so the compiler, the ISA codec and the screening algorithm
//! can be validated end-to-end against the pure-software reference
//! implementation in `enmc-screen`.
//!
//! [`HostRuntime`] plays the host's role from paper Fig. 9/10: it packs
//! the tensors into the memory image, issues the compiled screening
//! program, consumes the FILTER output the way the controller's
//! instruction generator does (producing per-candidate FP32 programs), and
//! assembles the final mixed logits.

use enmc_compiler::{estimate_candidate_program, lower_screening, MemoryLayout, TaskDescriptor};
use enmc_isa::{BufferId, Instruction, RegId};
use enmc_tensor::activation::{sigmoid_taylor, softmax_taylor};
use enmc_tensor::packed::PackedInt4;
use enmc_tensor::quant::{QuantMatrix, QuantVector};
use enmc_tensor::Vector;

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A load/store touched memory outside the image.
    OutOfBounds {
        /// Offending byte address.
        addr: u64,
        /// Image size.
        size: usize,
    },
    /// An instruction used a buffer combination the datapath lacks.
    Unsupported(&'static str),
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::OutOfBounds { addr, size } => {
                write!(f, "memory access at {addr:#x} outside image of {size} bytes")
            }
            ExecError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The data-level state of one ENMC rank unit.
#[derive(Debug, Clone)]
pub struct FunctionalDimm {
    memory: Vec<u8>,
    regs: [u64; 32],
    buffer_bytes: usize,
    /// Screener weight codes pending consumption (rows may straddle tile
    /// boundaries, so codes queue until `k` of them complete a row).
    pending_codes: Vec<i8>,
    /// Quantized feature codes currently latched (`k` INT4 codes).
    feature_codes: Vec<i8>,
    /// Streaming screening partial sums, one per completed category.
    psum_int: Vec<i32>,
    /// Executor feature vector (full `d`, walked tile by tile).
    feature_fp32: Vec<f32>,
    /// Executor weight tile.
    weight_fp32: Vec<f32>,
    /// Executor accumulator and its walk position within the feature.
    psum_fp32: f32,
    exec_offset: usize,
    /// Output logits (approximate, patched by candidate results).
    output: Vec<f32>,
    /// FILTER survivors.
    index: Vec<u32>,
}

impl FunctionalDimm {
    /// A unit with `mem_bytes` of rank memory and `buffer_bytes` buffers.
    pub fn new(mem_bytes: usize, buffer_bytes: usize) -> Self {
        FunctionalDimm {
            memory: vec![0; mem_bytes],
            regs: [0; 32],
            buffer_bytes,
            pending_codes: Vec::new(),
            feature_codes: Vec::new(),
            psum_int: Vec::new(),
            feature_fp32: Vec::new(),
            weight_fp32: Vec::new(),
            psum_fp32: 0.0,
            exec_offset: 0,
            output: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Read access to a status register.
    pub fn reg(&self, reg: RegId) -> u64 {
        self.regs[reg.code() as usize]
    }

    /// Writes bytes into the memory image (host-side DMA).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfBounds`] when the write exceeds the image.
    pub fn write_memory(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ExecError> {
        let end = addr as usize + bytes.len();
        if end > self.memory.len() {
            return Err(ExecError::OutOfBounds { addr, size: self.memory.len() });
        }
        self.memory[addr as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    /// The FILTER survivors of the last screening pass.
    pub fn candidates(&self) -> &[u32] {
        &self.index
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for out-of-range accesses or datapath
    /// combinations the hardware does not implement.
    pub fn step(&mut self, inst: &Instruction) -> Result<(), ExecError> {
        self.regs[RegId::InstCounter.code() as usize] += 1;
        match *inst {
            Instruction::Init { reg, data } => {
                self.regs[reg.code() as usize] = data;
            }
            Instruction::Nop | Instruction::Barrier | Instruction::Query { .. } => {}
            Instruction::Ldr { buffer, addr } => self.load(buffer, addr)?,
            Instruction::Str { buffer, addr } => self.store(buffer, addr)?,
            Instruction::MulAddInt4 { .. } => self.mul_add_int4(),
            Instruction::MulAddFp32 { .. } => self.mul_add_fp32()?,
            Instruction::Filter { .. } => self.filter(),
            Instruction::Move { dst: BufferId::Output, src: BufferId::PsumInt4 } => {
                self.move_psum_to_output();
            }
            Instruction::Move { dst: BufferId::Output, src: BufferId::PsumFp32 } => {
                // Finalize one candidate: ADD classifier bias and patch the
                // output slot (the controller pairs this with the index).
                // The caller (HostRuntime) patches by index; here we just
                // leave the value readable via psum.
            }
            Instruction::Move { .. } => {
                return Err(ExecError::Unsupported("MOVE between these buffers"));
            }
            Instruction::AddInt4 { .. }
            | Instruction::MulInt4 { .. }
            | Instruction::AddFp32 { .. }
            | Instruction::MulFp32 { .. } => {
                return Err(ExecError::Unsupported("element-wise ops unused by the compiler"));
            }
            Instruction::Softmax => {
                self.output = softmax_taylor(&self.output);
            }
            Instruction::Sigmoid => {
                for v in &mut self.output {
                    *v = sigmoid_taylor(*v);
                }
            }
            Instruction::Return => {
                self.regs[RegId::BatchCounter.code() as usize] += 1;
                // Start the next batch item's streaming state.
                self.psum_int.clear();
                self.pending_codes.clear();
                self.output.clear();
            }
            Instruction::Clr => self.clear(),
        }
        Ok(())
    }

    /// The running FP32 accumulator (one candidate's partial dot product).
    pub fn psum_fp32(&self) -> f32 {
        self.psum_fp32
    }

    /// Resets the executor accumulator (controller does this between
    /// candidates).
    pub fn reset_executor(&mut self) {
        self.psum_fp32 = 0.0;
        self.exec_offset = 0;
    }

    /// Clears the per-query streaming state (psums, pending codes,
    /// candidates, output) while keeping memory and registers — what the
    /// controller does between queries when the host skips RETURN/CLR.
    pub fn begin_query(&mut self) {
        self.pending_codes.clear();
        self.feature_codes.clear();
        self.psum_int.clear();
        self.output.clear();
        self.index.clear();
        self.reset_executor();
    }

    fn clear(&mut self) {
        self.regs = [0; 32];
        self.pending_codes.clear();
        self.feature_codes.clear();
        self.psum_int.clear();
        self.feature_fp32.clear();
        self.weight_fp32.clear();
        self.psum_fp32 = 0.0;
        self.exec_offset = 0;
        self.output.clear();
        self.index.clear();
    }

    fn slice(&self, addr: u64, len: usize) -> Result<&[u8], ExecError> {
        let end = addr as usize + len;
        if end > self.memory.len() {
            return Err(ExecError::OutOfBounds { addr, size: self.memory.len() });
        }
        Ok(&self.memory[addr as usize..end])
    }

    fn load(&mut self, buffer: BufferId, addr: u64) -> Result<(), ExecError> {
        match buffer {
            BufferId::FeatureInt4 => {
                let k = self.reg(RegId::ReducedDim) as usize;
                let bytes = self.slice(addr, k.div_ceil(2))?.to_vec();
                self.feature_codes = unpack_int4(&bytes, k);
            }
            BufferId::WeightInt4 => {
                let remaining_codes = {
                    let l = self.reg(RegId::VocabSize) as usize;
                    let k = self.reg(RegId::ReducedDim) as usize;
                    let consumed = self.psum_int.len() * k + self.pending_codes.len();
                    (l * k).saturating_sub(consumed)
                };
                let n = (self.buffer_bytes * 2).min(remaining_codes);
                let bytes = self.slice(addr, n.div_ceil(2))?.to_vec();
                self.weight_int4_pending(unpack_int4(&bytes, n));
            }
            BufferId::FeatureFp32 => {
                let d = self.reg(RegId::HiddenDim) as usize;
                let bytes = self.slice(addr, d * 4)?.to_vec();
                self.feature_fp32 = unpack_f32(&bytes);
                self.exec_offset = 0;
            }
            BufferId::WeightFp32 => {
                let d = self.reg(RegId::HiddenDim) as usize;
                let tile_floats = (self.buffer_bytes / 4).min(d - self.exec_offset.min(d));
                let bytes = self.slice(addr, tile_floats * 4)?.to_vec();
                self.weight_fp32 = unpack_f32(&bytes);
            }
            _ => return Err(ExecError::Unsupported("LDR into this buffer")),
        }
        Ok(())
    }

    fn weight_int4_pending(&mut self, codes: Vec<i8>) {
        self.pending_codes.extend(codes);
    }

    fn store(&mut self, buffer: BufferId, addr: u64) -> Result<(), ExecError> {
        match buffer {
            BufferId::Output => {
                let bytes: Vec<u8> =
                    self.output.iter().flat_map(|v| v.to_le_bytes()).collect();
                self.write_memory(addr, &bytes)
            }
            BufferId::PsumFp32 => self.write_memory(addr, &self.psum_fp32.to_le_bytes()),
            _ => Err(ExecError::Unsupported("STR from this buffer")),
        }
    }

    /// Consume pending weight codes: every complete `k`-code row yields one
    /// integer dot product against the latched feature codes.
    fn mul_add_int4(&mut self) {
        let k = self.reg(RegId::ReducedDim) as usize;
        if k == 0 || self.feature_codes.len() < k {
            return;
        }
        while self.pending_codes.len() >= k {
            let row: Vec<i8> = self.pending_codes.drain(..k).collect();
            let acc: i32 = row
                .iter()
                .zip(self.feature_codes.iter())
                .map(|(&w, &x)| w as i32 * x as i32)
                .sum();
            self.psum_int.push(acc);
        }
    }

    /// One executor tile: multiply the weight tile against the matching
    /// feature segment and accumulate.
    fn mul_add_fp32(&mut self) -> Result<(), ExecError> {
        if self.exec_offset + self.weight_fp32.len() > self.feature_fp32.len() {
            return Err(ExecError::Unsupported("executor tile beyond feature length"));
        }
        for (w, x) in self
            .weight_fp32
            .iter()
            .zip(self.feature_fp32[self.exec_offset..].iter())
        {
            self.psum_fp32 += w * x;
        }
        self.exec_offset += self.weight_fp32.len();
        Ok(())
    }

    /// Dequantized approximate logit of category `i` (with bias).
    fn approx_logit(&self, i: usize) -> f32 {
        let w_scale = f32::from_bits(self.reg(RegId::WeightScale) as u32);
        let x_scale = f32::from_bits(self.reg(RegId::FeatureScale) as u32);
        let bias_addr = self.reg(RegId::ScreenBiasAddr) + (i * 4) as u64;
        let bias = self
            .slice(bias_addr, 4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .unwrap_or(0.0);
        // Same operation order as QuantMatrix::matvec_quant (single
        // pre-multiplied rescale, then bias) so results are bit-identical
        // to the software reference.
        self.psum_int[i] as f32 * (w_scale * x_scale) + bias
    }

    /// Comparator array: every approximate logit above the threshold goes
    /// to the index buffer.
    fn filter(&mut self) {
        let threshold = f32::from_bits(self.reg(RegId::Threshold) as u32);
        self.index.clear();
        for i in 0..self.psum_int.len() {
            if self.approx_logit(i) > threshold {
                self.index.push(i as u32);
            }
        }
        self.regs[RegId::CandidateCount.code() as usize] = self.index.len() as u64;
    }

    /// MOVE Output ← PsumInt4: dequantize the streamed psums (+ bias) into
    /// the output buffer as the approximate logits.
    fn move_psum_to_output(&mut self) {
        self.output = (0..self.psum_int.len()).map(|i| self.approx_logit(i)).collect();
    }

    /// Patches a candidate's exact logit into the output (what the
    /// controller does when the Executor finishes a candidate).
    pub fn patch_output(&mut self, index: usize, value: f32) {
        if index < self.output.len() {
            self.output[index] = value;
        }
    }

    /// Current output buffer (approximate + patched logits).
    pub fn output(&self) -> &[f32] {
        &self.output
    }
}

fn unpack_int4(bytes: &[u8], n: usize) -> Vec<i8> {
    PackedInt4::from_bytes(bytes.to_vec(), n).to_codes()
}

/// Packs INT4 codes, two per byte (low nibble first).
pub fn pack_int4(codes: &[i8]) -> Vec<u8> {
    PackedInt4::from_codes(codes).as_bytes().to_vec()
}

fn unpack_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// The host-side runtime of Fig. 9/10: prepares the memory image, runs the
/// compiled screening program, plays the controller's instruction
/// generator for the candidates, and assembles the result.
#[derive(Debug)]
pub struct HostRuntime {
    task: TaskDescriptor,
    layout: MemoryLayout,
    dimm: FunctionalDimm,
    buffer_bytes: usize,
}

impl HostRuntime {
    /// Builds a runtime for `task`, packing the classifier (`w`, `b`), the
    /// quantized screener (`wt`, `bt`) into the memory image.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the memory writes.
    pub fn new(
        mut task: TaskDescriptor,
        w: &enmc_tensor::Matrix,
        b: &Vector,
        wt: &QuantMatrix,
        bt: &Vector,
        buffer_bytes: usize,
    ) -> Result<Self, ExecError> {
        task.weight_scale_bits = wt.scale().to_bits();
        let layout = MemoryLayout::for_task(&task);
        let mut dimm = FunctionalDimm::new(layout.end as usize, buffer_bytes);
        // Pack W̃ codes row-major.
        let mut codes = Vec::with_capacity(task.categories * task.reduced);
        for r in 0..wt.rows() {
            codes.extend_from_slice(wt.row(r));
        }
        dimm.write_memory(layout.screen_weights, &pack_int4(&codes))?;
        // Screening bias.
        let bt_bytes: Vec<u8> = bt.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        dimm.write_memory(layout.screen_bias, &bt_bytes)?;
        // Full classifier rows (+ bias appended, matching classifier_bytes).
        let w_bytes: Vec<u8> = w.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        dimm.write_memory(layout.classifier, &w_bytes)?;
        let b_bytes: Vec<u8> = b.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        dimm.write_memory(layout.classifier + w_bytes.len() as u64, &b_bytes)?;
        Ok(HostRuntime { task, layout, dimm, buffer_bytes })
    }

    /// Classifies one query end-to-end on the functional DIMM: writes the
    /// quantized projected features, runs the compiled screening program
    /// (stopping before the activation), generates and runs the candidate
    /// programs, and returns `(mixed logits, candidate indices)`.
    ///
    /// `ph_quant` is the quantized projection `Q(P h)` and `h` the raw
    /// hidden vector (for the FP32 executor).
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`].
    pub fn classify(
        &mut self,
        ph_quant: &QuantVector,
        h: &Vector,
        threshold: f32,
    ) -> Result<(Vec<f32>, Vec<usize>), ExecError> {
        let mut task = self.task.clone();
        task.threshold_bits = threshold.to_bits();
        task.feature_scale_bits = ph_quant.scale().to_bits();
        task.batch = 1;
        self.dimm.begin_query();

        // Host DMA: quantized features + FP32 features.
        self.dimm
            .write_memory(self.layout.features, &pack_int4(ph_quant.codes()))?;
        let h_bytes: Vec<u8> = h.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        let h_addr = self.layout.features + 64; // after the packed codes (k ≤ 128 ⇒ ≤ 64 B)
        self.dimm.write_memory(h_addr, &h_bytes)?;

        // Run the screening program up to (not including) the activation;
        // the host wants raw mixed logits here.
        let program = lower_screening(&task, &self.layout, self.buffer_bytes)
            .map_err(|_| ExecError::Unsupported("compile failure"))?;
        for inst in program.iter() {
            match inst {
                Instruction::Softmax | Instruction::Sigmoid | Instruction::Return
                | Instruction::Clr => break,
                _ => self.dimm.step(inst)?,
            }
        }
        self.dimm.move_psum_to_output();
        let candidates: Vec<usize> =
            self.dimm.candidates().iter().map(|&i| i as usize).collect();

        // Controller instruction generation: one FP32 program per
        // candidate, executed against the FP32 feature vector.
        self.dimm.step(&Instruction::Ldr { buffer: BufferId::FeatureFp32, addr: h_addr })?;
        let l = self.task.categories;
        for &cand in &candidates {
            self.dimm.reset_executor();
            let p = estimate_candidate_program(&self.task, &self.layout, self.buffer_bytes, cand)
                .map_err(|_| ExecError::Unsupported("compile failure"))?;
            for inst in p.iter() {
                self.dimm.step(inst)?;
            }
            // Classifier bias lives after the weight rows.
            let bias_addr = self.layout.classifier
                + (l * self.task.hidden * 4) as u64
                + (cand * 4) as u64;
            let bias = {
                let s = self.dimm.slice(bias_addr, 4)?;
                f32::from_le_bytes([s[0], s[1], s[2], s[3]])
            };
            let exact = self.dimm.psum_fp32() + bias;
            self.dimm.patch_output(cand, exact);
        }
        Ok((self.dimm.output().to_vec(), candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::dist::standard_normal;
    use enmc_tensor::quant::Precision;
    use enmc_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn int4_pack_unpack_roundtrip() {
        let codes: Vec<i8> = (-8..8).collect();
        let packed = pack_int4(&codes);
        assert_eq!(packed.len(), 8);
        assert_eq!(unpack_int4(&packed, 16), codes);
        // Odd length.
        let odd: Vec<i8> = vec![3, -5, 7];
        assert_eq!(unpack_int4(&pack_int4(&odd), 3), odd);
    }

    #[test]
    fn init_and_query_registers() {
        let mut d = FunctionalDimm::new(1024, 256);
        d.step(&Instruction::Init { reg: RegId::VocabSize, data: 99 }).unwrap();
        assert_eq!(d.reg(RegId::VocabSize), 99);
        d.step(&Instruction::Clr).unwrap();
        assert_eq!(d.reg(RegId::VocabSize), 0);
    }

    #[test]
    fn inst_counter_counts_executed_instructions() {
        let mut d = FunctionalDimm::new(256, 256);
        d.step(&Instruction::Init { reg: RegId::VocabSize, data: 1234 }).unwrap();
        d.step(&Instruction::Query { reg: RegId::VocabSize }).unwrap();
        assert_eq!(d.reg(RegId::InstCounter), 2);
    }

    #[test]
    fn out_of_bounds_load_rejected() {
        let mut d = FunctionalDimm::new(64, 256);
        d.step(&Instruction::Init { reg: RegId::ReducedDim, data: 128 }).unwrap();
        let err = d.step(&Instruction::Ldr { buffer: BufferId::FeatureInt4, addr: 32 });
        assert!(matches!(err, Err(ExecError::OutOfBounds { .. })));
    }

    /// End-to-end: the functional DIMM must produce the same mixed logits
    /// as the pure-software ApproxClassifier on the same data.
    #[test]
    fn functional_matches_software_reference() {
        let mut rng = StdRng::seed_from_u64(91);
        let (l, d, k) = (96, 64, 16);
        let mut w = Matrix::zeros(l, d);
        for v in w.as_mut_slice() {
            *v = standard_normal(&mut rng) / (d as f32).sqrt();
        }
        let b: Vector = (0..l).map(|i| (i as f32 % 5.0) * 0.01).collect();
        // A random "trained" screener (weights need not be good for the
        // equivalence check — only consistent).
        let mut wt_f = Matrix::zeros(l, k);
        for v in wt_f.as_mut_slice() {
            *v = standard_normal(&mut rng) * 0.3;
        }
        let bt: Vector = (0..l).map(|i| (i as f32 % 3.0) * 0.02).collect();
        let wt = QuantMatrix::quantize(&wt_f, Precision::Int4).unwrap();

        let task = TaskDescriptor {
            categories: l,
            hidden: d,
            reduced: k,
            screen_precision: Precision::Int4,
            batch: 1,
            threshold_bits: 0,
            weight_scale_bits: 0,
            feature_scale_bits: 0,
            softmax: true,
        };
        let mut runtime = HostRuntime::new(task, &w, &b, &wt, &bt, 256).unwrap();

        // Query.
        let ph: Vector = (0..k).map(|_| standard_normal(&mut rng)).collect();
        let h: Vector = (0..d).map(|_| standard_normal(&mut rng)).collect();
        let qph = QuantVector::quantize(&ph, Precision::Int4).unwrap();
        let threshold = 0.15_f32;

        let (logits_hw, cands_hw) = runtime.classify(&qph, &h, threshold).unwrap();

        // Software reference: same quantized screening math.
        let approx = {
            let mut z = wt.matvec_quant(&qph);
            z.add_assign(&bt);
            z
        };
        let cands_sw: Vec<usize> = (0..l).filter(|&i| approx[i] > threshold).collect();
        assert_eq!(cands_hw, cands_sw, "candidate sets must match");
        for i in 0..l {
            let expect = if cands_sw.contains(&i) {
                enmc_tensor::matrix::dot(w.row(i), h.as_slice()) + b[i]
            } else {
                approx[i]
            };
            assert!(
                (logits_hw[i] - expect).abs() < 1e-4,
                "logit {i}: hw {} vs sw {}",
                logits_hw[i],
                expect
            );
        }
    }

    #[test]
    fn filter_respects_threshold_register() {
        let mut rng = StdRng::seed_from_u64(92);
        let (l, d, k) = (64, 32, 8);
        let mut w = Matrix::zeros(l, d);
        for v in w.as_mut_slice() {
            *v = standard_normal(&mut rng) * 0.2;
        }
        let mut wt_f = Matrix::zeros(l, k);
        for v in wt_f.as_mut_slice() {
            *v = standard_normal(&mut rng) * 0.3;
        }
        let wt = QuantMatrix::quantize(&wt_f, Precision::Int4).unwrap();
        let task = TaskDescriptor {
            categories: l,
            hidden: d,
            reduced: k,
            screen_precision: Precision::Int4,
            batch: 1,
            threshold_bits: 0,
            weight_scale_bits: 0,
            feature_scale_bits: 0,
            softmax: true,
        };
        let mut runtime =
            HostRuntime::new(task, &w, &Vector::zeros(l), &wt, &Vector::zeros(l), 256).unwrap();
        let ph: Vector = (0..k).map(|_| standard_normal(&mut rng)).collect();
        let h: Vector = (0..d).map(|_| standard_normal(&mut rng)).collect();
        let qph = QuantVector::quantize(&ph, Precision::Int4).unwrap();
        let (_, lo) = runtime.classify(&qph, &h, f32::NEG_INFINITY).unwrap();
        assert_eq!(lo.len(), l, "everything passes -inf threshold");
        let (_, hi) = runtime.classify(&qph, &h, f32::INFINITY).unwrap();
        assert!(hi.is_empty(), "nothing passes +inf threshold");
    }
}
