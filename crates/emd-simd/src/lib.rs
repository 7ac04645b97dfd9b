//! # emd-simd
//!
//! The f32 kernels of the pipeline's always-on inner loops: embedding
//! accumulation/pooling and the entity-classifier forward pass.
//!
//! Each kernel is a plain one-element-at-a-time loop. LLVM already
//! auto-vectorizes these loops: a hand-written lane-chunked arm measured at
//! parity with them (64-d mean-pool accumulate 5 ns vs 6 ns; a 64×32 dense
//! layer was slower chunked, 315 ns vs 263 ns) and made no difference to
//! end-to-end stream throughput, so it was dropped.
//!
//! ## The bit-identity contract
//!
//! [`dense_forward`] replicates `emd-nn`'s `Matrix::matmul` contract
//! exactly: ikj loop order, the `a == 0.0` row-skip, accumulation from
//! zero, bias added after the full accumulation. The pooling kernels
//! perform the same per-element op as the `Matrix` helpers they replace.
//! IEEE-754 arithmetic is deterministic per operation, so swapping the
//! classifier/pooling hot path onto these kernels changes no observable
//! output anywhere in the pipeline. The contract is pinned against the
//! `emd-nn` matrix path by `emd-core`'s classifier and phrase-embedder
//! tests.

/// `acc[i] += x[i]` (embedding-sum accumulation).
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len());
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// `acc[i] = acc[i].max(x[i])` (max pooling).
pub fn max_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len());
    for (a, &b) in acc.iter_mut().zip(x) {
        *a = a.max(b);
    }
}

/// `out[i] = x[i] / d` (mean pooling: sum ÷ count; division, not
/// reciprocal-multiply, to stay bit-identical with the historical
/// `global_embedding` path).
pub fn div_into(out: &mut [f32], x: &[f32], d: f32) {
    assert_eq!(out.len(), x.len());
    for (o, &b) in out.iter_mut().zip(x) {
        *o = b / d;
    }
}

/// `xs[i] *= k` (the `Matrix::scale` op `row_mean` pools with).
pub fn scale(xs: &mut [f32], k: f32) {
    for v in xs {
        *v *= k;
    }
}

/// `xs[i] = xs[i].max(0.0)` (classifier hidden activation).
pub fn relu(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

/// Single-row dense layer: `y = xW + b`, `w` row-major `[in, out]`.
///
/// Replicates `Matrix::matmul`'s ikj order and `a == 0.0` skip, then
/// `add_row_broadcast` — every `y[j]` sees the identical op sequence the
/// `emd-nn` path produced.
pub fn dense_forward(x: &[f32], w: &[f32], bias: &[f32], y: &mut [f32]) {
    let out = y.len();
    assert_eq!(bias.len(), out);
    assert_eq!(w.len(), x.len() * out);
    y.fill(0.0);
    for (k, &a) in x.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let wrow = &w[k * out..(k + 1) * out];
        for (yj, &wj) in y.iter_mut().zip(wrow) {
            *yj += a * wj;
        }
    }
    for (yj, &bj) in y.iter_mut().zip(bias) {
        *yj += bj;
    }
}
