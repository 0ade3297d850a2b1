//! Runtime-dispatched SIMD kernels for the SLOPE-PMC serving stack.
//!
//! Every inference path in the repo — the served f64 linear and
//! compiled-tree kernels, the stream hub's window estimates, and the
//! `pmca_mlkit::FixedModel` fixed-point lowering's SoA batch evaluator —
//! funnels through the three kernel families here:
//!
//! * [`mac_i64`] — broadcast multiply-accumulate over one i64 feature
//!   column (the fixed-point linear kernel's inner loop);
//! * [`forest_eval_i64`] / [`forest_eval_f64`] — flattened-arena tree
//!   routing with lane-parallel masked compares;
//! * [`dot_f64`] — the f64 dot product, restructured around a
//!   **fixed-shape pairwise (4-lane) summation** so every width
//!   produces the same bits on every instruction set.
//!
//! # Dispatch
//!
//! The instruction set is picked **once per process** the first time
//! [`Isa::active`] runs: `is_x86_feature_detected!` selects AVX2 when
//! the CPU has it, SSE2 otherwise (SSE2 is the x86_64 baseline), and
//! the portable scalar fallback everywhere else. The `PMCA_SIMD`
//! environment variable (`scalar`, `sse2`, or `avx2`) overrides the
//! choice for testing; an override the CPU cannot honour falls back to
//! the detected best, and [`override_request`] exposes the raw value so
//! operators can see what was asked for. Every kernel also takes the
//! [`Isa`] explicitly, which is how the parity property tests and the
//! `kernels` criterion group compare implementations side by side; an
//! explicitly passed [`Isa`] the CPU does not support is clamped to the
//! detected best, never trusted, so no safe call can execute an
//! unsupported instruction.
//!
//! # The parity contract
//!
//! Scalar, SSE2, and AVX2 return **bit-identical** results for every
//! kernel, enforced by property tests:
//!
//! * the integer kernels are exact: under the no-overflow invariant the
//!   fixed-point lowering already guarantees (worst-case accumulator
//!   magnitude below `4.0e18 < i64::MAX`), wrapping SIMD arithmetic and
//!   the scalar path's saturating backstop compute the same value;
//! * tree routing takes the same child pointer per row no matter how
//!   many rows step in lockstep — `!(x <= t)` compares (NaN routes
//!   right) map onto `CMP_LE_OQ` masks;
//! * the f64 dot is pairwise with a fixed shape: lane `j` accumulates
//!   elements `4k + j` and the reduction is always
//!   `(l0 + l1) + (l2 + l3)`, so a 2-lane SSE2 register pair, a 4-lane
//!   AVX2 register, and the 4-element scalar array perform the same
//!   additions in the same order at every width, ragged tails included.
//!
//! f64 forest leaves accumulate one add per tree per row (never a
//! conditional `+ 0.0`, which would flip `-0.0` partials), and the
//! final mean divides by the tree count exactly as the scalar walk
//! does.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// An instruction set a kernel can run on, in capability order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar fallback — runs everywhere.
    Scalar = 0,
    /// 128-bit SSE2 (the x86_64 baseline).
    Sse2 = 1,
    /// 256-bit AVX2.
    Avx2 = 2,
}

impl Isa {
    /// The lowercase name used by `PMCA_SIMD`, metrics labels, and
    /// loadgen baselines.
    pub fn as_str(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parse a `PMCA_SIMD` value (case-insensitive). `None` for
    /// anything unrecognised.
    pub fn from_name(name: &str) -> Option<Isa> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "sse2" => Some(Isa::Sse2),
            "avx2" => Some(Isa::Avx2),
            _ => None,
        }
    }

    /// The best instruction set this CPU supports, ignoring overrides.
    pub fn detected() -> Isa {
        dispatch().detected
    }

    /// The instruction set every convenience path dispatches on:
    /// detection clamped by the `PMCA_SIMD` override (and by
    /// [`force`], which tests use).
    pub fn active() -> Isa {
        from_u8(dispatch().active.load(Ordering::Relaxed))
    }

    /// `self` if this CPU can execute it, otherwise the detected best.
    /// Kernels clamp every explicitly passed [`Isa`] through this, so
    /// requesting AVX2 on a CPU without it degrades instead of faulting.
    pub fn clamp_supported(self) -> Isa {
        self.min(Isa::detected())
    }
}

struct Dispatch {
    detected: Isa,
    override_raw: Option<String>,
    active: AtomicU8,
}

fn from_u8(v: u8) -> Isa {
    match v {
        2 => Isa::Avx2,
        1 => Isa::Sse2,
        _ => Isa::Scalar,
    }
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let detected = if std::arch::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Sse2
        };
        #[cfg(not(target_arch = "x86_64"))]
        let detected = Isa::Scalar;
        let override_raw = std::env::var("PMCA_SIMD").ok();
        let active = match override_raw.as_deref().and_then(Isa::from_name) {
            Some(requested) => requested.min(detected),
            None => detected,
        };
        Dispatch {
            detected,
            override_raw,
            active: AtomicU8::new(active as u8),
        }
    })
}

/// The raw `PMCA_SIMD` value from the environment, if one was set —
/// recorded even when unrecognised or unsupported so baselines and
/// startup banners can show what was requested, not just what ran.
pub fn override_request() -> Option<&'static str> {
    dispatch().override_raw.as_deref()
}

/// Force the active instruction set (clamped to what the CPU supports)
/// and return the previous one. A test hook: because every [`Isa`] is
/// bit-identical, forcing mid-process is observable only as a speed
/// change, so concurrent tests cannot be perturbed by it.
pub fn force(isa: Isa) -> Isa {
    from_u8(
        dispatch()
            .active
            .swap(isa.clamp_supported() as u8, Ordering::Relaxed),
    )
}

/// Child index of a leaf's `feature` field in a flattened tree arena.
pub const TREE_LEAF: u32 = u32::MAX;

/// One node of a flattened fixed-point tree: integer threshold for
/// internal nodes, integer leaf value (at the leaf scale) for leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNodeI64 {
    /// Quantized threshold, or the quantized leaf value when `feature`
    /// is [`TREE_LEAF`].
    pub scalar: i64,
    /// Feature index tested, or [`TREE_LEAF`].
    pub feature: u32,
    /// Arena indices of the left (`<=`) and right (`>`) children.
    pub children: [u32; 2],
}

/// One node of a flattened f64 tree — the compiled-model arena layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNodeF64 {
    /// Split threshold, or the leaf value when `feature` is
    /// [`TREE_LEAF`].
    pub scalar: f64,
    /// Feature index tested, or [`TREE_LEAF`].
    pub feature: u32,
    /// Arena indices of the left (`<=`) and right (`>`) children.
    pub children: [u32; 2],
}

// ---------------------------------------------------------------------
// i64 multiply-accumulate (fixed-point linear kernel)
// ---------------------------------------------------------------------

/// `acc[i] += w · col[i]` over `min(acc.len(), col.len())` elements.
///
/// The scalar path keeps the fixed-point lowering's historical saturating
/// backstop; the SIMD paths wrap. Both are bit-identical under the
/// invariant the fixed-point lowering enforces (worst-case accumulator
/// magnitude below `4.0e18`), which is the only regime callers are
/// allowed to present.
pub fn mac_i64(isa: Isa, acc: &mut [i64], col: &[i64], w: i64) {
    let n = acc.len().min(col.len());
    let (acc, col) = (&mut acc[..n], &col[..n]);
    #[cfg(target_arch = "x86_64")]
    match isa.clamp_supported() {
        // SAFETY: clamp_supported() proved the CPU has the feature.
        Isa::Avx2 => return unsafe { x86::mac_i64_avx2(acc, col, w) },
        Isa::Sse2 => return unsafe { x86::mac_i64_sse2(acc, col, w) },
        Isa::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    mac_i64_scalar(acc, col, w);
}

fn mac_i64_scalar(acc: &mut [i64], col: &[i64], w: i64) {
    for (a, &q) in acc.iter_mut().zip(col) {
        *a = a.saturating_add(w.saturating_mul(q));
    }
}

// ---------------------------------------------------------------------
// Fixed-point forest routing (SoA columns, integer compares)
// ---------------------------------------------------------------------

/// Walk every tree for rows `0..rows` of the column-major batch,
/// appending one summed-leaf accumulator per row to `acc_out`.
///
/// Routing is `go_right = column[feature][row] > threshold`. AVX2 steps
/// four rows in lockstep with `_mm256_cmpgt_epi64` masks; SSE2 has no
/// 64-bit compare, so it shares the scalar walk (dispatch is
/// per-kernel, and parity makes the difference unobservable). Leaf
/// sums saturate on the scalar path and wrap under AVX2 — identical
/// under the lowering's no-overflow invariant, as in [`mac_i64`].
///
/// # Panics
///
/// Panics if a node's feature index is out of range for `columns` or a
/// column is shorter than `rows` — lowered models never are.
pub fn forest_eval_i64(
    isa: Isa,
    nodes: &[TreeNodeI64],
    roots: &[u32],
    columns: &[Vec<i64>],
    rows: usize,
    acc_out: &mut Vec<i64>,
) {
    #[cfg(target_arch = "x86_64")]
    if isa.clamp_supported() == Isa::Avx2 {
        // SAFETY: clamp_supported() proved the CPU has AVX2.
        unsafe { x86::forest_i64_avx2(nodes, roots, columns, rows, acc_out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    forest_i64_scalar(nodes, roots, columns, 0, rows, acc_out);
}

/// Scalar fixed-point walk over rows `from..to` — also the ragged-tail
/// path for the lane-parallel implementation.
// `r` indexes a per-node column chosen inside the walk, not a single
// iterable, so the range loop is the honest shape.
#[allow(clippy::needless_range_loop)]
fn forest_i64_scalar(
    nodes: &[TreeNodeI64],
    roots: &[u32],
    columns: &[Vec<i64>],
    from: usize,
    to: usize,
    acc_out: &mut Vec<i64>,
) {
    for r in from..to {
        let mut acc = 0i64;
        for &root in roots {
            let mut at = root as usize;
            loop {
                let node = &nodes[at];
                if node.feature == TREE_LEAF {
                    acc = acc.saturating_add(node.scalar);
                    break;
                }
                let go_right = columns[node.feature as usize][r] > node.scalar;
                at = node.children[usize::from(go_right)] as usize;
            }
        }
        acc_out.push(acc);
    }
}

// ---------------------------------------------------------------------
// Pairwise f64 dot product (linear kernels, stream window estimates)
// ---------------------------------------------------------------------

/// Dot product over `min(x.len(), w.len())` elements with the
/// fixed-shape pairwise summation described in the module docs: four
/// accumulator lanes, lane `j` holding elements `4k + j`, tail element
/// `r` added into lane `r mod 4`, reduced as `(l0 + l1) + (l2 + l3)`.
/// Bit-identical across scalar, SSE2, and AVX2 at every width.
pub fn dot_f64(isa: Isa, x: &[f64], w: &[f64]) -> f64 {
    let n = x.len().min(w.len());
    let (x, w) = (&x[..n], &w[..n]);
    #[cfg(target_arch = "x86_64")]
    match isa.clamp_supported() {
        // SAFETY: clamp_supported() proved the CPU has the feature.
        Isa::Avx2 => return unsafe { x86::dot_f64_avx2(x, w) },
        Isa::Sse2 => return unsafe { x86::dot_f64_sse2(x, w) },
        Isa::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    dot_f64_scalar(x, w)
}

fn dot_f64_scalar(x: &[f64], w: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut i = 0;
    while i + 4 <= x.len() {
        lanes[0] += x[i] * w[i];
        lanes[1] += x[i + 1] * w[i + 1];
        lanes[2] += x[i + 2] * w[i + 2];
        lanes[3] += x[i + 3] * w[i + 3];
        i += 4;
    }
    let mut lane = 0;
    while i < x.len() {
        lanes[lane] += x[i] * w[i];
        lane += 1;
        i += 1;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

// ---------------------------------------------------------------------
// f64 forest routing (row-major batches)
// ---------------------------------------------------------------------

/// Evaluate every tree for every row, appending the forest **mean**
/// per row to `out` — the compiled model's arithmetic: leaves
/// accumulate one f64 add per tree in tree order, then one division by
/// the tree count.
///
/// Routing is `go_right = !(row[feature] <= threshold)` (NaN goes
/// right). SSE2 walks two rows per `_mm_cmple_pd` mask, AVX2 four per
/// `_CMP_LE_OQ` mask; ragged tail rows take the scalar walk, which is
/// bit-identical per row by the one-add-per-tree shape.
///
/// # Panics
///
/// Panics if a node's feature index is out of range for a row —
/// compiled models never are.
pub fn forest_eval_f64(
    isa: Isa,
    nodes: &[TreeNodeF64],
    roots: &[u32],
    rows: &[&[f64]],
    out: &mut Vec<f64>,
) {
    if roots.is_empty() {
        out.extend(rows.iter().map(|_| 0.0));
        return;
    }
    #[cfg(target_arch = "x86_64")]
    match isa.clamp_supported() {
        // SAFETY: clamp_supported() proved the CPU has the feature.
        Isa::Avx2 => return unsafe { x86::forest_f64_avx2(nodes, roots, rows, out) },
        Isa::Sse2 => return unsafe { x86::forest_f64_sse2(nodes, roots, rows, out) },
        Isa::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    forest_f64_scalar(nodes, roots, rows, out);
}

fn forest_f64_scalar(nodes: &[TreeNodeF64], roots: &[u32], rows: &[&[f64]], out: &mut Vec<f64>) {
    for row in rows {
        let mut acc = 0.0;
        for &root in roots {
            let mut at = root as usize;
            loop {
                let node = &nodes[at];
                if node.feature == TREE_LEAF {
                    acc += node.scalar;
                    break;
                }
                // `!(v <= t)` keeps the boxed walk's NaN-goes-right
                // routing; `>` would send NaN left.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let go_right = !(row[node.feature as usize] <= node.scalar);
                at = node.children[usize::from(go_right)] as usize;
            }
        }
        out.push(acc / roots.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isas() -> Vec<Isa> {
        let mut all = vec![Isa::Scalar, Isa::Sse2, Isa::Avx2];
        all.retain(|i| i.clamp_supported() == *i);
        all
    }

    #[test]
    fn isa_names_round_trip() {
        for isa in [Isa::Scalar, Isa::Sse2, Isa::Avx2] {
            assert_eq!(Isa::from_name(isa.as_str()), Some(isa));
            assert_eq!(Isa::from_name(&isa.as_str().to_uppercase()), Some(isa));
        }
        assert_eq!(Isa::from_name("neon"), None);
    }

    #[test]
    fn clamping_never_exceeds_detection() {
        for isa in [Isa::Scalar, Isa::Sse2, Isa::Avx2] {
            assert!(isa.clamp_supported() <= Isa::detected());
            assert!(isa.clamp_supported() <= isa);
        }
        assert!(Isa::active() <= Isa::detected());
    }

    #[test]
    fn forcing_swaps_and_restores() {
        let before = force(Isa::Scalar);
        assert_eq!(Isa::active(), Isa::Scalar);
        force(before);
        assert_eq!(Isa::active(), before);
    }

    #[test]
    fn mac_matches_across_isas_and_widths() {
        for n in 0..=67 {
            let col: Vec<i64> = (0..n).map(|i| (i as i64 * 7919 - 1000) % 100_000).collect();
            let mut want = vec![3i64; n];
            mac_i64_scalar(&mut want, &col, -12_345);
            for isa in isas() {
                let mut acc = vec![3i64; n];
                mac_i64(isa, &mut acc, &col, -12_345);
                assert_eq!(acc, want, "{} width {n}", isa.as_str());
            }
        }
    }

    #[test]
    fn dot_is_bit_identical_across_isas_and_widths() {
        for n in 0..=67 {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37 - 3.0).sin() * 1e3)
                .collect();
            let w: Vec<f64> = (0..n).map(|i| (i as f64 * 1.19).cos() / 7.0).collect();
            let want = dot_f64_scalar(&x, &w);
            for isa in isas() {
                assert_eq!(
                    dot_f64(isa, &x, &w).to_bits(),
                    want.to_bits(),
                    "{} width {n}",
                    isa.as_str()
                );
            }
        }
    }

    /// One root: `x0 <= 10` → leaves; used by both forest kernels.
    fn stump_i64() -> (Vec<TreeNodeI64>, Vec<u32>) {
        let leaf = |v: i64| TreeNodeI64 {
            scalar: v,
            feature: TREE_LEAF,
            children: [TREE_LEAF, TREE_LEAF],
        };
        (
            vec![
                TreeNodeI64 {
                    scalar: 10,
                    feature: 0,
                    children: [1, 2],
                },
                leaf(100),
                leaf(-200),
            ],
            vec![0],
        )
    }

    #[test]
    fn i64_forest_matches_across_isas_and_ragged_tails() {
        let (nodes, roots) = stump_i64();
        for rows in 0..=13 {
            let columns = vec![(0..rows as i64).map(|r| r * 3 - 2).collect::<Vec<i64>>()];
            let mut want = Vec::new();
            forest_i64_scalar(&nodes, &roots, &columns, 0, rows, &mut want);
            for isa in isas() {
                let mut got = Vec::new();
                forest_eval_i64(isa, &nodes, &roots, &columns, rows, &mut got);
                assert_eq!(got, want, "{} rows {rows}", isa.as_str());
            }
        }
    }

    #[test]
    fn f64_forest_matches_across_isas_including_nan_routing() {
        let leaf = |v: f64| TreeNodeF64 {
            scalar: v,
            feature: TREE_LEAF,
            children: [TREE_LEAF, TREE_LEAF],
        };
        let nodes = vec![
            TreeNodeF64 {
                scalar: 0.5,
                feature: 0,
                children: [1, 2],
            },
            leaf(1.25),
            leaf(-3.5),
        ];
        let roots = vec![0];
        let raw: Vec<Vec<f64>> = (0..9)
            .map(|r| vec![if r == 4 { f64::NAN } else { r as f64 * 0.2 }])
            .collect();
        let rows: Vec<&[f64]> = raw.iter().map(Vec::as_slice).collect();
        let mut want = Vec::new();
        forest_f64_scalar(&nodes, &roots, &rows, &mut want);
        assert_eq!(want[4], -3.5, "NaN routes right");
        for isa in isas() {
            let mut got = Vec::new();
            forest_eval_f64(isa, &nodes, &roots, &rows, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&got), bits(&want), "{}", isa.as_str());
        }
    }
}
