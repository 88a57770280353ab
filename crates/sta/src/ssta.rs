//! Statistical static timing analysis (SSTA) over the arena timing graph.
//!
//! Every timing arc carries a *canonical first-order form*:
//!
//! ```text
//! A = mean + Σₖ sensₖ · Xₖ + resid · R
//! ```
//!
//! where the `Xₖ` are *keyed* variation sources held sparsely: key 0 is
//! the shared die-level factor (mirroring
//! [`varitune_variation::ProcessCorner`]'s global sigma) and key `arc + 1`
//! is timing arc `arc`'s own local source. Carrying local sigma as keyed
//! sources — bounded per form by [`SstaOptions::max_local_terms`], with
//! overflow folded into the independent residual `R` — preserves the
//! covariance of reconvergent paths through shared arcs, which a lumped
//! independent residual systematically loses at every Clark max.
//! Arrival forms are propagated through the existing levelized
//! schedule with statistical `add` along arcs and Clark's-approximation
//! `max` at gate outputs. The same sharded, shard-order-merged schedule as
//! the deterministic engine is reused, so results are bit-identical at any
//! thread count.
//!
//! On top of the propagated forms the module computes per-endpoint
//! mean/sigma, per-gate criticality (probability a gate lies on the
//! critical path, via the tightness weights of each Clark max), a design
//! level worst-period form, and a yield-at-target-period metric.
//!
//! Validation lives in two places: unit tests here cover the algebra and
//! the degenerate (`sigma_scale = 0`) reduction to deterministic STA, and
//! a graph-level Monte Carlo oracle ([`SstaModel::monte_carlo`]) samples
//! the exact same arc model so the differential suite can compare moments.

use std::collections::HashMap;

use varitune_libchar::StatLibrary;
use varitune_liberty::{InterpolateError, Library, TimingArc};
use varitune_netlist::NetId;
use varitune_variation::mc::VariationMode;
use varitune_variation::parallel::{resolve_threads, run_shards, run_trials};
use varitune_variation::rng::{derive_seed, rng_from};
use varitune_variation::sampler::Normal;
use varitune_variation::stats::normal_cdf;
use varitune_variation::ProcessCorner;

use crate::engine::{Core, TimingGraph, MIN_PARALLEL_WIDTH, NONE_U32, SHARD_GATES};
use crate::graph::StaError;

/// Standard normal density.
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Source key of the shared die-level variation factor. Every timing
/// arc's local source gets key `arc_index + 1`, so key 0 is reserved.
pub const GLOBAL_SOURCE: u32 = 0;

/// One shard's propagation output: output forms and tightness weights in
/// shard-local gate order (merged back in shard order by the caller).
type ShardOutput = Result<(Vec<CanonicalForm>, Vec<f64>), StaError>;

/// Canonical first-order delay form: `mean + Σₖ sensₖ·Xₖ + resid·R`.
///
/// `sens` is a *sparse* sensitivity vector, sorted by source key. Key
/// [`GLOBAL_SOURCE`] is the shared die-level factor; key `arc + 1` is the
/// independent local source of timing arc `arc`. Keeping each arc's local
/// sigma as its own keyed source (instead of lumping it into `resid`) is
/// what lets [`CanonicalForm::max`] see the true covariance of
/// reconvergent paths that share upstream arcs — the dominant error of
/// purely independent-residual SSTA. `resid` collects whatever genuinely
/// independent variance remains (Clark cross terms and truncation
/// overflow); residuals of distinct forms are uncorrelated, so
/// [`CanonicalForm::add`] combines them in quadrature.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalForm {
    /// Mean value (equals the deterministic arrival when all sigmas are 0).
    pub mean: f64,
    /// Sparse `(source key, sensitivity)` pairs, sorted by key.
    pub sens: Vec<(u32, f64)>,
    /// Independent residual coefficient (a standard deviation).
    pub resid: f64,
}

impl CanonicalForm {
    /// A deterministic (zero-variance) form.
    pub fn deterministic(mean: f64) -> Self {
        CanonicalForm {
            mean,
            sens: Vec::new(),
            resid: 0.0,
        }
    }

    /// Total variance: quadrature sum of source sensitivities plus the
    /// independent residual.
    pub fn variance(&self) -> f64 {
        self.sens.iter().map(|&(_, s)| s * s).sum::<f64>() + self.resid * self.resid
    }

    /// Standard deviation (never negative).
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Statistical sum: means add, sensitivities to the same source add,
    /// independent residuals add in quadrature.
    pub fn add(&self, other: &CanonicalForm) -> CanonicalForm {
        let mut sens = Vec::with_capacity(self.sens.len() + other.sens.len());
        add_terms(&self.sens, &other.sens, &mut sens);
        CanonicalForm {
            mean: self.mean + other.mean,
            sens,
            resid: (self.resid * self.resid + other.resid * other.resid).sqrt(),
        }
    }

    /// Shift by a constant (only the mean moves).
    pub fn shift(&self, c: f64) -> CanonicalForm {
        CanonicalForm {
            mean: self.mean + c,
            sens: self.sens.clone(),
            resid: self.resid,
        }
    }

    /// Clark's-approximation statistical max.
    ///
    /// The covariance term is the dot product of the two sparse
    /// sensitivity vectors over their *shared* keys, so two paths through
    /// common upstream arcs are maxed as the correlated quantities they
    /// are. Returns the max form plus the *tightness* `T = P(self >=
    /// other)`. When the two forms are (numerically) perfectly correlated
    /// or both deterministic, the max degenerates to whichever mean is
    /// larger, with `self` (the accumulator in a fold) winning ties —
    /// matching the deterministic engine's strict `arrival > best`
    /// replacement rule so that zero-sigma SSTA reduces bit-exactly to
    /// deterministic STA.
    pub fn max(&self, other: &CanonicalForm) -> (CanonicalForm, f64) {
        let mut sens = Vec::with_capacity(self.sens.len() + other.sens.len());
        let (mean, resid, t) = max_into(self.view(), other.view(), &mut sens);
        (CanonicalForm { mean, sens, resid }, t)
    }

    /// Re-attribute the independent residual to source `key`, zeroing
    /// `resid`. Clark's max leaves its unexplained variance (`var −
    /// Σ sens²`) in the residual; when such a form fans out and the copies
    /// later reconverge, their residuals are the *same* random variable,
    /// not independent draws — keying the residual at the max site keeps
    /// that covariance visible to downstream maxes. Total variance is
    /// unchanged.
    pub fn key_residual(&mut self, key: u32) {
        self.resid = key_residual_into(&mut self.sens, self.resid, key);
    }

    /// Bound the sparse vector to at most `max_local` *local* (non-global)
    /// terms: the `max_local` largest by |sensitivity| survive (ties
    /// broken by ascending key, so the choice is deterministic), the rest
    /// are folded into the independent residual in quadrature. The global
    /// source (key [`GLOBAL_SOURCE`]) is always kept. Mean and total
    /// variance are preserved exactly; only cross-form covariance of the
    /// folded tail is given up.
    pub fn truncated(mut self, max_local: usize) -> CanonicalForm {
        self.resid = truncate_into(&mut self.sens, self.resid, max_local, &mut Vec::new());
        self
    }

    fn view(&self) -> FormRef<'_> {
        FormRef {
            mean: self.mean,
            sens: &self.sens,
            resid: self.resid,
        }
    }
}

// ---------------------------------------------------------------------
// Fold kernel. The propagation folds thousands of forms of ~100 terms
// each; these functions run that fold on caller-owned scratch buffers so
// that a gate evaluation allocates nothing but the forms it commits. Each
// reproduces the floating-point operation order of the form algebra
// above exactly, so results are bit-identical to folding with
// `add`/`max`/`key_residual`/`truncated` on owned forms.
// ---------------------------------------------------------------------

/// A borrowed canonical form: the fold reads its operands in place.
#[derive(Clone, Copy)]
struct FormRef<'a> {
    mean: f64,
    sens: &'a [(u32, f64)],
    resid: f64,
}

/// Truncation rank of a sensitivity as an integer that sorts ascending
/// in descending |sensitivity| order: the bits of a sign-cleared `f64`
/// order as `total_cmp` orders it, inverted. Equal magnitudes share a
/// rank; truncation breaks such ties by ascending key.
fn rank_of(s: f64) -> u64 {
    !s.abs().to_bits()
}

/// The |sensitivity| a [`rank_of`] was made from.
fn rank_abs(rank: u64) -> f64 {
    f64::from_bits(!rank)
}

/// The sensitivities of `sens + terms` (both sorted by key) into `out`:
/// shared keys sum and are dropped at exactly 0, the rest are copied.
/// Each term of `terms` is placed by binary search and the runs of
/// `sens` between them are block-copied, so adding an arc's one or two
/// terms to a long form costs two copies.
fn add_terms(sens: &[(u32, f64)], terms: &[(u32, f64)], out: &mut Vec<(u32, f64)>) {
    out.clear();
    let mut rest = sens;
    for &(k, v) in terms {
        let pos = rest.partition_point(|&(rk, _)| rk < k);
        out.extend_from_slice(&rest[..pos]);
        rest = &rest[pos..];
        match rest.first() {
            Some(&(rk, rv)) if rk == k => {
                let s = rv + v;
                if s != 0.0 {
                    out.push((k, s));
                }
                rest = &rest[1..];
            }
            _ => out.push((k, v)),
        }
    }
    out.extend_from_slice(rest);
}

/// Clark max of `a` (the accumulator, winning ties) and `b`: writes the
/// sensitivities to `out` and returns `(mean, resid, tightness)`. One
/// merge walk yields both variances and the shared-key covariance, each
/// summed in key order, term by term, as a [`CanonicalForm::variance`]
/// pass per operand and a separate covariance walk would sum them.
fn max_into(a: FormRef<'_>, b: FormRef<'_>, out: &mut Vec<(u32, f64)>) -> (f64, f64, f64) {
    let (mut sq_a, mut sq_b, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.sens.len() && j < b.sens.len() {
        let (ka, va) = a.sens[i];
        let (kb, vb) = b.sens[j];
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => {
                sq_a += va * va;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                sq_b += vb * vb;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                sq_a += va * va;
                sq_b += vb * vb;
                cov += va * vb;
                i += 1;
                j += 1;
            }
        }
    }
    for &(_, v) in &a.sens[i..] {
        sq_a += v * v;
    }
    for &(_, v) in &b.sens[j..] {
        sq_b += v * v;
    }
    let var_a = sq_a + a.resid * a.resid;
    let var_b = sq_b + b.resid * b.resid;
    out.clear();
    let theta2 = var_a + var_b - 2.0 * cov;
    if theta2 <= 0.0 {
        // Perfectly correlated (or both deterministic): the max is just
        // the larger of the two, exactly.
        let (winner, t) = if b.mean > a.mean { (b, 0.0) } else { (a, 1.0) };
        out.extend_from_slice(winner.sens);
        return (winner.mean, winner.resid, t);
    }
    let theta = theta2.sqrt();
    let alpha = (a.mean - b.mean) / theta;
    let t = normal_cdf(alpha);
    let phi = normal_pdf(alpha);
    let mean = a.mean * t + b.mean * (1.0 - t) + theta * phi;
    // Second raw moment of max(A, B) per Clark (1961).
    let raw2 = (var_a + a.mean * a.mean) * t
        + (var_b + b.mean * b.mean) * (1.0 - t)
        + (a.mean + b.mean) * theta * phi;
    let var = (raw2 - mean * mean).max(0.0);
    // Union of keys, tightness-weighted: sₖ = T·aₖ + (1−T)·bₖ.
    let sens_sq = match decided_winner(a, sq_a, b, sq_b, t) {
        // Every winner term is scaled by 1 and every loser term by 0,
        // so the union is the winner's nonzero terms and Σ s² is the
        // winner's own sum of squares, bit for bit.
        Some((winner, sq)) => {
            out.extend(winner.sens.iter().filter(|&&(_, s)| s != 0.0));
            sq
        }
        None => blend_into(a, b, t, out),
    };
    let resid = (var - sens_sq).max(0.0).sqrt();
    (mean, resid, t)
}

/// The operand a Clark max with tightness `t` selects outright, with its
/// sum of squares: `a` at `t == 1`, `b` at `t == 0`. Only for finite
/// terms (finite sums of squares), since `0 · ∞` is not 0.
fn decided_winner<'a>(
    a: FormRef<'a>,
    sq_a: f64,
    b: FormRef<'a>,
    sq_b: f64,
    t: f64,
) -> Option<(FormRef<'a>, f64)> {
    if !(sq_a.is_finite() && sq_b.is_finite()) {
        None
    } else if t == 1.0 {
        Some((a, sq_a))
    } else if t == 0.0 {
        Some((b, sq_b))
    } else {
        None
    }
}

/// The tightness-weighted union `T·aₖ + (1−T)·bₖ` of two sparse
/// vectors into `out` (zero terms dropped); returns its Σ s².
fn blend_into(a: FormRef<'_>, b: FormRef<'_>, t: f64, out: &mut Vec<(u32, f64)>) -> f64 {
    let mut sens_sq = 0.0;
    let mut push = |k: u32, s: f64| {
        if s != 0.0 {
            sens_sq += s * s;
            out.push((k, s));
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.sens.len() && j < b.sens.len() {
        let (ka, va) = a.sens[i];
        let (kb, vb) = b.sens[j];
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => {
                push(ka, va * t);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                push(kb, vb * (1.0 - t));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                push(ka, va * t + vb * (1.0 - t));
                i += 1;
                j += 1;
            }
        }
    }
    for &(k, v) in &a.sens[i..] {
        push(k, v * t);
    }
    for &(k, v) in &b.sens[j..] {
        push(k, v * (1.0 - t));
    }
    sens_sq
}

/// [`CanonicalForm::key_residual`] on a bare sensitivity vector: returns
/// the new residual (`resid` itself when it is zero, else 0).
fn key_residual_into(sens: &mut Vec<(u32, f64)>, resid: f64, key: u32) -> f64 {
    if resid == 0.0 {
        return resid;
    }
    let pos = sens.partition_point(|&(k, _)| k < key);
    if pos < sens.len() && sens[pos].0 == key {
        // Key collision cannot happen for the per-arc max-site keys the
        // model uses, but fold in quadrature rather than corrupt the
        // sorted-unique invariant if a caller reuses a key.
        let v = sens[pos].1;
        sens[pos].1 = (v * v + resid * resid).sqrt();
    } else {
        sens.insert(pos, (key, resid));
    }
    0.0
}

/// [`CanonicalForm::truncated`] on a bare sensitivity vector, with
/// `ranks` as scratch: returns the new residual.
///
/// Selection, not sorting, picks the survivors: after
/// `select_nth_unstable` the rank at position `max_local` is the best
/// dropped one (the pivot). Terms ranked before the pivot survive, and
/// so do as many terms tied with it as there are ties among the
/// selected, lowest keys first — exactly the terms a full sort by
/// (|sensitivity|, key) puts first. Only the dropped tail is sorted, so
/// the folded variance is summed in rank order, term by term, as a full
/// sort would sum it (tied terms have equal squares, so their order
/// does not matter).
fn truncate_into(
    sens: &mut Vec<(u32, f64)>,
    resid: f64,
    max_local: usize,
    ranks: &mut Vec<u64>,
) -> f64 {
    // Keys are sorted and unique, so the global source can only lead.
    let n_global = usize::from(sens.first().is_some_and(|&(k, _)| k == GLOBAL_SOURCE));
    if sens.len() - n_global <= max_local {
        return resid;
    }
    ranks.clear();
    ranks.extend(sens[n_global..].iter().map(|&(_, s)| rank_of(s)));
    let (head, &mut pivot, tail) = ranks.select_nth_unstable(max_local);
    let mut tied_kept = head.iter().filter(|&&r| r == pivot).count();
    tail.sort_unstable();
    // |s|² equals s² bit for bit.
    let mut folded = rank_abs(pivot) * rank_abs(pivot);
    for &rank in tail.iter() {
        folded += rank_abs(rank) * rank_abs(rank);
    }
    sens.retain(|&(k, s)| {
        let rank = rank_of(s);
        if k == GLOBAL_SOURCE || rank < pivot {
            return true;
        }
        let keep = rank == pivot && tied_kept > 0;
        tied_kept -= usize::from(keep);
        keep
    });
    (resid * resid + folded).sqrt()
}

/// One arc's canonical form held inline: its mean and its at most two
/// nonzero terms (global key, then the arc's own key), no residual.
struct ArcTerms {
    mean: f64,
    terms: [(u32, f64); 2],
    len: usize,
}

impl ArcTerms {
    /// The form of an arc of delay `mean` with relative sigmas
    /// `global_rel` (shared source) and `local_rel` (source `key`).
    fn new(mean: f64, global_rel: f64, local_rel: f64, key: u32) -> Self {
        let mut arc = ArcTerms {
            mean,
            terms: [(GLOBAL_SOURCE, 0.0); 2],
            len: 0,
        };
        for (k, s) in [(GLOBAL_SOURCE, mean * global_rel), (key, mean * local_rel)] {
            if s != 0.0 {
                arc.terms[arc.len] = (k, s);
                arc.len += 1;
            }
        }
        arc
    }

    fn terms(&self) -> &[(u32, f64)] {
        &self.terms[..self.len]
    }

    /// `form + arc` as [`CanonicalForm::add`] computes it: writes the
    /// sensitivities to `out` and returns `(mean, resid)`.
    fn add_to(&self, form: &CanonicalForm, out: &mut Vec<(u32, f64)>) -> (f64, f64) {
        add_terms(&form.sens, self.terms(), out);
        // The arc has no residual, and r² + 0² is r² exactly.
        (form.mean + self.mean, (form.resid * form.resid).sqrt())
    }
}

/// Reusable sensitivity buffers of the per-gate fold (accumulator,
/// candidate, max output, truncation selection). Once they have grown to
/// the largest form, a gate evaluation allocates only its committed
/// output forms.
#[derive(Default)]
struct FoldScratch {
    acc: Vec<(u32, f64)>,
    cand: Vec<(u32, f64)>,
    max: Vec<(u32, f64)>,
    ranks: Vec<u64>,
}

/// Interpolate mean and sigma delay for one arc pair at a (slew, load)
/// query point, taking the worst (largest-mean) edge over `cell_rise` and
/// `cell_fall` — mirroring [`TimingArc::worst_delay`]'s fold order and tie
/// handling bit-exactly, so the mean returned here equals the
/// deterministic engine's arc delay to the last bit.
fn stat_delay(
    mean_arc: &TimingArc,
    sigma_arc: &TimingArc,
    slew: f64,
    load: f64,
) -> Result<(f64, f64), InterpolateError> {
    let pairs = [
        (mean_arc.cell_rise.as_ref(), sigma_arc.cell_rise.as_ref()),
        (mean_arc.cell_fall.as_ref(), sigma_arc.cell_fall.as_ref()),
    ];
    let mut best: Option<(f64, f64)> = None;
    for (m_lut, s_lut) in pairs {
        let Some(m_lut) = m_lut else { continue };
        let m = m_lut.interpolate(slew, load)?;
        let s = match s_lut {
            Some(s_lut) => s_lut.interpolate(slew, load)?,
            None => 0.0,
        };
        if best.is_none_or(|(bm, _)| m > bm) {
            best = Some((m, s));
        }
    }
    best.ok_or(InterpolateError::EmptyTable)
}

/// Resolve one gate's sigma-column arcs in `lib`, mirroring the engine's
/// `intern_cell` order exactly: sequential cells take the first timing arc
/// of each output pin (one arc per output); combinational cells take,
/// output-major, the arc on each output pin whose `related_pin` names each
/// input pin in order.
fn resolve_sigma_arcs<'s>(
    lib: &'s Library,
    gi: usize,
    cell_name: &str,
    n_in: usize,
    n_out: usize,
    seq: bool,
) -> Result<Vec<&'s TimingArc>, StaError> {
    let cid = lib
        .cell_id(cell_name)
        .ok_or_else(|| StaError::UnknownCell {
            gate: gi,
            name: cell_name.to_string(),
        })?;
    let cell = &lib.cells[cid.index()];
    let missing = || StaError::MissingArc {
        gate: gi,
        cell: cell_name.to_string(),
    };
    let mut arcs = Vec::with_capacity(if seq { n_out } else { n_out * n_in });
    if seq {
        for j in 0..n_out {
            let pin = cell.output_pins().nth(j).ok_or_else(missing)?;
            arcs.push(pin.timing.first().ok_or_else(missing)?);
        }
    } else {
        let pins: Vec<_> = cell.input_pins().collect();
        if pins.len() < n_in {
            return Err(missing());
        }
        for j in 0..n_out {
            let pin = cell.output_pins().nth(j).ok_or_else(missing)?;
            for input_pin in pins.iter().take(n_in) {
                let arc = pin
                    .timing
                    .iter()
                    .find(|a| a.related_pin == input_pin.name)
                    .ok_or_else(missing)?;
                arcs.push(arc);
            }
        }
    }
    Ok(arcs)
}

/// Options controlling the statistical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SstaOptions {
    /// Process corner supplying the mean scale factor and global sigma.
    pub corner: ProcessCorner,
    /// Whether the shared die-level source participates.
    pub mode: VariationMode,
    /// Multiplier on every sigma (`0` recovers deterministic STA exactly).
    pub sigma_scale: f64,
    /// Cap on local (per-arc) sensitivity terms carried per canonical
    /// form; the smallest-|sens| overflow folds into the independent
    /// residual. Bounds memory and propagation cost to `O(arcs ×
    /// max_local_terms)` at a small, deterministic accuracy cost.
    pub max_local_terms: usize,
}

impl Default for SstaOptions {
    fn default() -> Self {
        SstaOptions {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            max_local_terms: 128,
        }
    }
}

/// Per-endpoint statistical arrival summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaEndpoint {
    /// Endpoint net.
    pub net: NetId,
    /// Mean arrival at the endpoint.
    pub mean: f64,
    /// Arrival standard deviation.
    pub sigma: f64,
    /// Required time at the endpoint (period minus setup for FF data pins).
    pub required: f64,
    /// Probability this endpoint is the design's critical endpoint.
    pub criticality: f64,
}

/// Result of a full statistical analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaReport {
    /// Corner the model was built at.
    pub corner: ProcessCorner,
    /// Variation mode of the model.
    pub mode: VariationMode,
    /// Sigma multiplier of the model.
    pub sigma_scale: f64,
    /// Clock period used for required times and slack.
    pub clock_period: f64,
    /// Per-endpoint moments and criticality, in endpoint order.
    pub endpoints: Vec<SstaEndpoint>,
    /// Design-level form of `max over endpoints of (arrival − required +
    /// period)`: the smallest clock period at which the design meets
    /// timing. Its mean/sigma drive the yield metric.
    pub design: CanonicalForm,
    /// Per-gate criticality: probability the gate lies on the critical path.
    pub gate_criticality: Vec<f64>,
    /// Propagated arrival form per net (indexed by net id).
    pub arrivals: Vec<CanonicalForm>,
}

impl SstaReport {
    /// Mean of the minimum feasible clock period.
    pub fn design_mean(&self) -> f64 {
        self.design.mean
    }

    /// Sigma of the minimum feasible clock period.
    pub fn design_sigma(&self) -> f64 {
        self.design.sigma()
    }

    /// Probability the design meets timing at clock period `period`.
    pub fn yield_at(&self, period: f64) -> f64 {
        let sigma = self.design.sigma();
        if sigma <= 0.0 {
            return if period >= self.design.mean { 1.0 } else { 0.0 };
        }
        normal_cdf((period - self.design.mean) / sigma)
    }

    /// Smallest clock period achieving yield `target`, by bisection.
    ///
    /// # Errors
    ///
    /// Statistical quantities are data, not invariants: an out-of-domain
    /// target or tolerance is reported as [`StaError::InvalidParameter`],
    /// never a panic.
    pub fn period_at_yield(&self, target: f64, tol: f64) -> Result<f64, StaError> {
        if !(target > 0.0 && target < 1.0) {
            return Err(StaError::InvalidParameter {
                reason: format!("yield target must be in (0, 1), got {target}"),
            });
        }
        // `tol <= 0.0` is false for NaN, but the finiteness check rejects
        // NaN on its own.
        if tol <= 0.0 || !tol.is_finite() {
            return Err(StaError::InvalidParameter {
                reason: format!("bisection tolerance must be finite and > 0, got {tol}"),
            });
        }
        let sigma = self.design.sigma();
        if sigma <= 0.0 {
            return Ok(self.design.mean);
        }
        let mut lo = self.design.mean - 10.0 * sigma;
        let mut hi = self.design.mean + 10.0 * sigma;
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if self.yield_at(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    /// The `n` most critical gates as `(gate index, criticality)`, sorted
    /// by descending criticality (ties broken by ascending gate index so
    /// the ranking is deterministic).
    pub fn top_gate_criticalities(&self, n: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> =
            self.gate_criticality.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// Sum of endpoint criticalities (≈ 1 up to Clark/fp error).
    pub fn criticality_sum(&self) -> f64 {
        self.endpoints.iter().map(|e| e.criticality).sum()
    }

    /// Digest over every endpoint moment, the design form, and every gate
    /// criticality — bit-exact, so equal digests mean bit-identical
    /// results.
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, bits: u64) -> u64 {
            (h ^ bits).wrapping_mul(0x0100_0000_01b3).rotate_left(17)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for ep in &self.endpoints {
            h = mix(h, u64::from(ep.net.0));
            h = mix(h, ep.mean.to_bits());
            h = mix(h, ep.sigma.to_bits());
            h = mix(h, ep.criticality.to_bits());
        }
        h = mix(h, self.design.mean.to_bits());
        h = mix(h, self.design.resid.to_bits());
        for &(k, s) in &self.design.sens {
            h = mix(h, u64::from(k));
            h = mix(h, s.to_bits());
        }
        for c in &self.gate_criticality {
            h = mix(h, c.to_bits());
        }
        h
    }
}

/// Graph-level Monte Carlo moments, from sampling the same arc model the
/// SSTA propagation uses. Bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMcResult {
    /// Number of trials run.
    pub trials: usize,
    /// Per-endpoint sample mean, in endpoint order.
    pub endpoint_mean: Vec<f64>,
    /// Per-endpoint sample standard deviation, in endpoint order.
    pub endpoint_sigma: Vec<f64>,
    /// Sample mean of the design minimum feasible period.
    pub design_mean: f64,
    /// Sample sigma of the design minimum feasible period.
    pub design_sigma: f64,
}

/// Streaming mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Chan et al. pairwise merge; merging in a fixed (chunk) order keeps
    /// the result bit-identical regardless of worker count.
    fn merge(self, other: Welford) -> Welford {
        if other.n == 0 {
            return self;
        }
        if self.n == 0 {
            return other;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        Welford {
            n,
            mean: self.mean + delta * other.n as f64 / n as f64,
            m2: self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64,
        }
    }

    fn sigma(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }
}

/// Trials per deterministic MC chunk. Fixed so the trial→chunk mapping —
/// and therefore the chunk-ordered moment merge — never depends on worker
/// count.
const MC_CHUNK: usize = 64;

/// Statistical timing model bound to a built [`TimingGraph`].
///
/// Holds one canonical-form ingredient set per timing arc (mean at the
/// chosen corner, relative local sigma, shared global sensitivity) plus
/// the levelized stage schedule shared with the deterministic engine.
pub struct SstaModel<'g, 'l> {
    core: &'g Core<'l>,
    opts: SstaOptions,
    /// Corner-scaled mean delay per arc (engine arc order).
    arc_mean: Vec<f64>,
    /// Relative local sigma per arc (sigma/mean, scaled).
    arc_rel: Vec<f64>,
    /// Relative sigma of the shared die-level source (0 in LocalOnly).
    global_rel: f64,
    stage_off: Vec<u32>,
    schedule: Vec<u32>,
}

impl<'g, 'l> SstaModel<'g, 'l> {
    /// Build the statistical arc model for `graph` from `stat`'s paired
    /// mean/sigma libraries.
    ///
    /// The graph must have been constructed over `&stat.mean` (the exact
    /// library, not a copy), so the mean arcs interned in the engine are
    /// the mean columns this model pairs with `stat`'s sigma columns —
    /// which is what makes the zero-sigma reduction bit-exact.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] for a non-finite or negative
    /// `sigma_scale`; cell/arc resolution errors if `stat.sigma` does not
    /// cover the cells the graph uses.
    pub fn build(
        graph: &'g TimingGraph<'l>,
        stat: &StatLibrary,
        opts: SstaOptions,
    ) -> Result<Self, StaError> {
        if !opts.sigma_scale.is_finite() || opts.sigma_scale < 0.0 {
            return Err(StaError::InvalidParameter {
                reason: format!(
                    "sigma_scale must be finite and >= 0, got {}",
                    opts.sigma_scale
                ),
            });
        }
        let _span = varitune_trace::span!("sta.ssta.build");
        let core = graph.core();
        let f = opts.corner.delay_factor();
        let n_arcs = core.arcs.len();
        let mut arc_mean = vec![0.0f64; n_arcs];
        let mut arc_rel = vec![0.0f64; n_arcs];
        // Sigma-arc resolution is per distinct (cell, shape); memoize it.
        let mut resolved: HashMap<(u32, usize, usize, bool), Vec<&TimingArc>> = HashMap::new();
        for gi in 0..core.n_gates() {
            let inputs = core.gate_inputs(gi);
            let n_in = inputs.len();
            let n_out = core.gate_outputs(gi).len();
            let seq = core.is_seq[gi];
            let cell_idx = core.cell_idx[gi];
            let key = (cell_idx, n_in, n_out, seq);
            let sigma_arcs: &Vec<&TimingArc> = match resolved.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let cell_name = &core.lib.cells[cell_idx as usize].name;
                    v.insert(resolve_sigma_arcs(
                        &stat.sigma,
                        gi,
                        cell_name,
                        n_in,
                        n_out,
                        seq,
                    )?)
                }
            };
            let arc_base = core.arc_off[gi] as usize;
            let mean_arcs = &core.arcs[arc_base..core.arc_off[gi + 1] as usize];
            if mean_arcs.len() != sigma_arcs.len() {
                return Err(StaError::MismatchedInput {
                    reason: format!(
                        "gate #{gi}: {} mean arcs vs {} sigma arcs",
                        mean_arcs.len(),
                        sigma_arcs.len()
                    ),
                });
            }
            for j in 0..n_out {
                let out = core.gate_outputs(gi)[j] as usize;
                let load = core.loads[out];
                if seq {
                    let (m, s) =
                        stat_delay(mean_arcs[j], sigma_arcs[j], core.config.clock_slew, load)?;
                    let ai = arc_base + j;
                    arc_mean[ai] = m * f;
                    arc_rel[ai] = if m > 0.0 {
                        (s / m).max(0.0) * opts.sigma_scale
                    } else {
                        0.0
                    };
                } else {
                    for (k, &inp) in inputs.iter().enumerate() {
                        let slew = core.nets[inp as usize].slew;
                        let row = j * n_in + k;
                        let (m, s) = stat_delay(mean_arcs[row], sigma_arcs[row], slew, load)?;
                        let ai = arc_base + row;
                        arc_mean[ai] = m * f;
                        arc_rel[ai] = if m > 0.0 {
                            (s / m).max(0.0) * opts.sigma_scale
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
        let global_rel = match opts.mode {
            VariationMode::GlobalAndLocal => opts.corner.global_rel_sigma() * opts.sigma_scale,
            VariationMode::LocalOnly => 0.0,
        };
        let (stage_off, schedule) = core.stage_schedule();
        varitune_trace::add("sta.ssta.arcs_modeled", n_arcs as u64);
        Ok(SstaModel {
            core,
            opts,
            arc_mean,
            arc_rel,
            global_rel,
            stage_off,
            schedule,
        })
    }

    /// Raw per-arc model ingredients `(arc_mean, arc_rel, global_rel)` in
    /// engine arc order — a diagnostic seam for external oracles and
    /// tooling that want to resample the exact model.
    #[doc(hidden)]
    pub fn arc_model(&self) -> (&[f64], &[f64], f64) {
        (&self.arc_mean, &self.arc_rel, self.global_rel)
    }

    /// The canonical form of one arc's delay: global sensitivity on the
    /// shared key, local sigma on the arc's own key (`ai + 1`), no
    /// independent residual — all of an arc's variance is attributable.
    fn arc_terms(&self, ai: usize) -> ArcTerms {
        ArcTerms::new(
            self.arc_mean[ai],
            self.global_rel,
            self.arc_rel[ai],
            ai as u32 + 1,
        )
    }

    /// Number of tightness-weight slots a gate contributes (its full arc
    /// row count).
    fn gate_weight_len(&self, gi: usize) -> usize {
        let n_out = self.core.gate_outputs(gi).len();
        if self.core.is_seq[gi] {
            n_out
        } else {
            n_out * self.core.gate_inputs(gi).len()
        }
    }

    /// Evaluate one gate: push its output forms and the per-arc tightness
    /// weights (sequential launch arcs have weight 1; each combinational
    /// input gets the telescoped Clark tightness of the fold).
    ///
    /// Each output folds `max_k(input_k + arc_k)` in `scratch`; only the
    /// truncated result is copied out, at exact capacity.
    fn eval_gate(
        &self,
        gi: usize,
        forms: &[CanonicalForm],
        scratch: &mut FoldScratch,
        out_forms: &mut Vec<CanonicalForm>,
        out_w: &mut Vec<f64>,
    ) -> Result<(), StaError> {
        let outs = self.core.gate_outputs(gi);
        let arc_base = self.core.arc_off[gi] as usize;
        if self.core.is_seq[gi] {
            for j in 0..outs.len() {
                let arc = self.arc_terms(arc_base + j);
                out_forms.push(CanonicalForm {
                    mean: arc.mean,
                    sens: arc.terms().to_vec(),
                    resid: 0.0,
                });
                out_w.push(1.0);
            }
            return Ok(());
        }
        let inputs = self.core.gate_inputs(gi);
        let n_in = inputs.len();
        // Max-site residual keys live above the per-arc local key space:
        // the Clark residual born at the fold step of arc `ai` gets key
        // `n_arcs + 1 + ai`, unique and stable across thread counts.
        let resid_key_base = self.core.arcs.len() as u32 + 1;
        let FoldScratch {
            acc,
            cand,
            max,
            ranks,
        } = scratch;
        for j in 0..outs.len() {
            if n_in == 0 {
                return Err(StaError::MissingArc {
                    gate: gi,
                    cell: self.core.lib.cells[self.core.cell_idx[gi] as usize]
                        .name
                        .clone(),
                });
            }
            let row = arc_base + j * n_in;
            let (mut acc_mean, mut acc_resid) = (0.0, 0.0);
            let w0 = out_w.len();
            for (k, &inp) in inputs.iter().enumerate() {
                let in_form = &forms[inp as usize];
                if !in_form.mean.is_finite() {
                    return Err(StaError::MalformedGate {
                        gate: gi,
                        reason: format!(
                            "input #{k} has non-finite arrival {} during statistical propagation",
                            in_form.mean
                        ),
                    });
                }
                let (cand_mean, cand_resid) = self.arc_terms(row + k).add_to(in_form, cand);
                if k == 0 {
                    std::mem::swap(acc, cand);
                    (acc_mean, acc_resid) = (cand_mean, cand_resid);
                    out_w.push(1.0);
                    continue;
                }
                let (mean, resid, t) = max_into(
                    FormRef {
                        mean: acc_mean,
                        sens: acc,
                        resid: acc_resid,
                    },
                    FormRef {
                        mean: cand_mean,
                        sens: cand,
                        resid: cand_resid,
                    },
                    max,
                );
                acc_resid = key_residual_into(max, resid, resid_key_base + (row + k) as u32);
                acc_mean = mean;
                std::mem::swap(acc, max);
                for w in &mut out_w[w0..] {
                    *w *= t;
                }
                out_w.push(1.0 - t);
            }
            acc_resid = truncate_into(acc, acc_resid, self.opts.max_local_terms, ranks);
            out_forms.push(CanonicalForm {
                mean: acc_mean,
                sens: acc.to_vec(),
                resid: acc_resid,
            });
        }
        Ok(())
    }

    /// Move one gate's computed output forms and copy its tightness
    /// weights into the global arrays.
    fn commit_gate(
        &self,
        gi: usize,
        gate_forms: impl Iterator<Item = CanonicalForm>,
        gate_w: &[f64],
        forms: &mut [CanonicalForm],
        weights: &mut [f64],
    ) {
        for (&out, form) in self.core.gate_outputs(gi).iter().zip(gate_forms) {
            forms[out as usize] = form;
        }
        let arc_base = self.core.arc_off[gi] as usize;
        weights[arc_base..arc_base + gate_w.len()].copy_from_slice(gate_w);
    }

    /// Propagate one levelized stage, sharded exactly like the
    /// deterministic engine (same shard size, same worker rule, shard-order
    /// merge) so forms are bit-identical at any thread count.
    fn propagate_stage(
        &self,
        list: &[u32],
        scratch: &mut FoldScratch,
        forms: &mut [CanonicalForm],
        weights: &mut [f64],
    ) -> Result<(), StaError> {
        let workers = if self.core.threads == 1 {
            1
        } else {
            resolve_threads(self.core.threads)
        };
        if workers <= 1 || list.len() < MIN_PARALLEL_WIDTH {
            let mut out_forms = Vec::new();
            let mut out_w = Vec::new();
            for &g in list {
                let gi = g as usize;
                out_w.clear();
                self.eval_gate(gi, forms, scratch, &mut out_forms, &mut out_w)?;
                self.commit_gate(gi, out_forms.drain(..), &out_w, forms, weights);
            }
            return Ok(());
        }
        let shards: Vec<ShardOutput> = run_shards(list.len(), SHARD_GATES, workers, |_, range| {
            let mut scratch = FoldScratch::default();
            let mut out_forms = Vec::new();
            let mut out_w = Vec::new();
            for &g in &list[range] {
                self.eval_gate(g as usize, forms, &mut scratch, &mut out_forms, &mut out_w)?;
            }
            Ok((out_forms, out_w))
        });
        // Merge in shard order: the same commit order as the serial path.
        // Shard boundaries are a pure function of (len, SHARD_GATES).
        for (s, shard) in shards.into_iter().enumerate() {
            let (shard_forms, shard_w) = shard?;
            let mut shard_forms = shard_forms.into_iter();
            let lo = s * SHARD_GATES;
            let hi = ((s + 1) * SHARD_GATES).min(list.len());
            let mut wi = 0usize;
            for &g in &list[lo..hi] {
                let gi = g as usize;
                let n_out = self.core.gate_outputs(gi).len();
                let n_w = self.gate_weight_len(gi);
                self.commit_gate(
                    gi,
                    shard_forms.by_ref().take(n_out),
                    &shard_w[wi..wi + n_w],
                    forms,
                    weights,
                );
                wi += n_w;
            }
        }
        Ok(())
    }

    /// Run the full statistical analysis: forward propagation, endpoint
    /// fold, and backward criticality.
    ///
    /// # Errors
    ///
    /// Propagation errors ([`StaError::MalformedGate`],
    /// [`StaError::MissingArc`]) if the graph state is inconsistent.
    pub fn analyze(&self) -> Result<SstaReport, StaError> {
        let _span = varitune_trace::span!("sta.ssta.analyze");
        varitune_trace::add("sta.ssta.analyses", 1);
        let core = self.core;
        let n_nets = core.nets.len();
        let mut forms: Vec<CanonicalForm> = (0..n_nets)
            .map(|ni| {
                if core.driver[ni] == NONE_U32 {
                    CanonicalForm::deterministic(core.nets[ni].arrival)
                } else {
                    CanonicalForm::deterministic(f64::NEG_INFINITY)
                }
            })
            .collect();
        let mut weights = vec![0.0f64; core.arcs.len()];
        let mut scratch = FoldScratch::default();
        let n_stages = self.stage_off.len() - 1;
        for s in 0..n_stages {
            let list = &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
            if list.is_empty() {
                continue;
            }
            self.propagate_stage(list, &mut scratch, &mut forms, &mut weights)?;
        }

        // Endpoint fold: W = max over endpoints of (arrival − required +
        // period), the minimum feasible clock period. The tightness
        // weights of the fold are each endpoint's criticality.
        // Folded in the scratch buffers like a gate, reading each
        // endpoint's form in place with its mean shifted.
        let t_clk = core.config.effective_period();
        let n_ep = core.endpoints.len();
        let FoldScratch {
            acc, max, ranks, ..
        } = &mut scratch;
        let (mut design_mean, mut design_resid) = (f64::NEG_INFINITY, 0.0);
        acc.clear();
        let mut ep_w = vec![0.0f64; n_ep];
        for (e, ep) in core.endpoints.iter().enumerate() {
            let form = &forms[ep.net.0 as usize];
            let shifted = FormRef {
                mean: form.mean + (t_clk - ep.required),
                sens: &form.sens,
                resid: form.resid,
            };
            if e == 0 {
                acc.extend_from_slice(shifted.sens);
                (design_mean, design_resid) = (shifted.mean, shifted.resid);
                ep_w[e] = 1.0;
                continue;
            }
            let design = FormRef {
                mean: design_mean,
                sens: acc,
                resid: design_resid,
            };
            let (mean, resid, t) = max_into(design, shifted, max);
            for w in &mut ep_w[..e] {
                *w *= t;
            }
            ep_w[e] = 1.0 - t;
            design_resid = truncate_into(max, resid, self.opts.max_local_terms, ranks);
            design_mean = mean;
            std::mem::swap(acc, max);
        }
        let design = CanonicalForm {
            mean: design_mean,
            sens: acc.to_vec(),
            resid: design_resid,
        };

        let endpoints: Vec<SstaEndpoint> = core
            .endpoints
            .iter()
            .enumerate()
            .map(|(e, ep)| {
                let form = &forms[ep.net.0 as usize];
                SstaEndpoint {
                    net: ep.net,
                    mean: form.mean,
                    sigma: form.sigma(),
                    required: ep.required,
                    criticality: ep_w[e],
                }
            })
            .collect();

        // Backward criticality: seed endpoint nets with the fold weights,
        // then walk stages in reverse multiplying by arc tightness.
        let mut net_crit = vec![0.0f64; n_nets];
        for (e, ep) in core.endpoints.iter().enumerate() {
            net_crit[ep.net.0 as usize] += ep_w[e];
        }
        let mut gate_crit = vec![0.0f64; core.n_gates()];
        for s in (0..n_stages).rev() {
            let list = &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
            for &g in list {
                let gi = g as usize;
                let outs = core.gate_outputs(gi);
                let mut c = 0.0;
                for &out in outs {
                    c += net_crit[out as usize];
                }
                gate_crit[gi] = c;
                if core.is_seq[gi] || c == 0.0 {
                    continue;
                }
                let inputs = core.gate_inputs(gi);
                let n_in = inputs.len();
                let arc_base = core.arc_off[gi] as usize;
                for (j, &out) in outs.iter().enumerate() {
                    let co = net_crit[out as usize];
                    if co == 0.0 {
                        continue;
                    }
                    for (k, &inp) in inputs.iter().enumerate() {
                        let w = weights[arc_base + j * n_in + k];
                        if w != 0.0 {
                            net_crit[inp as usize] += co * w;
                        }
                    }
                }
            }
        }

        Ok(SstaReport {
            corner: self.opts.corner,
            mode: self.opts.mode,
            sigma_scale: self.opts.sigma_scale,
            clock_period: t_clk,
            endpoints,
            design,
            gate_criticality: gate_crit,
            arrivals: forms,
        })
    }

    /// Graph-level Monte Carlo over the *same* arc model: each trial
    /// samples a die factor plus one local factor per arc and re-runs the
    /// deterministic max propagation. Trials are chunked with a fixed
    /// chunk size and their moments merged in chunk order, so the result
    /// is bit-identical at any thread count. This is the oracle the
    /// differential suite compares SSTA moments against.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] for `trials == 0` or an invalid
    /// sampling distribution (degenerate sigma inputs).
    pub fn monte_carlo(
        &self,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Result<GraphMcResult, StaError> {
        if trials == 0 {
            return Err(StaError::InvalidParameter {
                reason: "Monte Carlo needs at least one trial, got 0".to_string(),
            });
        }
        let _span = varitune_trace::span!("sta.ssta.mc");
        varitune_trace::add("sta.ssta.mc_trials", trials as u64);
        let core = self.core;
        let f = self.opts.corner.delay_factor();
        let die_dist = match self.opts.mode {
            VariationMode::GlobalAndLocal => Some(
                Normal::new(
                    f,
                    f * self.opts.corner.global_rel_sigma() * self.opts.sigma_scale,
                )
                .map_err(|e| StaError::InvalidParameter {
                    reason: format!("die distribution: {e}"),
                })?,
            ),
            VariationMode::LocalOnly => None,
        };
        let local: Vec<Normal> = self
            .arc_rel
            .iter()
            .map(|&rel| {
                Normal::new(1.0, rel).map_err(|e| StaError::InvalidParameter {
                    reason: format!("local arc distribution: {e}"),
                })
            })
            .collect::<Result<_, _>>()?;
        let n_nets = core.nets.len();
        let base: Vec<f64> = (0..n_nets)
            .map(|ni| {
                if core.driver[ni] == NONE_U32 {
                    core.nets[ni].arrival
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let t_clk = core.config.effective_period();
        let n_ep = core.endpoints.len();
        let stream = derive_seed(
            seed,
            "ssta-graph-mc",
            (self.opts.corner as u64) ^ ((self.opts.mode as u64) << 8),
        );
        let workers = if threads == 1 {
            1
        } else {
            resolve_threads(threads)
        };
        let n_chunks = trials.div_ceil(MC_CHUNK);
        let n_stages = self.stage_off.len() - 1;
        let chunk_stats: Vec<(Vec<Welford>, Welford)> = run_trials(n_chunks, workers, |chunk| {
            let lo = chunk * MC_CHUNK;
            let hi = ((chunk + 1) * MC_CHUNK).min(trials);
            let mut ep_acc = vec![Welford::default(); n_ep];
            let mut w_acc = Welford::default();
            let mut arrivals = base.clone();
            for t in lo..hi {
                let mut rng = rng_from(stream, "trial", t as u64);
                let die = match die_dist {
                    Some(d) => d.sample(&mut rng).max(0.05) / f,
                    None => 1.0,
                };
                arrivals.copy_from_slice(&base);
                for s in 0..n_stages {
                    let list =
                        &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
                    for &g in list {
                        let gi = g as usize;
                        let inputs = core.gate_inputs(gi);
                        let outs = core.gate_outputs(gi);
                        let n_in = inputs.len();
                        let arc_base = core.arc_off[gi] as usize;
                        if core.is_seq[gi] {
                            for (j, &out) in outs.iter().enumerate() {
                                let ai = arc_base + j;
                                let lf = local[ai].sample(&mut rng).max(0.05);
                                arrivals[out as usize] = self.arc_mean[ai] * die * lf;
                            }
                        } else {
                            for (j, &out) in outs.iter().enumerate() {
                                let row = arc_base + j * n_in;
                                let mut best = f64::NEG_INFINITY;
                                for (k, &inp) in inputs.iter().enumerate() {
                                    let ai = row + k;
                                    let lf = local[ai].sample(&mut rng).max(0.05);
                                    let cand =
                                        arrivals[inp as usize] + self.arc_mean[ai] * die * lf;
                                    if cand > best {
                                        best = cand;
                                    }
                                }
                                arrivals[out as usize] = best;
                            }
                        }
                    }
                }
                let mut w_trial = f64::NEG_INFINITY;
                for (e, ep) in core.endpoints.iter().enumerate() {
                    let v = arrivals[ep.net.0 as usize];
                    ep_acc[e].push(v);
                    let slackless = v + (t_clk - ep.required);
                    if slackless > w_trial {
                        w_trial = slackless;
                    }
                }
                if n_ep > 0 {
                    w_acc.push(w_trial);
                }
            }
            (ep_acc, w_acc)
        });
        let mut ep_total = vec![Welford::default(); n_ep];
        let mut w_total = Welford::default();
        for (ep_acc, w_acc) in chunk_stats {
            for (e, acc) in ep_acc.into_iter().enumerate() {
                ep_total[e] = ep_total[e].merge(acc);
            }
            w_total = w_total.merge(w_acc);
        }
        Ok(GraphMcResult {
            trials,
            endpoint_mean: ep_total.iter().map(|w| w.mean).collect(),
            endpoint_sigma: ep_total.iter().map(Welford::sigma).collect(),
            design_mean: w_total.mean,
            design_sigma: w_total.sigma(),
        })
    }
}

/// Build the model and run the analysis in one call.
///
/// # Errors
///
/// See [`SstaModel::build`] and [`SstaModel::analyze`].
pub fn analyze_ssta(
    graph: &TimingGraph<'_>,
    stat: &StatLibrary,
    opts: SstaOptions,
) -> Result<SstaReport, StaError> {
    SstaModel::build(graph, stat, opts)?.analyze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StaConfig;
    use crate::mapped::{MappedDesign, WireModel};
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};
    use varitune_variation::sampler::Xoshiro256PlusPlus;

    fn stat_fixture() -> StatLibrary {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 7);
        StatLibrary::from_libraries(&mc).unwrap()
    }

    /// Two reconvergent chains of unequal depth into a shared endpoint
    /// structure: enough topology to exercise Clark max and criticality.
    fn two_chain_netlist() -> (Netlist, Vec<&'static str>) {
        let mut nl = Netlist::new("ssta-two-chains");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..3 {
            let z = nl.add_net(format!("s{i}"));
            nl.add_gate(GateKind::Inv, vec![prev], vec![z]);
            prev = z;
        }
        nl.mark_output(prev);
        let b = nl.add_input("b");
        let mut prev = b;
        for i in 0..9 {
            let z = nl.add_net(format!("l{i}"));
            nl.add_gate(GateKind::Inv, vec![prev], vec![z]);
            prev = z;
        }
        nl.mark_output(prev);
        (nl, vec!["INV_2"; 12])
    }

    fn graph_fixture<'l>(stat: &'l StatLibrary, threads: usize) -> TimingGraph<'l> {
        let (nl, names) = two_chain_netlist();
        let design =
            MappedDesign::from_names(nl, &names, &stat.mean, WireModel::default()).unwrap();
        let config = StaConfig::with_clock_period(5.0);
        let mut graph = TimingGraph::new(design, &stat.mean, &config).unwrap();
        graph.set_threads(threads);
        graph
    }

    fn form(mean: f64, sens: &[(u32, f64)], resid: f64) -> CanonicalForm {
        CanonicalForm {
            mean,
            sens: sens.to_vec(),
            resid,
        }
    }

    // -----------------------------------------------------------------
    // Differential tests of the fold kernel against the owned-form
    // algebra it replaced, kept here as references.
    // -----------------------------------------------------------------

    /// The sort-based truncation: full sort by rank, then a
    /// binary-search `retain` of the dropped keys.
    fn truncated_reference(mut f: CanonicalForm, max_local: usize) -> CanonicalForm {
        let n_local = f.sens.iter().filter(|&&(k, _)| k != GLOBAL_SOURCE).count();
        if n_local <= max_local {
            return f;
        }
        let mut locals: Vec<(u32, f64)> = f
            .sens
            .iter()
            .copied()
            .filter(|&(k, _)| k != GLOBAL_SOURCE)
            .collect();
        locals.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let mut drop_keys: Vec<u32> = Vec::with_capacity(n_local - max_local);
        let mut folded = 0.0;
        for &(k, v) in &locals[max_local..] {
            drop_keys.push(k);
            folded += v * v;
        }
        drop_keys.sort_unstable();
        f.sens
            .retain(|(k, _)| *k == GLOBAL_SOURCE || drop_keys.binary_search(k).is_err());
        f.resid = (f.resid * f.resid + folded).sqrt();
        f
    }

    /// The two-pointer merge `CanonicalForm::add` used before it shared
    /// the kernel's block-copy merge.
    fn add_reference(a: &CanonicalForm, b: &CanonicalForm) -> CanonicalForm {
        let mut sens = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.sens.len() && j < b.sens.len() {
            let (ka, va) = a.sens[i];
            let (kb, vb) = b.sens[j];
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    sens.push((ka, va));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    sens.push((kb, vb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let s = va + vb;
                    if s != 0.0 {
                        sens.push((ka, s));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        sens.extend_from_slice(&a.sens[i..]);
        sens.extend_from_slice(&b.sens[j..]);
        CanonicalForm {
            mean: a.mean + b.mean,
            sens,
            resid: (a.resid * a.resid + b.resid * b.resid).sqrt(),
        }
    }

    /// An arc's form built as its own `Vec`, to be added with
    /// [`add_reference`].
    fn arc_form_reference(mean: f64, global_rel: f64, local_rel: f64, key: u32) -> CanonicalForm {
        let mut sens = Vec::with_capacity(2);
        let g = mean * global_rel;
        if g != 0.0 {
            sens.push((GLOBAL_SOURCE, g));
        }
        let l = mean * local_rel;
        if l != 0.0 {
            sens.push((key, l));
        }
        CanonicalForm {
            mean,
            sens,
            resid: 0.0,
        }
    }

    /// Clark max with separate variance passes and covariance walk.
    fn max_reference(a: &CanonicalForm, b: &CanonicalForm) -> (CanonicalForm, f64) {
        let var_a = a.variance();
        let var_b = b.variance();
        let mut cov = 0.0;
        for &(k, va) in &a.sens {
            if let Ok(j) = b.sens.binary_search_by_key(&k, |&(kb, _)| kb) {
                cov += va * b.sens[j].1;
            }
        }
        let theta2 = var_a + var_b - 2.0 * cov;
        if theta2 <= 0.0 {
            return if b.mean > a.mean {
                (b.clone(), 0.0)
            } else {
                (a.clone(), 1.0)
            };
        }
        let theta = theta2.sqrt();
        let alpha = (a.mean - b.mean) / theta;
        let t = normal_cdf(alpha);
        let phi = normal_pdf(alpha);
        let mean = a.mean * t + b.mean * (1.0 - t) + theta * phi;
        let raw2 = (var_a + a.mean * a.mean) * t
            + (var_b + b.mean * b.mean) * (1.0 - t)
            + (a.mean + b.mean) * theta * phi;
        let var = (raw2 - mean * mean).max(0.0);
        let mut keys: Vec<u32> = a.sens.iter().chain(&b.sens).map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        let coef = |f: &CanonicalForm, k: u32| {
            f.sens
                .binary_search_by_key(&k, |&(fk, _)| fk)
                .ok()
                .map(|i| f.sens[i].1)
        };
        let mut sens = Vec::new();
        let mut sens_sq = 0.0;
        for k in keys {
            let s = match (coef(a, k), coef(b, k)) {
                (Some(va), Some(vb)) => va * t + vb * (1.0 - t),
                (Some(va), None) => va * t,
                (None, Some(vb)) => vb * (1.0 - t),
                (None, None) => unreachable!(),
            };
            if s != 0.0 {
                sens_sq += s * s;
                sens.push((k, s));
            }
        }
        let resid = (var - sens_sq).max(0.0).sqrt();
        (CanonicalForm { mean, sens, resid }, t)
    }

    fn assert_bits_eq(got: &CanonicalForm, want: &CanonicalForm, ctx: &str) {
        let bits = |f: &CanonicalForm| {
            f.sens
                .iter()
                .map(|&(k, s)| (k, s.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{ctx}: mean");
        assert_eq!(got.resid.to_bits(), want.resid.to_bits(), "{ctx}: resid");
        assert_eq!(bits(got), bits(want), "{ctx}: sensitivities");
    }

    /// A seeded form with `n_local` local terms (keys spread over
    /// `1..=3·n_local`) and, if `global`, a shared term. Magnitudes come
    /// from a small palette, so equal |sensitivity| ties are common.
    fn random_form(rng: &mut Xoshiro256PlusPlus, n_local: usize, global: bool) -> CanonicalForm {
        const PALETTE: [f64; 4] = [0.5, 0.25, 0.125, 0.375];
        let value = |rng: &mut Xoshiro256PlusPlus| {
            let r = rng.next_u64();
            let jitter = if r & 4 == 0 {
                1.0
            } else {
                1.0 + rng.next_f64()
            };
            let mag = PALETTE[(r % 4) as usize] * jitter;
            if r & 8 == 0 {
                mag
            } else {
                -mag
            }
        };
        let mut sens = Vec::with_capacity(n_local + 1);
        if global {
            sens.push((GLOBAL_SOURCE, value(rng)));
        }
        let mut key = 0u32;
        while sens.len() < n_local + usize::from(global) {
            key += 1 + (rng.next_u64() % 3) as u32;
            sens.push((key, value(rng)));
        }
        let resid = if rng.next_u64().is_multiple_of(3) {
            0.0
        } else {
            rng.next_f64()
        };
        CanonicalForm {
            mean: 10.0 * rng.next_f64() - 2.0,
            sens,
            resid,
        }
    }

    #[test]
    fn selection_truncation_matches_sort_reference_bit_for_bit() {
        let mut ranks = Vec::new();
        for case in 0..400u64 {
            let mut rng = rng_from(0x7a11, "truncate", case);
            let n = (rng.next_u64() % 48) as usize;
            let f = random_form(&mut rng, n, case % 2 == 0);
            let mut caps = vec![0, 1, n.saturating_sub(1), n, n + 1, 128];
            caps.dedup();
            for max_local in caps {
                let want = truncated_reference(f.clone(), max_local);
                let ctx = format!("case {case}, {n} locals, max_local {max_local}");
                assert_bits_eq(&f.clone().truncated(max_local), &want, &ctx);
                // The kernel on a scratch buffer reused across calls.
                let mut sens = f.sens.clone();
                let resid = truncate_into(&mut sens, f.resid, max_local, &mut ranks);
                let got = CanonicalForm {
                    mean: f.mean,
                    sens,
                    resid,
                };
                assert_bits_eq(&got, &want, &ctx);
            }
        }
    }

    #[test]
    fn in_place_arc_add_matches_form_add_bit_for_bit() {
        let mut out = Vec::new();
        for case in 0..400u64 {
            let mut rng = rng_from(0x7a11, "arc-add", case);
            let n = (rng.next_u64() % 40) as usize;
            let f = random_form(&mut rng, n, case % 2 == 0);
            let mean = rng.next_f64();
            // Zero relative sigmas drop the arc's terms; the arc key may
            // land on an existing key, before every key or after them all.
            let global_rel = [0.0, 0.05, rng.next_f64()][(case % 3) as usize];
            let local_rel = [0.0, 0.1, rng.next_f64()][(case / 3 % 3) as usize];
            let key = match case % 4 {
                0 => f.sens.last().map_or(1, |&(k, _)| k.max(1)),
                1 => 1,
                2 => 1 + (rng.next_u64() % (3 * n as u64 + 3)) as u32,
                _ => u32::MAX,
            };
            let want = add_reference(&f, &arc_form_reference(mean, global_rel, local_rel, key));
            let (got_mean, got_resid) =
                ArcTerms::new(mean, global_rel, local_rel, key).add_to(&f, &mut out);
            let got = CanonicalForm {
                mean: got_mean,
                sens: out.clone(),
                resid: got_resid,
            };
            assert_bits_eq(&got, &want, &format!("case {case}, key {key}"));
            // The general add shares the merge.
            let g = random_form(&mut rng, n / 2, case % 3 == 0);
            let ctx = format!("case {case}, form add");
            assert_bits_eq(&f.add(&g), &add_reference(&f, &g), &ctx);
            assert_bits_eq(&g.add(&f), &add_reference(&g, &f), &ctx);
        }
    }

    #[test]
    fn fused_max_matches_separate_pass_reference_bit_for_bit() {
        for case in 0..400u64 {
            let mut rng = rng_from(0x7a11, "max", case);
            let na = (rng.next_u64() % 40) as usize;
            let nb = (rng.next_u64() % 40) as usize;
            let a = random_form(&mut rng, na, case % 2 == 0);
            let b = match case % 7 {
                // Perfectly correlated and deterministic operands take the
                // degenerate branch.
                0 => a.clone(),
                1 => a.shift(0.5),
                2 => CanonicalForm::deterministic(a.mean),
                // Far apart: the tightness is exactly 1 or 0.
                3 => random_form(&mut rng, nb, case % 3 == 0).shift(-100.0),
                4 => random_form(&mut rng, nb, case % 3 == 0).shift(100.0),
                _ => random_form(&mut rng, nb, case % 3 == 0),
            };
            for (x, y) in [(&a, &b), (&b, &a)] {
                let (want, want_t) = max_reference(x, y);
                if case % 7 >= 3 && case % 7 <= 4 {
                    assert!(want_t == 0.0 || want_t == 1.0, "case {case}: {want_t}");
                }
                let (got, got_t) = x.max(y);
                let ctx = format!("case {case}");
                assert_eq!(got_t.to_bits(), want_t.to_bits(), "{ctx}: tightness");
                assert_bits_eq(&got, &want, &ctx);
            }
        }
    }

    #[test]
    fn add_is_commutative_bitwise() {
        let a = form(1.25, &[(0, 0.5), (3, 0.25)], 0.125);
        let b = form(2.5, &[(0, 0.25), (7, 0.5)], 0.5);
        assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_merges_shared_keys_and_keeps_disjoint_ones() {
        let a = form(1.0, &[(0, 0.5), (2, 0.25)], 0.0);
        let b = form(2.0, &[(0, 0.5), (5, 1.0)], 0.0);
        let s = a.add(&b);
        assert_eq!(s.sens, vec![(0, 1.0), (2, 0.25), (5, 1.0)]);
    }

    #[test]
    fn sigma_is_non_negative_and_quadrature() {
        let a = form(0.0, &[(1, 3.0), (2, 4.0)], 0.0);
        assert!((a.sigma() - 5.0).abs() < 1e-12);
        let b = form(0.0, &[], 2.0);
        assert!((b.add(&a).sigma() - 29.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_is_monotone_in_mean() {
        let a = form(1.0, &[(0, 0.1)], 0.05);
        let b = form(1.2, &[(0, 0.08)], 0.07);
        let (m, _) = a.max(&b);
        assert!(m.mean >= a.mean && m.mean >= b.mean);
        let b_hi = b.shift(0.5);
        let (m_hi, _) = a.max(&b_hi);
        assert!(m_hi.mean > m.mean);
    }

    #[test]
    fn max_of_identical_forms_is_exact() {
        // Two copies of one path share every source: cov equals variance,
        // theta is 0, and the max must be the form itself (not inflated).
        let a = form(3.0, &[(0, 0.2), (4, 0.6)], 0.0);
        let (m, t) = a.max(&a.clone());
        assert_eq!(m, a);
        assert_eq!(t, 1.0);
    }

    #[test]
    fn truncation_keeps_global_and_largest_locals_and_preserves_variance() {
        let f = form(
            1.0,
            &[(0, 0.05), (1, 0.4), (2, 0.1), (3, 0.3), (4, 0.2)],
            0.1,
        );
        let var = f.variance();
        let t = f.truncated(2);
        assert_eq!(
            t.sens.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![0, 1, 3],
            "global key plus the two largest locals survive"
        );
        assert!((t.variance() - var).abs() < 1e-12, "variance is preserved");
        assert!(t.resid > 0.1, "folded tail lands in the residual");
    }

    #[test]
    fn degenerate_max_picks_larger_mean_and_acc_wins_ties() {
        let a = CanonicalForm::deterministic(1.0);
        let b = CanonicalForm::deterministic(2.0);
        let (m, t) = a.max(&b);
        assert_eq!(m.mean, 2.0);
        assert_eq!(t, 0.0);
        let c = CanonicalForm::deterministic(2.0);
        let (m2, t2) = b.max(&c);
        assert_eq!(m2, b);
        assert_eq!(t2, 1.0);
    }

    #[test]
    fn zero_sigma_reduces_to_deterministic_sta_bit_exactly() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let opts = SstaOptions {
            sigma_scale: 0.0,
            ..SstaOptions::default()
        };
        let report = analyze_ssta(&graph, &stat, opts).unwrap();
        for ni in 0..report.arrivals.len() {
            let det = graph.net_timing(NetId(ni as u32)).arrival;
            let ssta_mean = report.arrivals[ni].mean;
            if det.is_finite() || ssta_mean.is_finite() {
                assert_eq!(
                    det.to_bits(),
                    ssta_mean.to_bits(),
                    "net {ni}: deterministic {det} vs ssta mean {ssta_mean}"
                );
            }
            assert_eq!(report.arrivals[ni].sigma(), 0.0);
        }
    }

    #[test]
    fn criticality_sums_to_one() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        assert!(
            (report.criticality_sum() - 1.0).abs() < 1e-9,
            "criticality sum {}",
            report.criticality_sum()
        );
        for &c in &report.gate_criticality {
            assert!(c >= -1e-12, "negative gate criticality {c}");
        }
    }

    #[test]
    fn ssta_moments_match_graph_mc() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let report = model.analyze().unwrap();
        let mc = model.monte_carlo(2000, 42, 1).unwrap();
        for (e, ep) in report.endpoints.iter().enumerate() {
            let m_err = (ep.mean - mc.endpoint_mean[e]).abs() / mc.endpoint_mean[e].abs().max(1e-9);
            assert!(
                m_err < 0.02,
                "endpoint {e}: ssta mean {} vs mc {} (rel {m_err})",
                ep.mean,
                mc.endpoint_mean[e]
            );
            if mc.endpoint_sigma[e] > 1e-9 {
                let s_err = (ep.sigma - mc.endpoint_sigma[e]).abs() / mc.endpoint_sigma[e];
                assert!(
                    s_err < 0.05,
                    "endpoint {e}: ssta sigma {} vs mc {} (rel {s_err})",
                    ep.sigma,
                    mc.endpoint_sigma[e]
                );
            }
        }
    }

    #[test]
    fn graph_mc_is_bit_identical_across_threads_and_reruns() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let r1 = model.monte_carlo(512, 7, 1).unwrap();
        let r2 = model.monte_carlo(512, 7, 2).unwrap();
        let r8 = model.monte_carlo(512, 7, 8).unwrap();
        let r1b = model.monte_carlo(512, 7, 1).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(r1, r1b);
    }

    #[test]
    fn analyze_is_bit_identical_across_threads() {
        let stat = stat_fixture();
        let mut digests = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let graph = graph_fixture(&stat, threads);
            let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
            digests.push(report.digest());
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn yield_is_monotone_and_period_at_yield_inverts() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        let y_lo = report.yield_at(report.design_mean() - report.design_sigma());
        let y_mid = report.yield_at(report.design_mean());
        let y_hi = report.yield_at(report.design_mean() + report.design_sigma());
        assert!(y_lo <= y_mid && y_mid <= y_hi);
        assert!(report.design_sigma() > 0.0);
        let p = report.period_at_yield(0.95, 1e-9).unwrap();
        assert!((report.yield_at(p) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn period_at_yield_rejects_bad_target_without_panicking() {
        let report = SstaReport {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            clock_period: 1.0,
            endpoints: Vec::new(),
            design: form(1.0, &[(0, 0.1)], 0.0),
            gate_criticality: Vec::new(),
            arrivals: Vec::new(),
        };
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let err = report.period_at_yield(bad, 1e-9).unwrap_err();
            assert!(matches!(err, StaError::InvalidParameter { .. }));
        }
        let err = report.period_at_yield(0.5, 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    #[test]
    fn monte_carlo_rejects_zero_trials() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let err = model.monte_carlo(0, 1, 1).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    #[test]
    fn build_rejects_bad_sigma_scale() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let opts = SstaOptions {
                sigma_scale: bad,
                ..SstaOptions::default()
            };
            let err = match SstaModel::build(&graph, &stat, opts) {
                Err(e) => e,
                Ok(_) => panic!("sigma_scale {bad} should be rejected"),
            };
            assert!(matches!(err, StaError::InvalidParameter { .. }));
        }
    }

    #[test]
    fn top_gate_criticalities_is_deterministically_ranked() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        let top = report.top_gate_criticalities(5);
        assert!(top.len() <= 5);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
            if pair[0].1 == pair[1].1 {
                assert!(pair[0].0 < pair[1].0);
            }
        }
    }
}
