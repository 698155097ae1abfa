//! Correctness checks that do not trust the abstract learner: labels
//! against the concrete trace, n = 1 proofs against exhaustive
//! retraining, and proofs at any n against a greedy attack.

use crate::ladder::Ladder;
use crate::Report;
use antidote_baselines::{enumerate_robustness_in, greedy_attack};
use antidote_core::{Certifier, ExecContext};
use antidote_data::{Dataset, Subset};
use antidote_tree::dtrace::dtrace_label;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// The label the concrete learner predicts for `x` on all of `ds`.
pub fn concrete_label(ds: &Dataset, x: &[f64], depth: usize) -> u32 {
    dtrace_label(ds, &Subset::full(ds), x, depth) as u32
}

/// Re-checks a claimed n = 1 proof by retraining on every one-row
/// removal; records a mismatch when some removal flips the label.
pub fn oracle_n1(
    rep: &mut Report,
    what: &str,
    ds: &Dataset,
    x: &[f64],
    depth: usize,
    threads: usize,
) {
    rep.checks += 1;
    let ctx = ExecContext::new().threads(threads);
    let v = enumerate_robustness_in(ds, x, depth, 1, u64::MAX, &ctx);
    if !v.is_robust() {
        rep.mismatch(&format!("{what}: n=1 Robust refuted by retraining: {v:?}"));
    }
}

/// Tries to break a claimed proof at budget `n` with the greedy
/// removal attack; records a mismatch when the attack flips the label.
pub fn attack(rep: &mut Report, what: &str, ds: &Dataset, x: &[f64], depth: usize, n: usize) {
    rep.checks += 1;
    let a = greedy_attack(ds, x, depth, n);
    if a.succeeded() {
        rep.mismatch(&format!(
            "{what}: Robust at n={n} broken by removing {:?}",
            a.removed
        ));
    }
}

/// Ladder checks: the in-process n = 1 verdicts must reproduce the
/// ladder's first rung, their labels the concrete trace's, and sampled
/// proofs must survive the oracle and the attack.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    rep: &mut Report,
    lad: &Ladder,
    train: &Dataset,
    xs: &[Vec<f64>],
    rung1: Option<(u64, u64, u64)>,
    threads: usize,
    traced: bool,
    rng: &mut StdRng,
) {
    let cert = Certifier::new(train)
        .depth(lad.depth)
        .domain(lad.domain)
        .threads(threads);
    let mut robust = Vec::new();
    for (i, x) in xs.iter().enumerate() {
        let out = cert.certify(x, 1);
        rep.checks += 1;
        let want = concrete_label(train, x, lad.depth);
        if out.label as u32 != want {
            rep.mismatch(&format!("point {i}: label {} != dtrace {want}", out.label));
        }
        if out.is_robust() {
            robust.push(i);
        }
    }
    match rung1 {
        Some((_, attempted, verified)) if attempted as usize == xs.len() => {
            rep.checks += 1;
            if verified as usize != robust.len() {
                rep.mismatch(&format!(
                    "ladder proves {verified} points at n=1, a direct certify proves {}",
                    robust.len()
                ));
            }
        }
        _ => rep.mismatch(&format!("ladder rung n=1 missing or partial: {rung1:?}")),
    }
    robust.shuffle(rng);
    let oracles = if lad.oracle_traced_only && !traced {
        0
    } else {
        lad.oracle_points
    };
    for &i in robust.iter().take(oracles) {
        let t = std::time::Instant::now();
        oracle_n1(
            rep,
            &format!("point {i}"),
            train,
            &xs[i],
            lad.depth,
            threads,
        );
        eprintln!(
            "# retraining oracle on point {i}: {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    for &i in robust.iter().take(lad.attack_points) {
        let n = if cert.certify(&xs[i], 2).is_robust() {
            2
        } else {
            1
        };
        attack(rep, &format!("point {i}"), train, &xs[i], lad.depth, n);
    }
}
