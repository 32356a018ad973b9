//! Property test: keeping each arm's Cholesky factor and posterior mean
//! between lessons is a caching change, not a numerical one. A
//! `ContextualBandit` and an in-test bandit that refactors `A` and
//! re-solves `A^{-1} b` on *every* decision (the code `sample_scores`
//! used to be) live through the same random interleaving of decisions,
//! `update`s, `apply_stats` merges (scale 0, 1 and fractional), arm
//! additions and removals, and clones (the subject is replaced by its
//! clone mid-sequence, so a clone must carry the kept factors, the
//! scratch and the counters). Every decision's scores must agree by
//! `to_bits()`, both RNGs must have advanced identically, and the
//! subject may have refit at most once per arm created plus once per
//! invalidating call — which, with decisions outnumbering lessons, a
//! bandit that refits per decision cannot meet.
//!
//! Mutations that make this test fail (each was tried):
//! - `apply_stats` not dropping the arm's kept posterior: the first
//!   decision after a merge at a non-zero scale scores against the stale
//!   factor and mean, and the `to_bits()` comparison fails on that arm.
//! - `sample_scores` dropping the kept posterior before every scoring
//!   (a refit per decision again): same scores, "104 refits for 104
//!   evaluations, budget 20".

use ic_llmsim::ModelId;
use ic_router::linalg::dot;
use ic_router::{ContextualBandit, Matrix};
use ic_stats::dist::standard_normal;
use ic_stats::rng::rng_from_seed;
use proptest::prelude::*;
use rand::{Rng, RngExt};

/// The reference: per-arm `(A, b)` and nothing kept between decisions.
struct Refactoring {
    arms: Vec<(ModelId, Matrix, Vec<f64>)>,
    dim: usize,
    lambda: f64,
    exploration: f64,
}

impl Refactoring {
    fn new(models: &[ModelId], dim: usize, lambda: f64, exploration: f64) -> Self {
        let mut r = Self {
            arms: Vec::new(),
            dim,
            lambda,
            exploration,
        };
        for &m in models {
            r.add_arm(m);
        }
        r
    }

    fn sample_scores(&self, x: &[f64], rng: &mut impl Rng) -> Vec<(ModelId, f64)> {
        self.arms
            .iter()
            .map(|(model, a, b)| {
                let l = a.cholesky().expect("A is SPD by construction");
                let mu = l.solve_lower_transpose(&l.solve_lower(b));
                let z: Vec<f64> = (0..self.dim).map(|_| standard_normal(rng)).collect();
                let noise = l.solve_lower_transpose(&z);
                (*model, dot(&mu, x) + self.exploration * dot(&noise, x))
            })
            .collect()
    }

    fn arm(&mut self, model: ModelId) -> Option<&mut (ModelId, Matrix, Vec<f64>)> {
        self.arms.iter_mut().find(|(m, ..)| *m == model)
    }

    fn update(&mut self, model: ModelId, x: &[f64], reward: f64) -> bool {
        let Some((_, a, b)) = self.arm(model) else {
            return false;
        };
        a.add_outer(x);
        for (bi, xi) in b.iter_mut().zip(x) {
            *bi += reward * xi;
        }
        true
    }

    fn apply_stats(&mut self, model: ModelId, d_a: &Matrix, d_b: &[f64], scale: f64) -> bool {
        let Some((_, a, b)) = self.arm(model) else {
            return false;
        };
        a.add_scaled(d_a, scale);
        for (bi, di) in b.iter_mut().zip(d_b) {
            *bi += scale * di;
        }
        true
    }

    fn add_arm(&mut self, model: ModelId) -> bool {
        if self.arm(model).is_some() {
            return false;
        }
        self.arms.push((
            model,
            Matrix::scaled_identity(self.dim, self.lambda),
            vec![0.0; self.dim],
        ));
        true
    }

    fn remove_arm(&mut self, model: ModelId) {
        self.arms.retain(|(m, ..)| *m != model);
    }
}

/// A context (or a delta's moment vector) in `[-1, 1]^dim` from raw
/// draws.
fn vector(raw: &[u32], salt: u32, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| {
            let r = raw[i % raw.len()]
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt + i as u32);
            f64::from(r % 2_001) / 1_000.0 - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kept_posteriors_score_like_a_refit_per_decision(
        dim_pick in 0usize..3,
        seed in 0u64..1_000_000,
        // Per op: (kind, arm, then draws for vectors, reward, scale).
        ops in collection::vec(collection::vec(0u32..100_000, 6), 1..80),
    ) {
        let dim = [1usize, 3, 16][dim_pick];
        let models = [ModelId(0), ModelId(1)];
        let mut subject = ContextualBandit::new(models.to_vec(), dim, 1.0, 0.3);
        let mut reference = Refactoring::new(&models, dim, 1.0, 0.3);
        let mut rng_s = rng_from_seed(seed);
        let mut rng_r = rng_from_seed(seed);
        // The most refits a keeping bandit can need: one per arm ever
        // created, one per call that changed a live arm's `(A, b)`.
        let mut refit_budget = models.len() as u64;
        let mut evaluations = 0u64;

        for raw in &ops {
            let model = ModelId((raw[1] % 4) as usize);
            // Decisions are half of all ops, so a per-decision refit
            // overruns the budget.
            match raw[0] % 12 {
                0..=5 => {
                    let x = vector(raw, 1, dim);
                    let got = subject.sample_scores(&x, &mut rng_s);
                    let want = reference.sample_scores(&x, &mut rng_r);
                    prop_assert_eq!(got.len(), want.len());
                    for ((gm, gs), (wm, ws)) in got.iter().zip(&want) {
                        prop_assert_eq!(gm, wm);
                        prop_assert_eq!(gs.to_bits(), ws.to_bits(), "arm {:?} at dim {}", gm, dim);
                    }
                    evaluations += want.len() as u64;
                }
                6 | 7 => {
                    let x = vector(raw, 2, dim);
                    let reward = f64::from(raw[4] % 101) / 100.0;
                    subject.update(model, &x, reward);
                    refit_budget += u64::from(reference.update(model, &x, reward));
                }
                8 | 9 => {
                    let mut d_a = Matrix::zeros(dim);
                    for k in 0..1 + raw[2] % 3 {
                        d_a.add_outer(&vector(raw, 10 + k, dim));
                    }
                    let d_b = vector(raw, 3, dim);
                    let scale = [0.0, 1.0, f64::from(raw[5] % 1_000) / 1_000.0][(raw[4] % 3) as usize];
                    subject.apply_stats(model, &d_a, &d_b, u64::from(raw[2] % 5), scale);
                    refit_budget += u64::from(reference.apply_stats(model, &d_a, &d_b, scale));
                }
                10 => {
                    if raw[2] % 2 == 0 {
                        subject.add_arm(model);
                        refit_budget += u64::from(reference.add_arm(model));
                    } else if reference.arms.len() > 1 {
                        prop_assert_eq!(subject.remove_arm(model), reference.arm(model).is_some());
                        reference.remove_arm(model);
                    }
                }
                _ => subject = subject.clone(),
            }
            prop_assert_eq!(subject.models(), reference.arms.iter().map(|a| a.0).collect::<Vec<_>>());
        }

        prop_assert_eq!(rng_s.random::<u64>(), rng_r.random::<u64>(), "RNG streams diverged");
        prop_assert_eq!(subject.evaluations(), evaluations);
        prop_assert!(
            subject.refits() <= refit_budget,
            "{} refits for {} evaluations, budget {}",
            subject.refits(),
            evaluations,
            refit_budget
        );
    }
}
