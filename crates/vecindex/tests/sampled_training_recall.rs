//! Retrieval quality of the sampled retrain against full-data k-means.
//!
//! A retrain past 39 rows a centroid fits k-means on a seeded uniform
//! sample of the rows and assigns every row under the fitted model
//! (`ivf.rs`, "The training sample"). That changes which centroids a
//! bank gets, so this test holds what the change may not lose: over a
//! topic-clustered bank of 20 000 rows — one bulk load, one retrain at
//! 16 384 rows into 128 clusters, trained on 4 992 of them — recall@16
//! and top-1 agreement against exact search ([`FlatIndex`]) must be
//! within 0.02 of the same probe over a full-data fit. The reference is
//! built here from [`kmeans_fit_rows`] over every row of the bank and
//! probed the plain way: the `nprobe` nearest centroids, each member
//! scored with [`Embedding::cosine`], sorted by `(similarity desc, id
//! asc)`.
//!
//! The bank's ids cycle through its 256 topics, so a sample that follows
//! the id order too regularly fails it: taking every `n / m`-th row
//! (`floor(i n / m)`, a stride of 128 / 39 at this size) sees 78 of the
//! topics and reads recall@16 0.73 and top-1 0.78 against the full
//! fit's 1.00 and 1.00.

use ic_embed::{Embedding, TopicSpace, TopicSpaceConfig};
use ic_stats::rng::rng_from_seed;
use ic_vecindex::{
    FlatIndex, ItemId, IvfConfig, IvfIndex, SearchHit, VectorIndex, kmeans_fit_rows,
};

const BANK: usize = 20_000;
const QUERIES: usize = 1_000;
const TOP: usize = 16;
const SLACK: f64 = 0.02;

/// Recall@`TOP` and top-1 agreement of `approx` against `exact`,
/// averaged over the queries.
fn quality(exact: &[Vec<SearchHit>], approx: &[Vec<SearchHit>]) -> (f64, f64) {
    let (mut found, mut top1) = (0usize, 0usize);
    for (e, a) in exact.iter().zip(approx) {
        found += e.iter().filter(|h| a.iter().any(|x| x.id == h.id)).count();
        top1 += usize::from(e.first().map(|h| h.id) == a.first().map(|h| h.id));
    }
    (
        found as f64 / (exact.len() * TOP) as f64,
        top1 as f64 / exact.len() as f64,
    )
}

#[test]
fn sampled_training_keeps_recall_of_the_full_data_fit() {
    let space = TopicSpace::generate(13, TopicSpaceConfig::default());
    let topics = space.num_topics();
    let mut rng = rng_from_seed(12);
    let bank: Vec<(ItemId, Embedding)> = (0..BANK)
        .map(|i| (i as ItemId, space.sample_member(i % topics, &mut rng)))
        .collect();
    let mut rng = rng_from_seed(14);
    let queries: Vec<Embedding> = (0..QUERIES)
        .map(|i| space.sample_member((i * 7) % topics, &mut rng))
        .collect();

    let config = IvfConfig::default();
    let mut ivf = IvfIndex::new(config.clone());
    ivf.insert_bulk(bank.clone());
    let stats = ivf.build_stats();
    assert_eq!(stats.fits, 1);
    assert_eq!(stats.clustered_rows, 16_384);
    assert_eq!(
        stats.trained_rows, 4_992,
        "39 rows for each of 128 centroids"
    );
    assert_eq!(ivf.num_clusters(), 128);

    let mut flat = FlatIndex::new();
    for (id, e) in &bank {
        flat.insert(*id, e.clone());
    }

    // The full-data reference: every row trains, every row is assigned.
    let rows: Vec<&[f32]> = bank.iter().map(|(_, e)| e.as_slice()).collect();
    let fit = kmeans_fit_rows(&rows, 128, config.train_iters, config.seed).unwrap();
    let mut lists = vec![Vec::new(); fit.model.k()];
    for (i, &c) in fit.assignment.iter().enumerate() {
        lists[c].push(i);
    }
    let reference = |q: &Embedding| {
        let mut hits: Vec<SearchHit> = fit
            .model
            .assign_top_n(q, config.nprobe)
            .into_iter()
            .flat_map(|c| &lists[c])
            .map(|&i| SearchHit {
                id: bank[i].0,
                similarity: q.cosine(&bank[i].1),
            })
            .collect();
        hits.sort_by(|a, b| b.similarity.total_cmp(&a.similarity).then(a.id.cmp(&b.id)));
        hits.truncate(TOP);
        hits
    };

    let exact: Vec<_> = queries.iter().map(|q| flat.search(q, TOP)).collect();
    let sampled: Vec<_> = queries.iter().map(|q| ivf.search(q, TOP)).collect();
    let full: Vec<_> = queries.iter().map(reference).collect();
    let (sampled_recall, sampled_top1) = quality(&exact, &sampled);
    let (full_recall, full_top1) = quality(&exact, &full);
    println!(
        "recall@{TOP}: sampled {sampled_recall:.4}, full {full_recall:.4}; \
         top-1: sampled {sampled_top1:.4}, full {full_top1:.4}"
    );
    assert!(
        sampled_recall >= full_recall - SLACK,
        "recall@{TOP} {sampled_recall:.4} against the full fit's {full_recall:.4}"
    );
    assert!(
        sampled_top1 >= full_top1 - SLACK,
        "top-1 {sampled_top1:.4} against the full fit's {full_top1:.4}"
    );
}
