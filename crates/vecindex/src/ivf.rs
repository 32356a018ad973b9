//! Inverted-file (IVF) index with the paper's `K = sqrt(N)` rule.
//!
//! Cached examples are clustered offline; a query finds its `nprobe`
//! nearest centroids and scans only those posting lists, turning the O(N)
//! scan into roughly `K + nprobe * N/K` comparisons. With `K = sqrt(N)`
//! and a small probe width this is the paper's claimed sub-1% selection
//! overhead (§4.1, Fig. 18 "Retrieval stage 1").
//!
//! # Layout: the posting lists are the store
//!
//! Each posting list owns its members' rows — cluster-major, and within
//! the list lane-transposed (groups of eight rows, component-major, see
//! the `kernel` module) — next to parallel `ids` and insert-time `norms`.
//! A probe therefore streams `nprobe` contiguous blocks with eight
//! independent accumulators per pass, instead of chasing one hashed id →
//! row lookup and one dependent 64-step add chain per candidate. One
//! `id -> (list, position)` map locates a row for removal and
//! re-insertion; there is no other copy of the rows. The scan is a
//! schedule change, not a numeric one: every similarity is bit-identical
//! to [`Embedding::cosine`], so hit lists are byte-identical to scoring
//! the same candidates one scalar pair at a time.
//!
//! An index too small to cluster (or not trained yet) is the same
//! structure with every list probed — one list before the first
//! training — so exact search over a small pool is the same scan, not a
//! second code path.
//!
//! # One widen a probe, and a generation stamp for whoever keeps a result
//!
//! A probe widens its query to `f64` once: the centroid rank
//! ([`KMeansModel::assign_top_n_widened`]) and every list scan read the
//! same buffer. A search is a pure function of the query's bits and the
//! index contents, and [`IvfIndex::generation`] names the contents: it
//! advances on every row placed or removed and on every retrain, from
//! inside the three private mutators all writes go through, so a caller
//! that keeps a hit list next to the generation it was computed under
//! (`ic-selector`'s probe memo) can tell a still-valid list from a
//! stale one by comparing two integers.
//!
//! # Retraining, and why a bulk load needs only the last one
//!
//! The index retrains lazily: inserts are routed to the nearest existing
//! centroid, and when the pool has grown or shrunk past a configurable
//! factor since the last training, the insert that crosses it retrains
//! with the sqrt rule — so loading N items one by one fits k-means at
//! every doubling.
//!
//! A retrain is a clean slate. It gathers every stored row, sorts by id,
//! fits k-means on the rows in that order with the configured seed, and
//! rebuilds *every* posting list from the assignment under the fitted
//! model, again in id order; norms are a function of their row. Nothing
//! of the previous model or list order reaches the result: the state
//! after a retrain is a function of the *set* of `(id, row)` pairs in the
//! index and of nothing else. Whether a retrain fires is a function of
//! counts alone (pool size against the size at the last training). So
//! when [`IvfIndex::insert_bulk`] loads items with fresh ids, every
//! retrain the per-item loop would run before its last one is overwritten
//! unread; the bulk path walks the retrain points arithmetically, hands
//! the stored rows plus the new items up to the last point to one retrain
//! — the new rows borrowed where they lie, row-major already, not copied
//! or assigned anywhere first — and batch-assigns the remaining items
//! under that model, appending in item order as the loop would have. The
//! per-item [`VectorIndex::insert`] path keeps its retrain per doubling
//! and is the reference the equivalence tests compare against
//! ([`IvfIndex::build_stats`] counts the fits).
//!
//! # The training sample
//!
//! The sqrt rule leaves about `sqrt(N)` rows a centroid — 128 at the
//! 16 384-row retrain of a 20 000-example bank, 362 at 131 072 — and a
//! centroid is placed about as well from a few dozen of them. So a
//! retrain over `n` rows into `k` clusters with `n > 39 k` fits k-means
//! on `m = 39 k` of them, a uniform sample drawn under the configured
//! seed from the id-sorted rows and kept in that order (selection
//! sampling: one draw a row, exactly `m` taken), and then assigns
//! *every* row, the sampled ones included, under the fitted model
//! ([`KMeansModel::assign_batch_rows`]: certified, exactly
//! `model.assign` per row); the lists are built from that assignment. Thirty-nine is FAISS's `min_points_per_centroid`,
//! the fewest rows a centroid it trains without a warning. FAISS also
//! caps a fit at 256 rows a centroid by default, which would not change
//! anything here: with `sqrt(N)` rows a centroid that cap applies only
//! past `N = 65 536`, while 39 applies from `N = 1 522` on. Below the
//! threshold — the first retrains of every bank, and every retrain of a
//! bank under 1 522 rows — the fit sees every row as before.
//!
//! The sample is random rather than every `n / m`-th row because a
//! stride aliases with structure in the ids: at `n = 16 384` the stride
//! is `128 / 39`, so on a bank whose ids cycle through 256 topics the
//! rows at `floor(i n / m)` cover 78 of the topics, and recall@16 of a
//! 20 000-row bank falls from 1.00 to 0.73
//! (`tests/sampled_training_recall.rs` holds it).
//!
//! The sample is a function of the seed and the id-sorted set, so
//! everything above holds as it did: a retrain is still a clean slate,
//! and one bulk retrain still equals the per-item loop's last one.
//! Sampling changes the index (which
//! centroids a bank gets, hence which lists a probe reads), not how it
//! is searched.

use ic_embed::{Embedding, cosine_from_dot, norm_slice};
use ic_stats::IdMap;
use ic_stats::rng::rng_from_seed;
use rand::RngExt;

use crate::kernel::{LaneBlocks, widen};
use crate::kmeans::{KMeansModel, kmeans_fit_rows};
use crate::{ItemId, SearchHit, VectorIndex, finalize_hits, sqrt_cluster_count};

/// A retrain fits k-means on at most this many rows a centroid (module
/// docs, "The training sample").
const TRAIN_ROWS_PER_CENTROID: usize = 39;

/// Tuning knobs for [`IvfIndex`].
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of nearest clusters scanned per query.
    pub nprobe: usize,
    /// Below this size queries scan everything (clustering not worth it).
    pub brute_force_below: usize,
    /// Retrain when the pool grows/shrinks by this factor since training.
    pub retrain_growth: f64,
    /// Lloyd iterations per training run.
    pub train_iters: usize,
    /// Seed for K-means.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nprobe: 4,
            brute_force_below: 64,
            retrain_growth: 2.0,
            train_iters: 15,
            seed: 0x1CC0FFEE,
        }
    }
}

/// An IVF index over example embeddings.
///
/// # Examples
///
/// ```
/// use ic_embed::Embedding;
/// use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex};
/// use ic_stats::rng::rng_from_seed;
///
/// let mut idx = IvfIndex::new(IvfConfig::default());
/// let mut rng = rng_from_seed(1);
/// for i in 0..200 {
///     idx.insert(i, Embedding::gaussian(16, 1.0, &mut rng).normalized());
/// }
/// let q = Embedding::gaussian(16, 1.0, &mut rng).normalized();
/// assert_eq!(idx.search(&q, 5).len(), 5);
/// ```
#[derive(Debug)]
pub struct IvfIndex {
    config: IvfConfig,
    model: Option<KMeansModel>,
    /// One list per cluster once trained; before that, at most one list
    /// holding everything. Rebuilt on retrain, patched on insert/remove.
    lists: Vec<PostingList>,
    /// Where each stored item lives: `(list, position in the list)`.
    locator: IdMap<ItemId, (u32, u32)>,
    /// Pool size at the time of the last training.
    trained_at_len: usize,
    /// Advanced by every change to what a search reads (see
    /// [`IvfIndex::generation`]).
    generation: u64,
    stats: BuildStats,
}

/// What the index has spent on training so far — deterministic counts,
/// for the perf record. The pass
/// and scan counts are the fits' own, over the rows each fit trained
/// on; the assignment of the other rows under a sampled fit's model is
/// not counted in them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// K-means fits run.
    pub fits: u64,
    /// Rows those fits trained on ...
    pub trained_rows: u64,
    /// ... out of the rows their retrains placed in posting lists.
    pub clustered_rows: u64,
    /// Assignment passes over all fits.
    pub passes: u64,
    /// Lane groups (eight centroids each) those passes scanned ...
    pub group_scans: u64,
    /// ... out of what full scans would have.
    pub group_scans_full: u64,
    /// Point scans run as certified scans instead ...
    pub certified_scans: u64,
    /// ... and how many of them exact distances decided.
    pub exact_resolves: u64,
}

/// The members of one cluster: row `i` of `rows` belongs to `ids[i]` and
/// has Euclidean norm `norms[i]` (computed once, at insert).
#[derive(Debug)]
struct PostingList {
    ids: Vec<ItemId>,
    norms: Vec<f64>,
    rows: LaneBlocks<f32>,
}

impl PostingList {
    /// An empty list of `dim`-wide rows sized for exactly `n` members.
    fn with_capacity(dim: usize, n: usize) -> Self {
        Self {
            ids: Vec::with_capacity(n),
            norms: Vec::with_capacity(n),
            rows: LaneBlocks::with_capacity(dim, n),
        }
    }

    fn reserve_exact(&mut self, additional: usize) {
        self.ids.reserve_exact(additional);
        self.norms.reserve_exact(additional);
        self.rows.reserve_exact(additional);
    }

    /// Appends a member; returns its position.
    fn push(&mut self, id: ItemId, row: &[f32], norm: f64) -> u32 {
        let pos = u32::try_from(self.ids.len()).expect("posting list overflow");
        self.ids.push(id);
        self.norms.push(norm);
        self.rows.push(row);
        pos
    }

    /// Removes the member at `pos` by moving the last member into its
    /// place; returns the id that moved, if any.
    fn swap_remove(&mut self, pos: usize) -> Option<ItemId> {
        self.ids.swap_remove(pos);
        self.norms.swap_remove(pos);
        self.rows.swap_remove(pos);
        self.ids.get(pos).copied()
    }

    /// Scores every member against the query (`q64` its widened
    /// components, `q_norm` its norm), one hit per member.
    fn scan(&self, q64: &[f64], q_norm: f64, hits: &mut Vec<SearchHit>) {
        self.rows.dots(q64, |i, dot| {
            hits.push(SearchHit {
                id: self.ids[i],
                similarity: cosine_from_dot(dot, q_norm, self.norms[i]),
            });
        });
    }
}

impl IvfIndex {
    /// Creates an empty index.
    pub fn new(config: IvfConfig) -> Self {
        Self {
            config,
            model: None,
            lists: Vec::new(),
            locator: IdMap::default(),
            trained_at_len: 0,
            generation: 0,
            stats: BuildStats::default(),
        }
    }

    /// The mutation generation: a counter that advances whenever the
    /// stored rows, the posting lists or the model change — every row a
    /// [`VectorIndex::insert`], [`IvfIndex::insert_bulk`] or retrain
    /// places, every row a [`VectorIndex::remove`] takes out, every
    /// retrain. [`VectorIndex::search`] is a pure function of the query's
    /// bits and the index contents, so two searches for the same bits
    /// under one generation return the same bytes; a caller that keeps a
    /// result keeps this stamp with it (`ic-selector`'s probe memo). The
    /// bumps sit in the three private mutators everything else goes
    /// through (`place`, `remove`'s success path, `retrain_with`), so no
    /// new entry point can change the index without advancing it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Training work done so far.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Current number of clusters (0 before first training).
    pub fn num_clusters(&self) -> usize {
        self.model.as_ref().map_or(0, |m| m.k())
    }

    /// Whether the next query would scan every stored item.
    pub fn is_brute_force(&self) -> bool {
        self.locator.len() < self.config.brute_force_below || self.model.is_none()
    }

    /// Forces retraining with `K = sqrt(N)` clusters.
    pub fn retrain(&mut self) {
        self.retrain_with(&[]);
    }

    /// Retrains over the stored items plus `staged` (fresh ids, not in
    /// the index yet), leaving the index exactly as inserting `staged`
    /// and then retraining would: the fit sees the rows (or the sample of
    /// them) in id order under a fixed seed and every list is rebuilt from
    /// it, so nothing of the previous lists or model survives into the
    /// result.
    fn retrain_with(&mut self, staged: &[(ItemId, Embedding)]) {
        self.generation += 1;
        let resident = self.locator.len();
        let n = resident + staged.len();
        let old = std::mem::take(&mut self.lists);
        if n == 0 {
            self.model = None;
            self.trained_at_len = 0;
            return;
        }
        // K-means wants row-major points. Stored rows are gathered once
        // into a scratch buffer (the old lists are dropped before the new
        // ones are allocated); staged rows are row-major where they are
        // and are borrowed, not copied.
        let dim = old
            .first()
            .map_or_else(|| staged[0].1.dim(), |l| l.rows.dim());
        let mut points = Vec::with_capacity(resident * dim);
        let mut stored = Vec::with_capacity(resident);
        for (&id, &(c, pos)) in &self.locator {
            let list = &old[c as usize];
            list.rows.extend_row_into(pos as usize, &mut points);
            stored.push((id, list.norms[pos as usize]));
        }
        drop(old);
        // Deterministic training order: sort by id.
        let mut order: Vec<(ItemId, &[f32], f64)> = (stored.iter().zip(points.chunks_exact(dim)))
            .map(|(&(id, norm), row)| (id, row, norm))
            .chain(
                staged
                    .iter()
                    .map(|(id, e)| (*id, e.as_slice(), norm_slice(e.as_slice()))),
            )
            .collect();
        order.sort_unstable_by_key(|&(id, ..)| id);
        let rows: Vec<&[f32]> = order.iter().map(|&(_, row, _)| row).collect();
        let k = sqrt_cluster_count(n);
        // Selection sampling: row `i` is kept with probability `still
        // wanted / rows left`, so exactly `m` are, in id order (module
        // docs, "The training sample"). Unsampled, the fit's own final
        // assignment is already `model.assign` per row.
        let m = TRAIN_ROWS_PER_CENTROID * k;
        let sample = (n > m).then(|| {
            let mut rng = rng_from_seed(self.config.seed);
            let mut sample = Vec::with_capacity(m);
            for (i, &row) in rows.iter().enumerate() {
                if rng.random_range(0..n - i) < m - sample.len() {
                    sample.push(row);
                }
            }
            sample
        });
        let train = sample.as_deref().unwrap_or(&rows);
        let mut fit = kmeans_fit_rows(train, k, self.config.train_iters, self.config.seed)
            .expect("non-empty data trains");
        if sample.is_some() {
            fit.assignment = fit.model.assign_batch_rows(&rows);
        }
        self.stats.fits += 1;
        self.stats.trained_rows += train.len() as u64;
        self.stats.clustered_rows += n as u64;
        self.stats.passes += fit.passes;
        self.stats.group_scans += fit.group_scans;
        self.stats.group_scans_full += fit.group_scans_full;
        self.stats.certified_scans += fit.certified_scans;
        self.stats.exact_resolves += fit.exact_resolves;
        // Every row's list, exactly sized.
        let mut sizes = vec![0usize; fit.model.k()];
        for &c in &fit.assignment {
            sizes[c] += 1;
        }
        self.lists = sizes
            .iter()
            .map(|&size| PostingList::with_capacity(dim, size))
            .collect();
        for (&(id, row, norm), &c) in order.iter().zip(&fit.assignment) {
            self.place(c, id, row, norm);
        }
        self.model = Some(fit.model);
        self.trained_at_len = n;
    }

    /// Appends a row to list `c` and records where it went. While the
    /// index is untrained, `c` is 0: the one catch-all list, created on
    /// first use.
    fn place(&mut self, c: usize, id: ItemId, row: &[f32], norm: f64) {
        if self.lists.is_empty() {
            self.lists.push(PostingList::with_capacity(row.len(), 0));
        }
        let pos = self.lists[c].push(id, row, norm);
        let c = u32::try_from(c).expect("cluster count fits u32");
        self.locator.insert(id, (c, pos));
        self.generation += 1;
    }

    /// Whether the lazy retrain fires at pool size `n` when the model was
    /// last trained at `trained_at` items (`None`: never) — a pure
    /// function of counts, which is what lets the bulk path find the
    /// sequential loop's retrain points without performing the inserts.
    fn retrain_due(&self, trained_at: Option<usize>, n: usize) -> bool {
        if n < self.config.brute_force_below {
            return false;
        }
        trained_at.is_none_or(|at| {
            let ratio = n as f64 / at.max(1) as f64;
            ratio >= self.config.retrain_growth || ratio <= 1.0 / self.config.retrain_growth
        })
    }

    /// Pool size at the last training, `None` while untrained.
    fn trained_at(&self) -> Option<usize> {
        self.model.as_ref().map(|_| self.trained_at_len)
    }

    fn maybe_retrain(&mut self) {
        if self.retrain_due(self.trained_at(), self.locator.len()) {
            self.retrain();
        }
    }

    /// Bulk [`VectorIndex::insert`]: the final index state is *identical*
    /// to inserting the items one by one, for one k-means fit instead of
    /// one per doubling (see the module docs). The sequential loop's
    /// retrain points are walked arithmetically; everything up to the
    /// last one goes into a single retrain, unassigned, and the items
    /// after it are batch-assigned under that model and appended to the
    /// lists, grown once to the exact size, in item order.
    ///
    /// Items whose id is already present (or repeated within the batch)
    /// would interleave removals with the growth model, so such batches
    /// take the exact per-item path instead.
    pub fn insert_bulk(&mut self, items: Vec<(ItemId, Embedding)>) {
        let mut fresh = std::collections::HashSet::with_capacity(items.len());
        let pure_growth = items
            .iter()
            .all(|(id, _)| !self.locator.contains_key(id) && fresh.insert(*id));
        if !pure_growth {
            for (id, embedding) in items {
                self.insert(id, embedding);
            }
            return;
        }
        // `items[..staged]` is what the pool holds, beyond the stored
        // items, when the sequential loop retrains for the last time.
        let (mut trained_at, mut staged) = (self.trained_at(), 0);
        for j in 1..=items.len() {
            let n = self.locator.len() + j;
            if self.retrain_due(trained_at, n) {
                (trained_at, staged) = (Some(n), j);
            }
        }
        if staged > 0 {
            self.retrain_with(&items[..staged]);
        }
        // Batch assignment under the frozen model, appended in item
        // order — exactly the per-item loop's push order.
        let tail = &items[staged..];
        let rows: Vec<&[f32]> = tail.iter().map(|(_, e)| e.as_slice()).collect();
        let assigned = match &self.model {
            Some(model) => {
                let assigned = model.assign_batch_rows(&rows);
                let mut growth = vec![0usize; self.lists.len()];
                for &c in &assigned {
                    growth[c] += 1;
                }
                for (list, additional) in self.lists.iter_mut().zip(growth) {
                    list.reserve_exact(additional);
                }
                assigned
            }
            None => vec![0; rows.len()],
        };
        for (((id, _), row), c) in tail.iter().zip(&rows).zip(assigned) {
            self.place(c, *id, row, norm_slice(row));
        }
    }

    /// Expected comparison count per query under the current structure;
    /// used by the overhead benchmarks.
    pub fn expected_comparisons(&self) -> f64 {
        if self.is_brute_force() {
            return self.locator.len() as f64;
        }
        let k = self.num_clusters() as f64;
        let n = self.locator.len() as f64;
        k + self.config.nprobe as f64 * (n / k)
    }
}

impl VectorIndex for IvfIndex {
    fn insert(&mut self, id: ItemId, embedding: Embedding) {
        // Drop any stale row first.
        self.remove(id);
        let c = self
            .model
            .as_ref()
            .map_or(0, |model| model.assign(&embedding));
        let row = embedding.as_slice();
        self.place(c, id, row, norm_slice(row));
        self.maybe_retrain();
    }

    fn remove(&mut self, id: ItemId) -> bool {
        let Some((c, pos)) = self.locator.remove(&id) else {
            return false;
        };
        if let Some(moved) = self.lists[c as usize].swap_remove(pos as usize) {
            self.locator.insert(moved, (c, pos));
        }
        self.generation += 1;
        true
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit> {
        if k == 0 || self.locator.is_empty() {
            return Vec::new();
        }
        // Hoisted once per query (`Embedding::cosine` recomputes it per
        // pair); row norms come from the lists' insert-time cache. Both
        // are pure functions of their vectors, so every similarity is
        // bit-identical to `query.cosine(item)`.
        let q64 = widen(query.as_slice());
        let q_norm = query.norm();
        let probes: Vec<usize> = match &self.model {
            Some(model) if !self.is_brute_force() => {
                model.assign_top_n_widened(&q64, self.config.nprobe.max(1))
            }
            _ => (0..self.lists.len()).collect(),
        };
        let candidates = probes.iter().map(|&c| self.lists[c].rows.len()).sum();
        let mut hits = Vec::with_capacity(candidates);
        for c in probes {
            self.lists[c].scan(&q64, q_norm, &mut hits);
        }
        finalize_hits(hits, k)
    }

    fn len(&self) -> usize {
        self.locator.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use ic_embed::{TopicSpace, TopicSpaceConfig};
    use ic_stats::rng::rng_from_seed;
    use std::collections::HashMap;

    fn build_pair(n: usize) -> (IvfIndex, FlatIndex, Vec<Embedding>) {
        let space = TopicSpace::generate(
            21,
            TopicSpaceConfig {
                num_topics: 32,
                ..TopicSpaceConfig::default()
            },
        );
        let mut rng = rng_from_seed(22);
        let mut ivf = IvfIndex::new(IvfConfig::default());
        let mut flat = FlatIndex::new();
        let mut queries = Vec::new();
        for i in 0..n {
            let e = space.sample_member(i % 32, &mut rng);
            ivf.insert(i as ItemId, e.clone());
            flat.insert(i as ItemId, e);
        }
        for t in 0..20 {
            queries.push(space.sample_member(t % 32, &mut rng));
        }
        (ivf, flat, queries)
    }

    #[test]
    fn small_pool_uses_brute_force_and_is_exact() {
        let (ivf, flat, queries) = build_pair(40);
        assert!(ivf.is_brute_force());
        for q in &queries {
            let a = ivf.search(q, 5);
            let b = flat.search(q, 5);
            assert_eq!(
                a.iter().map(|h| h.id).collect::<Vec<_>>(),
                b.iter().map(|h| h.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn large_pool_trains_sqrt_clusters() {
        let (ivf, _, _) = build_pair(1000);
        assert!(!ivf.is_brute_force());
        let k = ivf.num_clusters();
        // Trained at some point between 64 and 1000 items; K tracks sqrt(N)
        // of the pool size at training time.
        assert!((8..=40).contains(&k), "unexpected cluster count {k}");
    }

    #[test]
    fn recall_against_flat_is_high() {
        let (ivf, flat, queries) = build_pair(2000);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let approx: Vec<ItemId> = ivf.search(q, 10).iter().map(|h| h.id).collect();
            let exact: Vec<ItemId> = flat.search(q, 10).iter().map(|h| h.id).collect();
            total += exact.len();
            hit += exact.iter().filter(|id| approx.contains(id)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.8, "recall@10 too low: {recall}");
    }

    #[test]
    fn expected_comparisons_beat_brute_force() {
        let (ivf, _, _) = build_pair(4000);
        assert!(ivf.expected_comparisons() < 4000.0 / 2.0);
    }

    #[test]
    fn removal_excludes_items_from_results() {
        let (mut ivf, _, queries) = build_pair(500);
        let victim = ivf.search(&queries[0], 1)[0].id;
        assert!(ivf.remove(victim));
        assert!(!ivf.remove(victim));
        let after = ivf.search(&queries[0], 10);
        assert!(after.iter().all(|h| h.id != victim));
        assert_eq!(ivf.len(), 499);
    }

    #[test]
    fn reinsert_updates_embedding() {
        let mut ivf = IvfIndex::new(IvfConfig::default());
        let a = Embedding::from_vec(vec![1.0, 0.0]).normalized();
        let b = Embedding::from_vec(vec![0.0, 1.0]).normalized();
        ivf.insert(1, a);
        ivf.insert(1, b.clone());
        assert_eq!(ivf.len(), 1);
        let hits = ivf.search(&b, 1);
        assert!(hits[0].similarity > 0.99);
    }

    #[test]
    fn retrain_after_mass_removal_shrinks_clusters() {
        let (mut ivf, _, _) = build_pair(1000);
        let before = ivf.num_clusters();
        for id in 0..900u64 {
            ivf.remove(id);
        }
        ivf.retrain();
        assert!(ivf.num_clusters() < before);
        assert_eq!(ivf.len(), 100);
    }

    #[test]
    fn search_batch_matches_sequential_on_both_paths() {
        // 40 items exercises the brute-force path, 2000 the IVF path.
        for n in [40usize, 2000] {
            let (ivf, _, queries) = build_pair(n);
            let qrefs: Vec<&Embedding> = queries.iter().collect();
            let batch = ivf.search_batch(&qrefs, 10);
            for (q, got) in queries.iter().zip(&batch) {
                let want = ivf.search(q, 10);
                assert_eq!(got.len(), want.len(), "n={n}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.id, w.id, "n={n}");
                    assert_eq!(g.similarity.to_bits(), w.similarity.to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn search_batch_handles_degenerate_shapes() {
        let (ivf, _, queries) = build_pair(500);
        let qrefs: Vec<&Embedding> = queries.iter().collect();
        assert!(ivf.search_batch(&[], 5).is_empty());
        assert_eq!(ivf.search_batch(&qrefs, 0), vec![Vec::new(); qrefs.len()]);
        let empty = IvfIndex::new(IvfConfig::default());
        assert_eq!(empty.search_batch(&qrefs, 5), vec![Vec::new(); qrefs.len()]);
    }

    /// Deep state equality between two indexes (model centroids, posting
    /// lists with their rows and norms, locator, retrain bookkeeping) —
    /// byte-level where it matters (`f32`/`f64` bit patterns).
    fn assert_index_state_identical(a: &IvfIndex, b: &IvfIndex, label: &str) {
        assert_eq!(a.locator, b.locator, "{label}: locators differ");
        assert_eq!(a.trained_at_len, b.trained_at_len, "{label}");
        match (&a.model, &b.model) {
            (None, None) => {}
            (Some(ma), Some(mb)) => {
                assert_eq!(ma.k(), mb.k(), "{label}: cluster counts differ");
                for (ca, cb) in ma.centroids().iter().zip(mb.centroids()) {
                    assert_eq!(ca.as_slice(), cb.as_slice(), "{label}: centroids differ");
                }
            }
            _ => panic!("{label}: one index trained, the other not"),
        }
        assert_eq!(a.lists.len(), b.lists.len(), "{label}: list counts differ");
        for (la, lb) in a.lists.iter().zip(&b.lists) {
            assert_eq!(la.ids, lb.ids, "{label}: posting lists differ");
            let bits = |l: &PostingList| l.norms.iter().map(|n| n.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(la), bits(lb), "{label}: norms differ");
            for i in 0..la.ids.len() {
                let (mut ra, mut rb) = (Vec::new(), Vec::new());
                la.rows.extend_row_into(i, &mut ra);
                lb.rows.extend_row_into(i, &mut rb);
                assert_eq!(ra, rb, "{label}: row {}", la.ids[i]);
            }
        }
    }

    /// Every stored id is where the locator says it is, and nowhere else.
    fn assert_locator_consistent(ivf: &IvfIndex) {
        let members: usize = ivf.lists.iter().map(|l| l.ids.len()).sum();
        assert_eq!(members, ivf.locator.len());
        for (&id, &(c, pos)) in &ivf.locator {
            let list = &ivf.lists[c as usize];
            assert_eq!(list.ids[pos as usize], id);
            assert_eq!(list.ids.len(), list.norms.len());
            assert_eq!(list.ids.len(), list.rows.len());
        }
    }

    #[test]
    fn removal_patches_the_displaced_rows_locator_entry() {
        // Trained and untrained: remove from the middle of a list, then
        // the displaced (formerly last) member must still be findable,
        // removable and scored with its own row.
        for n in [40usize, 600] {
            let (mut ivf, mut flat, queries) = build_pair(n);
            for id in (0..n as ItemId).step_by(3) {
                assert!(ivf.remove(id));
                flat.remove(id);
                assert_locator_consistent(&ivf);
            }
            for q in &queries {
                let exact = flat.search(q, n);
                let sims: HashMap<ItemId, u64> = exact
                    .iter()
                    .map(|h| (h.id, h.similarity.to_bits()))
                    .collect();
                for hit in ivf.search(q, n) {
                    assert_eq!(sims[&hit.id], hit.similarity.to_bits(), "n={n}");
                }
            }
            for id in 0..n as ItemId {
                assert_eq!(ivf.remove(id), id % 3 != 0);
            }
            assert!(ivf.is_empty());
            assert_locator_consistent(&ivf);
        }
    }

    /// `count` topic-clustered items with ids from `first_id` up.
    fn topic_items(first_id: ItemId, count: usize, seed: u64) -> Vec<(ItemId, Embedding)> {
        let space = TopicSpace::generate(
            21,
            TopicSpaceConfig {
                num_topics: 32,
                ..TopicSpaceConfig::default()
            },
        );
        let mut rng = rng_from_seed(seed);
        (0..count)
            .map(|i| {
                (
                    first_id + i as ItemId,
                    space.sample_member(i % 32, &mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn insert_bulk_is_bit_identical_to_sequential_inserts() {
        // The per-item loop retrains at every doubling; the bulk load
        // must land in the same state for one fit. Four starting points:
        // an empty index (retrains at 64, 128, ... 1024), an
        // already-trained one (trained at 256 of 300; 512, 1024, 2048),
        // one with a shrink retrain pending after a mass removal (the
        // first insert retrains at 61, then 122, 244, ... 1952), and an
        // empty index loading 6 000 items, whose last retrain (4 096
        // rows, 64 centroids) trains on 2 496 rows — the last retrains
        // of cases 1 and 2 sample too, at about 45 rows a centroid.
        let prepare = |case: usize| {
            let mut idx = IvfIndex::new(IvfConfig::default());
            if case == 1 || case == 2 {
                for (id, e) in topic_items(10_000, 300, 39) {
                    idx.insert(id, e);
                }
            }
            if case == 2 {
                for id in 10_000..10_240 {
                    idx.remove(id);
                }
            }
            idx
        };
        let queries = topic_items(0, 20, 42);
        for case in 0..4 {
            let batch = topic_items(0, if case == 3 { 6_000 } else { 2_000 }, 40);
            let mut seq = prepare(case);
            let fits_before = seq.build_stats().fits;
            for (id, e) in &batch {
                seq.insert(*id, e.clone());
            }
            assert!(
                seq.build_stats().fits - fits_before >= 3,
                "case {case}: the batch must cross at least three retrain points"
            );
            let label = format!("case={case}");
            let mut bulk = prepare(case);
            let before = bulk.build_stats();
            bulk.insert_bulk(batch.clone());
            let after = bulk.build_stats();
            assert_eq!(after.fits - before.fits, 1, "{label}");
            if case == 3 {
                assert_eq!(after.trained_rows - before.trained_rows, 2_496, "{label}");
                assert_eq!(
                    after.clustered_rows - before.clustered_rows,
                    4_096,
                    "{label}"
                );
            }
            assert_index_state_identical(&seq, &bulk, &label);
            for (_, q) in &queries {
                let bits = |hits: Vec<SearchHit>| {
                    hits.into_iter()
                        .map(|h| (h.id, h.similarity.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(seq.search(q, 10)), bits(bulk.search(q, 10)), "{label}");
            }
        }
    }

    #[test]
    fn insert_bulk_below_every_retrain_point_fits_nothing() {
        let mut seq = IvfIndex::new(IvfConfig::default());
        let mut bulk = IvfIndex::new(IvfConfig::default());
        for (id, e) in topic_items(0, 100, 43) {
            seq.insert(id, e.clone());
            bulk.insert(id, e);
        }
        // 100 -> 127 items: trained at 64, next retrain due at 128.
        let batch = topic_items(500, 27, 44);
        for (id, e) in &batch {
            seq.insert(*id, e.clone());
        }
        bulk.insert_bulk(batch);
        assert_eq!(bulk.build_stats().fits, 1);
        assert_index_state_identical(&seq, &bulk, "no retrain point");
        // Untrained and staying untrained: everything in the one list.
        let mut small = IvfIndex::new(IvfConfig::default());
        small.insert_bulk(topic_items(0, 40, 45));
        assert_eq!(small.build_stats().fits, 0);
        assert!(small.is_brute_force());
        assert_locator_consistent(&small);
    }

    #[test]
    fn insert_bulk_with_duplicate_ids_falls_back_to_per_item_semantics() {
        let space = TopicSpace::generate(
            21,
            TopicSpaceConfig {
                num_topics: 8,
                ..TopicSpaceConfig::default()
            },
        );
        let mut rng = rng_from_seed(41);
        // Id 3 appears twice: the second occurrence must overwrite the
        // first, exactly as sequential inserts would.
        let mut items: Vec<(ItemId, Embedding)> = (0..100)
            .map(|i| (i as ItemId, space.sample_member(i % 8, &mut rng)))
            .collect();
        items.push((3, space.sample_member(5, &mut rng)));
        let mut seq = IvfIndex::new(IvfConfig::default());
        for (id, e) in &items {
            seq.insert(*id, e.clone());
        }
        let mut bulk = IvfIndex::new(IvfConfig::default());
        bulk.insert_bulk(items);
        assert_index_state_identical(&seq, &bulk, "duplicate ids");
        assert_eq!(bulk.len(), 100);
        // The per-item path: one fit per retrain point, as `seq` ran.
        assert_eq!(seq.build_stats().fits, 1);
        assert_eq!(bulk.build_stats(), seq.build_stats());
    }

    #[test]
    fn empty_index_is_safe() {
        let mut ivf = IvfIndex::new(IvfConfig::default());
        let q = Embedding::from_vec(vec![1.0, 0.0]);
        assert!(ivf.search(&q, 5).is_empty());
        assert!(!ivf.remove(3));
        ivf.retrain();
        assert_eq!(ivf.num_clusters(), 0);
    }
}
