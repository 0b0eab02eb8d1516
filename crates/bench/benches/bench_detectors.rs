//! B2 — detector throughput: one representative per Table-1 class, on the
//! data shape it consumes. These are the per-level costs the paper's
//! "calculation speed" requirement (Section 3) trades off.

use criterion::{criterion_group, criterion_main, Criterion};
use hierod_detect::da::{
    DynamicClustering, GaussianMixture, LcsCluster, OneClassSvm, PrincipalComponentSpace,
    SelfOrganizingMap, SingleLinkage,
};
use hierod_detect::engine::robust_z;
use hierod_detect::itm::HistogramDeviants;
use hierod_detect::npd::WindowSequenceDb;
use hierod_detect::os::SaxDiscord;
use hierod_detect::pm::AutoregressiveModel;
use hierod_detect::related::{LocalOutlierFactor, ProfileSimilarity, ReverseKnn};
use hierod_detect::sa::NeuralNetwork;
use hierod_detect::uoa::OlapCubeDetector;
use hierod_detect::upa::{FiniteStateAutomaton, HiddenMarkov};
use hierod_detect::{DiscreteScorer, PointScorer, SupervisedScorer, VectorScorer};
use hierod_timeseries::stats;
use std::hint::black_box;

fn noisy_series(n: usize) -> Vec<f64> {
    let mut state = 0xDEADBEEF_u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as f64 * 0.05).sin() + (state >> 11) as f64 / (1_u64 << 53) as f64
        })
        .collect()
}

fn rows(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..d).map(|j| ((i * 7 + j * 3) % 13) as f64).collect())
        .collect()
}

fn sequences(n: usize, len: usize) -> Vec<Vec<u16>> {
    (0..n)
        .map(|k| (0..len).map(|i| ((i + k) % 5) as u16).collect())
        .collect()
}

fn bench_point(c: &mut Criterion) {
    let series = noisy_series(2048);
    let mut group = c.benchmark_group("point_scorers_n2048");
    group.bench_function("ar3 (PM)", |b| {
        let det = AutoregressiveModel::new(3).unwrap();
        b.iter(|| det.score_points(black_box(&series)).unwrap())
    });
    group.bench_function("histogram_deviants_b8 (ITM)", |b| {
        let det = HistogramDeviants::new(8).unwrap();
        b.iter(|| det.score_points(black_box(&series)).unwrap())
    });
    group.finish();
}

fn bench_vector(c: &mut Criterion) {
    let data = rows(200, 8);
    let data = hierod_detect::row_refs(&data);
    let mut group = c.benchmark_group("vector_scorers_200x8");
    group.bench_function("pca (DA)", |b| {
        let det = PrincipalComponentSpace::new(2).unwrap();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("gmm (DA)", |b| {
        let det = GaussianMixture::new(3).unwrap();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("ocsvm (DA)", |b| {
        let det = OneClassSvm::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("single_linkage (DA)", |b| {
        let det = SingleLinkage::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("dynamic_clustering (DA)", |b| {
        let det = DynamicClustering::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("som (DA)", |b| {
        let det = SelfOrganizingMap::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("olap_cube (UOA)", |b| {
        let det = OlapCubeDetector::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("lof (related)", |b| {
        let det = LocalOutlierFactor::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.bench_function("reverse_knn (related)", |b| {
        let det = ReverseKnn::default();
        b.iter(|| det.score_rows(black_box(&data)).unwrap())
    });
    group.finish();
}

fn bench_profile(c: &mut Criterion) {
    let refs: Vec<Vec<f64>> = (0..20).map(|_| noisy_series(512)).collect();
    let slices: Vec<&[f64]> = refs.iter().map(Vec::as_slice).collect();
    let execution = noisy_series(512);
    let mut group = c.benchmark_group("profile_similarity_20x512");
    group.bench_function("fit", |b| {
        b.iter(|| ProfileSimilarity::fit(black_box(&slices)).unwrap())
    });
    let profile = ProfileSimilarity::fit(&slices).unwrap();
    group.bench_function("score_points", |b| {
        b.iter(|| profile.score_points(black_box(&execution)).unwrap())
    });
    group.finish();
}

/// The order-statistics kernel and the standardizer on top of it, at the
/// length of one phase series (960) and of a long environment series.
fn bench_order_statistics(c: &mut Criterion) {
    for n in [960, 100_000] {
        let raw = noisy_series(n);
        let mut group = c.benchmark_group(&format!("order_statistics_n{n}"));
        group.bench_function("median", |b| {
            b.iter(|| stats::median(black_box(&raw)).unwrap())
        });
        group.bench_function("mad", |b| b.iter(|| stats::mad(black_box(&raw)).unwrap()));
        group.bench_function("robust_z_standardize", |b| {
            b.iter(|| robust_z(black_box(&raw)))
        });
        group.finish();
    }
}

fn bench_discrete(c: &mut Criterion) {
    let seqs = sequences(24, 64);
    let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
    let mut group = c.benchmark_group("discrete_scorers_24x64");
    group.bench_function("fsa (UPA)", |b| {
        let det = FiniteStateAutomaton::default();
        b.iter(|| det.score_sequences(black_box(&refs)).unwrap())
    });
    group.bench_function("hmm (UPA)", |b| {
        let det = HiddenMarkov::new(2).unwrap();
        b.iter(|| det.score_sequences(black_box(&refs)).unwrap())
    });
    group.bench_function("lcs_cluster (DA)", |b| {
        let det = LcsCluster::default();
        b.iter(|| det.score_sequences(black_box(&refs)).unwrap())
    });
    group.bench_function("window_db (NPD)", |b| {
        let det = WindowSequenceDb::default();
        b.iter(|| det.score_sequences(black_box(&refs)).unwrap())
    });
    group.finish();
}

fn bench_subsequence(c: &mut Criterion) {
    let series = noisy_series(1024);
    let mut group = c.benchmark_group("subsequence_scorers_n1024");
    group.sample_size(20);
    group.bench_function("sax_discord_w32 (OS)", |b| {
        let det = SaxDiscord::new(32, 4, 4).unwrap();
        b.iter(|| det.score(black_box(&series)).unwrap())
    });
    group.finish();
}

fn bench_supervised(c: &mut Criterion) {
    let data = rows(200, 8);
    let labels: Vec<bool> = (0..200).map(|i| i % 10 == 0).collect();
    let mut group = c.benchmark_group("supervised_200x8");
    group.sample_size(20);
    group.bench_function("mlp_fit_predict (SA)", |b| {
        b.iter(|| {
            let mut det = NeuralNetwork::new(8).unwrap();
            det.fit(black_box(&data), black_box(&labels)).unwrap();
            det.predict(black_box(&data)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_point,
    bench_vector,
    bench_discrete,
    bench_subsequence,
    bench_supervised,
    bench_profile,
    bench_order_statistics
);
criterion_main!(benches);
