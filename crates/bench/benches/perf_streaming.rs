//! Criterion: online-recognition ingest throughput — per-sample cost of
//! feeding live telemetry through the streaming session.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use efd_core::observation::{LabeledObservation, Query};
use efd_core::{EfdDictionary, RoundingDepth};
use efd_serve::OnlineSession;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

fn bench(c: &mut Criterion) {
    let metric = MetricId(0);
    let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    dict.learn(&LabeledObservation {
        label: AppLabel::new("ft", "X"),
        query: Query::from_node_means(
            metric,
            Interval::PAPER_DEFAULT,
            &[6000.0, 6000.0, 6000.0, 6000.0],
        ),
    });
    let dict = Arc::new(dict);
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();

    let mut group = c.benchmark_group("streaming");
    group.bench_function("full_job_4_nodes_121s", |b| {
        b.iter(|| {
            let mut rec = OnlineSession::new(
                Arc::clone(&dict),
                &[metric],
                &nodes,
                vec![Interval::PAPER_DEFAULT],
            );
            let mut verdicts = 0;
            for t in 0..=120u32 {
                for &n in &nodes {
                    if rec.push(n, metric, t, black_box(6003.0)).is_some() {
                        verdicts += 1;
                    }
                }
            }
            black_box(verdicts)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
