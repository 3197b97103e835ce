//! The backend registry: every [`Backend`] built from every source —
//! EFDB bytes, JSON dump bytes and an in-memory dictionary — answers the
//! harness query mix exactly like the [`EfdDictionary`] oracle, up to
//! [`efd_core::Recognition::normalized`] ordering.

mod common;

use common::*;
use efd_core::{binfmt, serialize, EfdDictionary};
use efd_serve::{Backend, Source};
use efd_telemetry::{AppLabel, MetricId, NodeId};

/// The three sources of one dictionary, with a name for messages.
fn sources(dict: &EfdDictionary) -> [(&'static str, Source<'_>); 3] {
    let cat = catalog();
    [
        (
            "efdb bytes",
            Source::Bytes(binfmt::write_dictionary(dict, &cat)),
        ),
        (
            "json bytes",
            Source::Bytes(serialize::to_json(dict, &cat).into_bytes()),
        ),
        ("dictionary", Source::Dictionary(dict)),
    ]
}

#[test]
fn every_backend_from_every_source_answers_like_the_oracle() {
    let dict = dict_with(&corpus());
    for backend in Backend::ALL {
        for (name, source) in sources(&dict) {
            // `efdb` over a JSON dump re-encodes to canonical bytes
            // rather than refusing.
            let (engine, keys) = backend
                .build(source, &catalog(), 4)
                .unwrap_or_else(|e| panic!("{backend:?} from {name}: {e}"));
            assert_eq!(keys, dict.len(), "{backend:?} from {name}");
            for means in query_mix() {
                let q = query(&means);
                assert_eq!(
                    engine.recognize(&q).normalized(),
                    dict.recognize(&q).normalized(),
                    "{backend:?} from {name}, query {means:?}"
                );
            }
        }
    }
}

#[test]
fn combo_over_a_multi_metric_dictionary_is_a_clean_error() {
    let mut dict = dict_with(&corpus());
    dict.insert_raw(MetricId(1), NodeId(0), W, 42.0, &AppLabel::new("ft", "X"));
    for (name, source) in sources(&dict) {
        let err = Backend::Combo
            .build(source, &catalog(), 4)
            .err()
            .unwrap_or_else(|| panic!("combo from {name} must refuse two metrics"));
        assert!(err.contains("single-metric"), "{name}: {err}");
    }
}

#[test]
fn names_round_trip_and_the_unknown_name_error_lists_them_all() {
    for backend in Backend::ALL {
        assert_eq!(Backend::parse(backend.name()), Ok(backend));
    }
    let err = Backend::parse("bogus").unwrap_err();
    let all: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
    assert!(err.contains(&all.join("|")), "{err}");
    assert!(err.contains("\"bogus\""), "{err}");
}
