//! Property tests: the inverted index must agree with a naive scan oracle.

use hierod_corpus::{Category, Document, InvertedIndex, Query, QueryEngine};
use proptest::prelude::*;

const WORDS: [&str; 10] = [
    "anomaly",
    "detection",
    "time",
    "series",
    "fault",
    "control",
    "sensor",
    "industrial",
    "outlier",
    "process",
];

fn doc_strategy() -> impl Strategy<Value = Document> {
    (
        prop::collection::vec(0_usize..WORDS.len(), 1..12),
        prop::collection::vec(0_usize..6, 1..3),
    )
        .prop_map(|(word_idx, cats)| Document {
            title: word_idx
                .iter()
                .map(|&i| WORDS[i])
                .collect::<Vec<_>>()
                .join(" "),
            abstract_text: String::new(),
            keywords: vec![],
            year: 2018,
            categories: cats.into_iter().map(|c| Category::ALL[c]).collect(),
        })
}

/// Naive oracle: does the document's tokenized title contain the phrase?
fn naive_phrase_match(doc: &Document, phrase: &[&str]) -> bool {
    let tokens: Vec<&str> = doc.title.split(' ').filter(|t| !t.is_empty()).collect();
    if phrase.is_empty() || tokens.len() < phrase.len() {
        return false;
    }
    tokens.windows(phrase.len()).any(|w| w == phrase)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn phrase_queries_match_naive_scan(
        docs in prop::collection::vec(doc_strategy(), 1..24),
        phrase_idx in prop::collection::vec(0_usize..WORDS.len(), 1..3),
    ) {
        let phrase_words: Vec<&str> = phrase_idx.iter().map(|&i| WORDS[i]).collect();
        let phrase = phrase_words.join(" ");
        let index = InvertedIndex::build(docs.clone());
        let engine = QueryEngine::new(&index);
        let got = engine.execute(&Query::phrase(&phrase));
        let expected: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| naive_phrase_match(d, &phrase_words))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, expected, "phrase `{}`", phrase);
    }

    #[test]
    fn and_is_intersection_of_parts(
        docs in prop::collection::vec(doc_strategy(), 1..24),
        t1 in 0_usize..WORDS.len(),
        t2 in 0_usize..WORDS.len(),
    ) {
        let index = InvertedIndex::build(docs);
        let engine = QueryEngine::new(&index);
        let a = engine.execute(&Query::phrase(WORDS[t1]));
        let b = engine.execute(&Query::phrase(WORDS[t2]));
        let both = engine.execute(&Query::phrase(WORDS[t1]).and(Query::phrase(WORDS[t2])));
        for id in &both {
            prop_assert!(a.contains(id) && b.contains(id));
        }
        for id in &a {
            if b.contains(id) {
                prop_assert!(both.contains(id));
            }
        }
    }

    #[test]
    fn or_is_union_of_parts(
        docs in prop::collection::vec(doc_strategy(), 1..24),
        t1 in 0_usize..WORDS.len(),
        t2 in 0_usize..WORDS.len(),
    ) {
        let index = InvertedIndex::build(docs);
        let engine = QueryEngine::new(&index);
        let a = engine.execute(&Query::phrase(WORDS[t1]));
        let b = engine.execute(&Query::phrase(WORDS[t2]));
        let either = engine.execute(&Query::Or(vec![
            Query::phrase(WORDS[t1]),
            Query::phrase(WORDS[t2]),
        ]));
        for id in a.iter().chain(&b) {
            prop_assert!(either.contains(id));
        }
        prop_assert!(either.len() <= a.len() + b.len());
    }

    #[test]
    fn category_filter_matches_membership(
        docs in prop::collection::vec(doc_strategy(), 1..24),
        cat_idx in 0_usize..6,
    ) {
        let cat = Category::ALL[cat_idx];
        let index = InvertedIndex::build(docs.clone());
        let engine = QueryEngine::new(&index);
        let got = engine.execute(&Query::Category(cat));
        let expected: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.categories.contains(&cat))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn counts_never_exceed_corpus(docs in prop::collection::vec(doc_strategy(), 0..24)) {
        let n = docs.len();
        let index = InvertedIndex::build(docs);
        let engine = QueryEngine::new(&index);
        for field in hierod_corpus::FIG3_FIELDS {
            prop_assert!(engine.count(&QueryEngine::fig3_query(field.term)) <= n);
        }
    }
}
