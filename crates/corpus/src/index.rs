//! Inverted index with positional postings.
//!
//! Supports term lookup, phrase matching (via positions), conjunction, and
//! category filtering — exactly the operations the Fig.-3 query plan needs.

use std::collections::HashMap;

use crate::document::{tokenize, Category, DocId, Document};

/// A posting: document id plus the token positions of the term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Posting {
    /// Document id.
    pub doc: DocId,
    /// Sorted token positions at which the term occurs.
    pub positions: Vec<u32>,
}

/// Positional inverted index over a corpus of [`Document`]s.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    docs: Vec<Document>,
    postings: HashMap<String, Vec<Posting>>,
    by_category: HashMap<Category, Vec<DocId>>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds an index over a document collection.
    pub fn build(docs: Vec<Document>) -> Self {
        let mut idx = Self::new();
        for d in docs {
            idx.add(d);
        }
        idx
    }

    /// Adds one document, returning its id.
    pub(crate) fn add(&mut self, doc: Document) -> DocId {
        let id = self.docs.len() as DocId;
        let tokens = tokenize(&doc.full_text());
        let mut term_positions: HashMap<&str, Vec<u32>> = HashMap::new();
        for (pos, tok) in tokens.iter().enumerate() {
            term_positions.entry(tok).or_default().push(pos as u32);
        }
        for (term, positions) in term_positions {
            self.postings
                .entry(term.to_string())
                .or_default()
                .push(Posting { doc: id, positions });
        }
        for &cat in &doc.categories {
            let ids = self.by_category.entry(cat).or_default();
            // A document may list a category twice; register it once.
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        self.docs.push(doc);
        id
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` if no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Document ids containing `term` (case-insensitive; single token).
    pub(crate) fn term_docs(&self, term: &str) -> Vec<DocId> {
        let key = term.to_lowercase();
        self.postings
            .get(&key)
            .map(|ps| ps.iter().map(|p| p.doc).collect())
            .unwrap_or_default()
    }

    /// Document ids containing the exact phrase (consecutive tokens).
    /// A single-token phrase degenerates to [`Self::term_docs`]; an empty
    /// phrase matches nothing.
    pub(crate) fn phrase_docs(&self, phrase: &str) -> Vec<DocId> {
        let terms = tokenize(phrase);
        let Some(head) = terms.first() else {
            return Vec::new();
        };
        match terms.len() {
            1 => self.term_docs(head),
            _ => {
                // Intersect postings of all terms, then verify adjacency.
                let first = match self.postings.get(head) {
                    Some(p) => p,
                    None => return Vec::new(),
                };
                let mut out = Vec::new();
                'docs: for posting in first {
                    // Collect candidate start positions, advance per term.
                    let mut starts: Vec<u32> = posting.positions.clone();
                    for (offset, term) in terms.iter().enumerate().skip(1) {
                        let Some(plist) = self.postings.get(term) else {
                            continue 'docs;
                        };
                        let Some(entry) = plist
                            .binary_search_by_key(&posting.doc, |p| p.doc)
                            .ok()
                            .and_then(|i| plist.get(i))
                        else {
                            continue 'docs;
                        };
                        let positions = &entry.positions;
                        starts.retain(|&s| positions.binary_search(&(s + offset as u32)).is_ok());
                        if starts.is_empty() {
                            continue 'docs;
                        }
                    }
                    out.push(posting.doc);
                }
                out
            }
        }
    }

    /// Document ids tagged with `cat`.
    pub(crate) fn category_docs(&self, cat: Category) -> &[DocId] {
        self.by_category.get(&cat).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Sorted intersection of two ascending id lists.
pub(crate) fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(title: &str, cats: &[Category]) -> Document {
        Document {
            title: title.into(),
            abstract_text: String::new(),
            keywords: vec![],
            year: 2018,
            categories: cats.to_vec(),
        }
    }

    fn sample_index() -> InvertedIndex {
        InvertedIndex::build(vec![
            doc(
                "Anomaly detection in time series",
                &[Category::AutomationControlSystems],
            ),
            doc(
                "Outlier detection for sensor data",
                &[Category::ComputerScience],
            ),
            doc(
                "Time series forecasting of series time",
                &[Category::Statistics],
            ),
            doc(
                "Fault detection in time series control loops",
                &[Category::AutomationControlSystems, Category::Engineering],
            ),
        ])
    }

    #[test]
    fn term_lookup_is_case_insensitive() {
        let idx = sample_index();
        assert_eq!(idx.term_docs("ANOMALY"), vec![0]);
        assert_eq!(idx.term_docs("detection"), vec![0, 1, 3]);
        assert!(idx.term_docs("nonexistent").is_empty());
    }

    #[test]
    fn phrase_requires_adjacency_in_order() {
        let idx = sample_index();
        assert_eq!(idx.phrase_docs("time series"), vec![0, 2, 3]);
        // Doc 2 contains both orders; "series time" matches only doc 2.
        assert_eq!(idx.phrase_docs("series time"), vec![2]);
        // Non-adjacent words do not match as a phrase.
        assert!(idx.phrase_docs("anomaly series").is_empty());
        assert!(idx.phrase_docs("").is_empty());
        assert_eq!(idx.phrase_docs("outlier"), vec![1]);
        assert!(idx.phrase_docs("missing phrase entirely").is_empty());
    }

    #[test]
    fn category_filter() {
        let idx = sample_index();
        assert_eq!(
            idx.category_docs(Category::AutomationControlSystems),
            &[0, 3]
        );
        assert!(idx.category_docs(Category::LifeSciences).is_empty());
    }

    #[test]
    fn intersect_merges_sorted_lists() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert!(intersect(&[], &[1]).is_empty());
        assert_eq!(intersect(&[4], &[4]), vec![4]);
    }

    #[test]
    fn index_statistics() {
        let idx = sample_index();
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert!(idx.vocabulary_size() >= 10);
        assert!(InvertedIndex::new().is_empty());
    }

    #[test]
    fn phrase_spanning_title_and_keywords_uses_token_stream() {
        // full_text joins fields with spaces, so a phrase can only match
        // within the concatenated stream.
        let d = Document {
            title: "change point".into(),
            abstract_text: "detection".into(),
            keywords: vec![],
            year: 2019,
            categories: vec![Category::Statistics],
        };
        let idx = InvertedIndex::build(vec![d]);
        assert_eq!(idx.phrase_docs("point detection"), vec![0]);
        assert_eq!(idx.phrase_docs("change point detection"), vec![0]);
    }

    #[test]
    fn repeated_term_positions_recorded() {
        let idx = sample_index();
        // Doc 2 has "series" twice; phrase "series forecasting" still found.
        assert_eq!(idx.phrase_docs("series forecasting"), vec![2]);
    }
}
