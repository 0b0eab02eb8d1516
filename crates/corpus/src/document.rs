//! Documents, categories, and tokenization.

/// Identifier of a document within a corpus (dense, 0-based).
pub(crate) type DocId = u32;

/// A Web-of-Science-style subject category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// "Automation & Control Systems" — the filter category of Fig. 3.
    AutomationControlSystems,
    /// Computer science venues.
    ComputerScience,
    /// Engineering venues.
    Engineering,
    /// Mathematics/statistics venues.
    Statistics,
    /// Medicine/biology venues.
    LifeSciences,
    /// Geoscience/environment venues.
    Environment,
}

impl Category {
    /// All categories, in a fixed order.
    pub const ALL: [Category; 6] = [
        Category::AutomationControlSystems,
        Category::ComputerScience,
        Category::Engineering,
        Category::Statistics,
        Category::LifeSciences,
        Category::Environment,
    ];
}

/// A bibliographic record: title, abstract, keywords, publication year, and
/// subject categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Title text.
    pub title: String,
    /// Abstract text.
    pub abstract_text: String,
    /// Author keywords.
    pub keywords: Vec<String>,
    /// Publication year.
    pub year: u16,
    /// Subject categories (at least one).
    pub categories: Vec<Category>,
}

impl Document {
    /// Concatenated searchable text (title + abstract + keywords).
    pub(crate) fn full_text(&self) -> String {
        let mut s = String::with_capacity(
            self.title.len() + self.abstract_text.len() + self.keywords.len() * 16 + 2,
        );
        s.push_str(&self.title);
        s.push(' ');
        s.push_str(&self.abstract_text);
        for k in &self.keywords {
            s.push(' ');
            s.push_str(k);
        }
        s
    }
}

/// Lower-cases and splits text into alphanumeric tokens (anything else is a
/// separator). Hyphenated compounds split into their parts, matching how
/// bibliographic engines index "change-point" as `change`, `point`.
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Outlier Detection in Time-Series!"),
            vec!["outlier", "detection", "in", "time", "series"]
        );
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  ,,  "), Vec::<String>::new());
        assert_eq!(tokenize("4.0 Industry"), vec!["4", "0", "industry"]);
    }

    #[test]
    fn full_text_concatenates_fields() {
        let d = Document {
            title: "A study".into(),
            abstract_text: "of things".into(),
            keywords: vec!["anomaly".into(), "control".into()],
            year: 2018,
            categories: vec![Category::Engineering],
        };
        let ft = d.full_text();
        assert!(ft.contains("A study"));
        assert!(ft.contains("of things"));
        assert!(ft.contains("anomaly"));
        assert!(ft.contains("control"));
    }

    #[test]
    fn category_membership() {
        let d = Document {
            title: String::new(),
            abstract_text: String::new(),
            keywords: vec![],
            year: 2018,
            categories: vec![Category::AutomationControlSystems, Category::Engineering],
        };
        assert!(d.categories.contains(&Category::AutomationControlSystems));
        assert!(!d.categories.contains(&Category::Statistics));
    }
}
