//! The five production levels and their ordering.

use std::fmt;

/// A production level of the paper's Fig. 2, ordered from most detailed (1)
/// to most aggregated (5).
///
/// Algorithm 1's `CalcGlobalScore(level++/level--)` walks this ordering;
/// [`Level::up`] and [`Level::down`] are those steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// ① Phase level: multi-dimensional high-resolution sensor data per
    /// production phase.
    Phase,
    /// ② Job level: setup + CAQ check; high-dimensional, not a time series.
    Job,
    /// ③ Environment level: context series measured in the same period.
    Environment,
    /// ④ Production-line level: jobs over time on one machine.
    ProductionLine,
    /// ⑤ Production level: data across machines.
    Production,
}

impl Level {
    /// All levels in ascending order.
    pub const ALL: [Level; 5] = [
        Level::Phase,
        Level::Job,
        Level::Environment,
        Level::ProductionLine,
        Level::Production,
    ];

    /// The paper's 1-based numbering (① … ⑤).
    pub fn number(self) -> u8 {
        match self {
            Level::Phase => 1,
            Level::Job => 2,
            Level::Environment => 3,
            Level::ProductionLine => 4,
            Level::Production => 5,
        }
    }

    /// Constructs from the paper's 1-based numbering.
    pub fn from_number(n: u8) -> Option<Level> {
        match n {
            1 => Some(Level::Phase),
            2 => Some(Level::Job),
            3 => Some(Level::Environment),
            4 => Some(Level::ProductionLine),
            5 => Some(Level::Production),
            _ => None,
        }
    }

    /// The next level up (`level++`), or `None` at the top.
    pub fn up(self) -> Option<Level> {
        Level::from_number(self.number() + 1)
    }

    /// The next level down (`level--`), or `None` at the bottom.
    pub fn down(self) -> Option<Level> {
        match self.number() {
            1 => None,
            n => Level::from_number(n - 1),
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Level::Phase => "phase",
            Level::Job => "job",
            Level::Environment => "environment",
            Level::ProductionLine => "production-line",
            Level::Production => "production",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (level {})", self.label(), self.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_roundtrip() {
        for l in Level::ALL {
            assert_eq!(Level::from_number(l.number()), Some(l));
        }
        assert_eq!(Level::from_number(0), None);
        assert_eq!(Level::from_number(6), None);
    }

    #[test]
    fn ordering_follows_numbering() {
        assert!(Level::Phase < Level::Job);
        assert!(Level::Job < Level::Environment);
        assert!(Level::Environment < Level::ProductionLine);
        assert!(Level::ProductionLine < Level::Production);
    }

    #[test]
    fn up_down_navigation() {
        assert_eq!(Level::Phase.up(), Some(Level::Job));
        assert_eq!(Level::Production.up(), None);
        assert_eq!(Level::Production.down(), Some(Level::ProductionLine));
        assert_eq!(Level::Phase.down(), None);
        // Up then down is identity (where defined).
        for l in Level::ALL {
            if let Some(u) = l.up() {
                assert_eq!(u.down(), Some(l));
            }
        }
    }

    #[test]
    fn display_contains_number() {
        assert_eq!(Level::Phase.to_string(), "phase (level 1)");
        assert_eq!(Level::Production.to_string(), "production (level 5)");
    }
}
