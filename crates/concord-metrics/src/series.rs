//! Labeled data series and plain-text tables for figure reproduction.
//!
//! Each `figN` harness binary assembles [`Series`] (one per line in the
//! paper's plot) into a [`Table`] and prints it, so the reproduction output
//! can be compared row-by-row with the paper's figures.

use std::fmt;

/// One plotted line: a label and a list of (x, y) points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"Concord"` or `"Shinjuku"`.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The largest x whose interpolated y stays at or below `ceiling`,
    /// scanning the recorded points in order. Returns `None` if even the
    /// first point exceeds the ceiling.
    ///
    /// This is how a "throughput at SLO" is read off a slowdown-vs-load
    /// curve that was measured on a fixed load grid.
    pub fn last_x_below(&self, ceiling: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for w in self.points.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if y0 <= ceiling && y1 > ceiling && y1 != y0 {
                // Interpolate the exact crossing inside this segment.
                return Some(x0 + (x1 - x0) * (ceiling - y0) / (y1 - y0));
            }
            if y0 <= ceiling {
                best = Some(x0);
            }
        }
        if let Some(&(x, y)) = self.points.last() {
            if y <= ceiling {
                best = Some(x);
            }
        }
        best
    }
}

/// A printable collection of series sharing an x axis.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. `"Figure 6 (left): Bimodal(50:1,50:100), q=5us"`).
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Looks up a series by label.
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

impl fmt::Display for Table {
    /// Renders the table as aligned plain text, one row per distinct x.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        write!(f, "{:>14}", self.x_label)?;
        for s in &self.series {
            write!(f, "  {:>18}", s.label)?;
        }
        writeln!(f)?;

        // Union of x values across series, sorted.
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN x values"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        for x in xs {
            write!(f, "{x:>14.3}")?;
            for s in &self.series {
                match s.points.iter().find(|p| (p.0 - x).abs() < 1e-12) {
                    Some(&(_, y)) => write!(f, "  {y:>18.3}")?,
                    None => write!(f, "  {:>18}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "# ({})", self.y_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Series {
        let mut s = Series::new("ramp");
        for i in 0..=10 {
            s.push(f64::from(i) * 10.0, f64::from(i) * 5.0);
        }
        s
    }

    #[test]
    fn last_x_below_finds_crossing() {
        let s = ramp(); // y = x/2, so y=30 at x=60.
        let x = s.last_x_below(30.0).unwrap();
        assert!((x - 60.0).abs() < 1e-9, "x={x}");
    }

    #[test]
    fn last_x_below_all_passing_returns_last() {
        let s = ramp();
        assert_eq!(s.last_x_below(1000.0), Some(100.0));
    }

    #[test]
    fn last_x_below_none_when_first_point_fails() {
        let mut s = Series::new("hot");
        s.push(1.0, 100.0);
        s.push(2.0, 200.0);
        assert_eq!(s.last_x_below(50.0), None);
    }

    #[test]
    fn table_renders_all_series() {
        let mut t = Table::new("Fig X", "load", "p99.9 slowdown");
        t.push(ramp());
        let mut other = Series::new("other");
        other.push(0.0, 1.0);
        t.push(other);
        let text = format!("{t}");
        assert!(text.contains("Fig X"));
        assert!(text.contains("ramp"));
        assert!(text.contains("other"));
        // The "other" series has no point at x=50 → dash.
        assert!(text
            .lines()
            .any(|l| l.contains("50.000") && l.contains('-')));
    }

    #[test]
    fn table_get_by_label() {
        let mut t = Table::new("t", "x", "y");
        t.push(ramp());
        assert!(t.get("ramp").is_some());
        assert!(t.get("missing").is_none());
    }
}
