//! The one table type `repro` prints.

use std::fmt;

use updown_apps::harness::speedups;

/// Prints as a blank line, an optional `=== title ===` line, the header
/// row and the data rows: cells padded to their column's width (a wider
/// cell prints whole), separated by one space.
pub struct Table {
    title: Option<String>,
    /// Column widths; a negative width left-aligns, as in printf's `%-10s`.
    widths: Vec<i32>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with `header` as its first row.
    pub fn new(widths: &[i32], header: &[&str]) -> Table {
        let rows = vec![header.iter().map(|h| h.to_string()).collect()];
        Table { title: None, widths: widths.to_vec(), rows }
    }

    /// The paper's raw-data Tables 8–12: a row per node count, a column per
    /// series of final ticks, each cell a speedup over the series' first.
    pub fn speedups(title: &str, nodes: &[u32], series: &[(String, Vec<u64>)]) -> Table {
        let mut widths = vec![14; series.len() + 1];
        widths[0] = 12;
        let header: Vec<&str> = series.iter().map(|(label, _)| label.as_str()).collect();
        let mut t = Table::new(&widths, &[&["nodes"], &header[..]].concat());
        t.title = Some(title.to_string());
        let sp: Vec<Vec<f64>> = series.iter().map(|(_, ticks)| speedups(ticks)).collect();
        for (r, n) in nodes.iter().enumerate() {
            let cells = sp.iter().map(|s| format!("{:.2}", s[r]));
            t.row(std::iter::once(n.to_string()).chain(cells).collect());
        }
        t
    }

    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        writeln!(f)?;
        if let Some(title) = &self.title {
            writeln!(f, "=== {title} ===")?;
        }
        for row in &self.rows {
            for (i, (cell, &w)) in row.iter().zip(&self.widths).enumerate() {
                let (sep, pad) = (if i == 0 { "" } else { " " }, w.unsigned_abs() as usize);
                if w < 0 { write!(f, "{sep}{cell:<pad$}")? } else { write!(f, "{sep}{cell:>pad$}")? }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let series = [("rmat".to_string(), vec![1000, 400])];
        let t = Table::speedups("T", &[1, 2], &series);
        let want = "\n=== T ===\n       nodes           rmat\n           1           1.00\n           2           2.50\n";
        assert_eq!(t.to_string(), want);
        let mut t = Table::new(&[-6, 4], &["name", "n"]);
        t.row(vec!["a".into(), "12345".into()]);
        assert_eq!(t.to_string(), "\nname      n\na      12345\n", "a wide cell prints whole");
    }
}
