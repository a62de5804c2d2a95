//! Terminal ASCII plots of [`Table<f64>`]s — a rough visual check that a
//! regenerated figure has the paper's shape without leaving the shell.

use crate::report::Table;
use std::fmt::Write as _;

/// Characters assigned to the first few series.
const MARKS: &[char] = &['o', '+', 'x', '*', '#', '@'];

/// Renders an ASCII scatter plot of every series in `table` (mean values
/// only), `width × height` characters of plotting area, with the y-range
/// spanning `[0, max]` and the x-range `[min_x, max_x]`.
#[must_use]
pub fn ascii_plot(table: &Table<f64>, width: usize, height: usize) -> String {
    let width = width.max(10);
    let height = height.max(4);
    let mut out = String::new();
    let _ = writeln!(out, "{}", table.title);
    if table.rows.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let xs = table.rows.iter().map(|r| r.key);
    let x_min = xs.clone().fold(f64::INFINITY, f64::min);
    let x_max = xs.fold(f64::NEG_INFINITY, f64::max);
    let y_max = table
        .rows
        .iter()
        .flat_map(|r| r.values.iter().map(|v| v.mean))
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (s, _) in table.columns.iter().enumerate() {
        let mark = MARKS[s % MARKS.len()];
        for row in &table.rows {
            let Some(v) = row.values.get(s) else { continue };
            let xf = if x_max > x_min {
                (row.key - x_min) / (x_max - x_min)
            } else {
                0.5
            };
            let yf = (v.mean / y_max).clamp(0.0, 1.0);
            let col = (xf * (width - 1) as f64).round() as usize;
            let line = height - 1 - (yf * (height - 1) as f64).round() as usize;
            grid[line][col] = mark;
        }
    }

    let _ = writeln!(out, "{y_max:>10.2} ┤");
    for line in grid {
        let _ = writeln!(out, "{:>10} │{}", "", line.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>10} └{}", 0, "─".repeat(width));
    let _ = writeln!(
        out,
        "{:>12}{x_min:<10.2}{:>pad$}{x_max:.2}",
        "",
        "",
        pad = width.saturating_sub(20)
    );
    let legend: Vec<String> = table
        .columns
        .iter()
        .enumerate()
        .map(|(s, c)| format!("{} {c}", MARKS[s % MARKS.len()]))
        .collect();
    let _ = writeln!(out, "{:>12}legend: {}", "", legend.join("   "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn table() -> Table<f64> {
        let mut t = Table::new("shape", "x", vec!["up".into(), "down".into()]);
        for i in 0..=10 {
            let x = f64::from(i) / 10.0;
            t.push_row(
                x,
                vec![Summary::exact(x * 100.0), Summary::exact(100.0 - x * 100.0)],
            );
        }
        t
    }

    #[test]
    fn plot_contains_marks_and_legend() {
        let p = ascii_plot(&table(), 40, 10);
        assert!(p.contains('o'));
        assert!(p.contains('+'));
        assert!(p.contains("legend: o up   + down"));
        assert!(p.contains("shape"));
    }

    #[test]
    fn empty_table_safe() {
        let t = Table::new("empty", "x", vec!["a".into()]);
        let p = ascii_plot(&t, 40, 10);
        assert!(p.contains("(no data)"));
    }

    #[test]
    fn extremes_land_on_borders() {
        let p = ascii_plot(&table(), 40, 10);
        let lines: Vec<&str> = p.lines().collect();
        // First grid line (y = max) must hold a mark at the far right
        // (series "up" reaches its max at x = 1).
        let top = lines[2];
        assert!(top.trim_end().ends_with('o') || top.contains('+'));
    }

    #[test]
    fn degenerate_single_point() {
        let mut t = Table::new("one", "x", vec!["a".into()]);
        t.push_row(5.0, vec![Summary::exact(42.0)]);
        let p = ascii_plot(&t, 30, 6);
        assert!(p.contains('o'));
    }
}
